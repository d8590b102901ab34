// Receiver-side XOR FEC recovery.
//
// Tracks received media packets and pending parity packets; whenever a
// parity group has exactly one covered packet missing, that packet is
// rebuilt and handed back to the caller. Also reports the utilization
// statistics the paper evaluates (fraction of received FEC that actually
// repaired something, Figures 3c/12).
//
// Seen media is kept per SSRC in a window of the last kSeenWindow sequence
// numbers, one bit per unwrapped seq (bit = seq mod kSeenWindow). Media
// arrivals are unwrapped by the SSRC's SeqUnwrapper; a parity packet's
// covered 16-bit seqs, and a packet rebuilt from them, are resolved against
// the highest unwrapped seq seen (the nearest value with those low 16 bits),
// so they never advance the unwrapper. When the highest seq advances, the
// bits it passes over are cleared: a seq older than the window reads as
// unseen, and the window is exact across every 16-bit wrap.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fec/xor_fec.h"
#include "rtp/rtp_packet.h"
#include "rtp/sequence_number.h"

namespace converge {

class FecRecoverer {
 public:
  // Sequence numbers remembered per SSRC.
  static constexpr int64_t kSeenWindow = 4096;

  struct Stats {
    int64_t fec_received = 0;
    int64_t fec_used = 0;        // parity packets that repaired a loss
    int64_t packets_recovered = 0;
  };

  // Recovered packets are delivered through this callback (marked via_fec).
  // By value: the freshly rebuilt packet is moved out to the caller.
  using RecoveredCallback = std::function<void(RtpPacket)>;

  explicit FecRecoverer(RecoveredCallback on_recovered);

  // Media path: remember the sequence and re-check pending parity packets.
  void OnMediaPacket(const RtpPacket& packet);
  // Parity path: attempt recovery now, else park the parity packet.
  void OnFecPacket(const RtpPacket& packet);

  const Stats& stats() const { return stats_; }
  size_t pending() const { return pending_.size(); }

 private:
  // A parked parity packet: what recovery reads of it.
  struct PendingFec {
    uint32_t ssrc = 0;
    std::shared_ptr<const FecBlockMeta> block;  // never null
    int64_t age = 0;
  };

  struct SeenWindow {
    uint32_t ssrc = 0;
    SeqUnwrapper unwrapper;  // advanced by media arrivals only
    int64_t highest = -1;    // highest unwrapped seq marked; -1: none yet
    std::array<uint64_t, kSeenWindow / 64> bits{};

    // The unwrapped seq nearest `highest` with these low 16 bits (the
    // unwrapper's rule, without moving it).
    int64_t Resolve(uint16_t seq) const;
    bool Seen(int64_t useq) const;
    void Mark(int64_t useq);
  };

  // Returns true if the parity packet is now spent (recovered or complete).
  bool TryRecover(uint32_t ssrc, const FecBlockMeta& block);
  void Sweep();
  SeenWindow* FindWindow(uint32_t ssrc);
  SeenWindow& WindowFor(uint32_t ssrc);

  RecoveredCallback on_recovered_;
  Stats stats_;
  std::vector<SeenWindow> seen_;  // one per SSRC, created on its first packet
  std::vector<PendingFec> pending_;  // oldest first
  int64_t tick_ = 0;
};

}  // namespace converge
