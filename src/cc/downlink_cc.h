// Hub-side congestion loop for one (receiver, path) downlink of a star
// conference. The SFU hub owns the downlink sequence spaces: it re-stamps
// mp_transport_seq per (origin leg, path) at egress and registers every
// stamped packet here, then translates the receiver's per-leg transport
// feedback into PacketResults for a wrapped CcController (GCC by default;
// any algorithm behind MakeCcController).
//
// The hub sends no SenderReports of its own (SR/SDES pass through from the
// origin), so the receiver-report RTT echo measures the origin's round
// trip, not the hub's. The loss branch is therefore driven from transport
// feedback directly: each batch yields a loss fraction and an RTT sample
// (feedback arrival minus send time of the newest received packet).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cc/cc_controller.h"
#include "rtp/rtcp.h"
#include "util/time.h"

namespace converge {

class DownlinkCc {
 public:
  struct Config {
    CcConfig controller;
    // Packets kept awaiting feedback; the oldest entries are pruned first.
    size_t max_history = 8192;
  };

  // Registrable key domain: the hub's leg indices and unwrapped egress
  // counters both start at 0 and stay far inside these bounds.
  static constexpr int kMaxLeg = (1 << 24) - 2;
  static constexpr int64_t kMaxTransportSeq = (int64_t{1} << 40) - 1;

  explicit DownlinkCc(Config config);

  // Registers a packet stamped onto this downlink. `transport_seq` is the
  // hub's unwrapped per-(leg, path) egress counter — the same value the
  // receiver's unwrapper reconstructs and echoes in transport feedback.
  // Throws std::out_of_range outside [0, kMaxLeg] x [0, kMaxTransportSeq].
  void OnPacketSent(int leg, int64_t transport_seq, Timestamp send_time,
                    int64_t bytes);

  // One leg's transport feedback for this downlink path. Entries missing
  // from the sent history (pruned, or stamped before a restart) are
  // skipped rather than misread as losses, and counted in
  // feedback_unmatched().
  void OnTransportFeedback(int leg, const TransportFeedback& fb,
                           Timestamp now);

  DataRate target_rate() const { return cc_->target_rate(); }
  Duration smoothed_rtt() const { return cc_->smoothed_rtt(); }
  double loss_estimate() const { return cc_->loss_estimate(); }
  const CcController& controller() const { return *cc_; }

  int64_t feedback_batches() const { return feedback_batches_; }
  int64_t packets_registered() const { return packets_registered_; }
  int64_t packets_acked() const { return packets_acked_; }
  int64_t packets_lost() const { return packets_lost_; }
  // Feedback arrivals skipped because their packet was not in the history.
  int64_t feedback_unmatched() const { return feedback_unmatched_; }

 private:
  struct SentRecord {
    Timestamp send_time;
    int64_t bytes = 0;
  };

  // The sent history: the records of the last max_history registrations,
  // keyed by packed (leg, transport seq). An open-addressing table with
  // linear probing holds the records; a FIFO ring holds the keys in
  // registration order and erases the oldest key once full. A re-registered
  // key (a leg restarting its egress counter) overwrites its record, and
  // the ring's pop of the earlier registration then erases the newer
  // record: the semantics of a map plus a deque of keys, kept exactly.
  // Both grow on demand, so an idle downlink allocates nothing.
  class SentHistory {
   public:
    explicit SentHistory(size_t max_entries) : max_entries_(max_entries) {}
    void Register(uint64_t key, SentRecord record);
    const SentRecord* Find(uint64_t key) const;

   private:
    struct Slot {
      uint64_t key = kEmpty;
      SentRecord record;
    };
    static constexpr uint64_t kEmpty = ~uint64_t{0};

    size_t Home(uint64_t key) const;
    void Insert(uint64_t key, SentRecord record);
    void Erase(uint64_t key);
    void Grow();

    size_t max_entries_;
    std::vector<Slot> slots_;  // power-of-two size, at most 3/4 full
    size_t mask_ = 0;
    int block_shift_ = 64;
    size_t size_ = 0;
    std::vector<uint64_t> order_;  // ring of keys, oldest at order_head_
    size_t order_head_ = 0;
  };

  Config config_;
  std::unique_ptr<CcController> cc_;
  SentHistory sent_;
  std::vector<PacketResult> results_;  // per-batch scratch
  int64_t feedback_batches_ = 0;
  int64_t packets_registered_ = 0;
  int64_t packets_acked_ = 0;
  int64_t packets_lost_ = 0;
  int64_t feedback_unmatched_ = 0;
};

}  // namespace converge
