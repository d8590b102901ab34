// Retransmission history for one 16-bit sequence space (a path's mp_seq, or
// one SSRC's media seq): the packets a NACK may still ask for.
//
// A power-of-two ring indexed by `seq & (capacity - 1)`. A slot holds the
// seq it was written under, so a lookup hits only when the stored seq
// matches. The ring starts small and doubles only when a write would
// overwrite a packet still inside the retention horizon, up to one slot per
// 16-bit seq (where it holds exactly what a map keyed by seq would). Every
// packet sent within the horizon is therefore kept; an older one answers
// until a newer seq reuses its slot. Memory follows send rate × horizon,
// not call length.
//
// The horizon is libwebrtc's RtpPacketHistory culling rule,
// 3 × max(1 s, 3 × srtt): a NACK normally names a packet about one RTT
// after it left.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rtp/rtp_packet.h"
#include "util/time.h"

namespace converge {

class RtxHistory {
 public:
  static constexpr size_t kInitialCapacity = 16;
  static constexpr size_t kMaxCapacity = 65536;  // one slot per 16-bit seq

  struct Entry {
    uint16_t seq = 0;
    bool stored = false;  // holds a retransmittable packet
    // Last time this packet was retransmitted: receivers repeat a NACK on
    // every live path, so answers inside a short window are de-duplicated.
    Timestamp last_rtx = Timestamp::MinusInfinity();
    RtpPacket packet;

    bool RetransmittedWithin(Duration window, Timestamp now) const {
      return last_rtx.IsFinite() && now - last_rtx < window;
    }
  };

  // Retention horizon for a path whose smoothed RTT is `srtt`; an unknown
  // (infinite) srtt counts as 1 s.
  static Duration Horizon(Duration srtt);

  // Stores `packet` under `seq`; its send_time dates it.
  void Put(uint16_t seq, const RtpPacket& packet, Duration horizon);
  // A packet that is not worth retransmitting (FEC, probe) took `seq`:
  // forget what the slot holds under that seq.
  void Clear(uint16_t seq);
  // The entry stored under `seq`, or null once its slot was reused.
  Entry* Find(uint16_t seq);

  size_t capacity() const { return slots_.size(); }

 private:
  std::vector<Entry> slots_;
};

}  // namespace converge
