#include "session/rtx_history.h"

#include <algorithm>
#include <utility>

namespace converge {

Duration RtxHistory::Horizon(Duration srtt) {
  const Duration rtt = srtt.IsInfinite() ? Duration::Seconds(1) : srtt;
  return std::max(Duration::Seconds(1), rtt * 3.0) * 3.0;
}

void RtxHistory::Put(uint16_t seq, const RtpPacket& packet,
                     Duration horizon) {
  if (slots_.empty()) slots_.resize(kInitialCapacity);
  // Grow while the slot still holds another packet inside the horizon.
  while (slots_.size() < kMaxCapacity) {
    const Entry& victim = slots_[seq & (slots_.size() - 1)];
    if (!victim.stored || victim.seq == seq ||
        packet.send_time - victim.packet.send_time > horizon) {
      break;
    }
    std::vector<Entry> grown(slots_.size() * 2);
    for (Entry& e : slots_) {
      if (e.stored) grown[e.seq & (grown.size() - 1)] = std::move(e);
    }
    slots_ = std::move(grown);
  }
  Entry& slot = slots_[seq & (slots_.size() - 1)];
  slot.seq = seq;
  slot.stored = true;
  slot.last_rtx = Timestamp::MinusInfinity();
  slot.packet = packet;
}

void RtxHistory::Clear(uint16_t seq) {
  if (slots_.empty()) return;
  Entry& slot = slots_[seq & (slots_.size() - 1)];
  if (slot.seq == seq) slot.stored = false;
}

RtxHistory::Entry* RtxHistory::Find(uint16_t seq) {
  if (slots_.empty()) return nullptr;
  Entry& slot = slots_[seq & (slots_.size() - 1)];
  return slot.stored && slot.seq == seq ? &slot : nullptr;
}

}  // namespace converge
