#include "receiver/fec_recovery.h"

#include <cstddef>
#include <utility>

namespace converge {
namespace {
constexpr size_t kMaxPending = 256;
constexpr int64_t kPendingMaxAge = 512;  // in media-packet ticks

uint64_t BitOf(int64_t useq) {
  return uint64_t{1} << (useq & 63);
}
size_t WordOf(int64_t useq) {
  return static_cast<size_t>((useq & (FecRecoverer::kSeenWindow - 1)) >> 6);
}
}  // namespace

int64_t FecRecoverer::SeenWindow::Resolve(uint16_t seq) const {
  int64_t useq = highest + static_cast<int16_t>(static_cast<uint16_t>(
                               seq - static_cast<uint16_t>(highest & 0xFFFF)));
  if (useq < 0) useq += 0x10000;
  return useq;
}

bool FecRecoverer::SeenWindow::Seen(int64_t useq) const {
  if (useq > highest || useq <= highest - kSeenWindow) return false;
  return (bits[WordOf(useq)] & BitOf(useq)) != 0;
}

void FecRecoverer::SeenWindow::Mark(int64_t useq) {
  if (useq <= highest - kSeenWindow) return;  // already out of the window
  if (useq > highest) {
    // The slots passed over now stand for newer seqs: clear them.
    if (highest < 0 || useq - highest >= kSeenWindow) {
      bits.fill(0);
    } else {
      for (int64_t s = highest + 1; s < useq; ++s) {
        bits[WordOf(s)] &= ~BitOf(s);
      }
    }
    highest = useq;
  }
  bits[WordOf(useq)] |= BitOf(useq);
}

FecRecoverer::FecRecoverer(RecoveredCallback on_recovered)
    : on_recovered_(std::move(on_recovered)) {}

FecRecoverer::SeenWindow* FecRecoverer::FindWindow(uint32_t ssrc) {
  for (SeenWindow& w : seen_) {
    if (w.ssrc == ssrc) return &w;
  }
  return nullptr;
}

FecRecoverer::SeenWindow& FecRecoverer::WindowFor(uint32_t ssrc) {
  if (SeenWindow* w = FindWindow(ssrc)) return *w;
  seen_.emplace_back().ssrc = ssrc;
  return seen_.back();
}

void FecRecoverer::OnMediaPacket(const RtpPacket& packet) {
  SeenWindow& window = WindowFor(packet.ssrc);
  window.Mark(window.unwrapper.Unwrap(packet.seq));
  ++tick_;

  // A new arrival may complete a pending parity group. Spent parity leaves
  // the list; the rest keeps its order.
  size_t kept = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    PendingFec& parked = pending_[i];
    bool relevant = false;
    if (parked.ssrc == packet.ssrc) {
      for (const ProtectedPacketMeta& meta : parked.block->covered) {
        if (meta.seq == packet.seq) {
          relevant = true;
          break;
        }
      }
    }
    if (relevant && TryRecover(parked.ssrc, *parked.block)) continue;
    if (kept != i) pending_[kept] = std::move(parked);
    ++kept;
  }
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(kept),
                 pending_.end());
  Sweep();
}

void FecRecoverer::OnFecPacket(const RtpPacket& packet) {
  ++stats_.fec_received;
  ++tick_;
  // Malformed parity (no recovery info) is spent at once.
  if (packet.fec && !TryRecover(packet.ssrc, *packet.fec)) {
    pending_.push_back(PendingFec{packet.ssrc, packet.fec, tick_});
    if (pending_.size() > kMaxPending) pending_.erase(pending_.begin());
  }
  Sweep();
}

bool FecRecoverer::TryRecover(uint32_t ssrc, const FecBlockMeta& block) {
  const SeenWindow* window = FindWindow(ssrc);
  const bool any_seen = window != nullptr && window->highest >= 0;
  int missing = 0;
  const ProtectedPacketMeta* missing_meta = nullptr;
  for (const ProtectedPacketMeta& meta : block.covered) {
    if (!any_seen || !window->Seen(window->Resolve(meta.seq))) {
      ++missing;
      missing_meta = &meta;
    }
  }
  if (missing == 0) return true;  // nothing to do; parity spent
  if (missing > 1) return false;  // XOR cannot rebuild two losses

  RtpPacket recovered = PacketFromMeta(*missing_meta, ssrc);
  recovered.via_fec = true;
  SeenWindow& target = WindowFor(ssrc);
  // The first seq of an SSRC starts its unwrapper; after that a rebuilt
  // packet is placed relative to the highest seq and leaves it alone.
  target.Mark(target.highest >= 0 ? target.Resolve(recovered.seq)
                                  : target.unwrapper.Unwrap(recovered.seq));
  ++stats_.fec_used;
  ++stats_.packets_recovered;
  on_recovered_(std::move(recovered));
  return true;
}

void FecRecoverer::Sweep() {
  auto fresh = pending_.begin();
  while (fresh != pending_.end() && tick_ - fresh->age > kPendingMaxAge) {
    ++fresh;
  }
  pending_.erase(pending_.begin(), fresh);
}

}  // namespace converge
