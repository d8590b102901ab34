#include "cc/downlink_cc.h"

#include <bit>
#include <stdexcept>

namespace converge {
namespace {

constexpr int kSeqBits = 40;

// Consecutive seqs of one leg share a block of this many adjacent slots, so
// a feedback batch and the ring's erase walk one cache-friendly run; blocks
// themselves are scattered so that legs advancing at different rates never
// pile their runs into one long probe cluster.
constexpr int kBlockBits = 3;
constexpr size_t kMinSlots = size_t{1} << (kBlockBits + 2);

bool InDomain(int leg, int64_t seq) {
  return leg >= 0 && leg <= DownlinkCc::kMaxLeg && seq >= 0 &&
         seq <= DownlinkCc::kMaxTransportSeq;
}

uint64_t PackKey(int leg, int64_t seq) {
  return (static_cast<uint64_t>(leg) << kSeqBits) |
         static_cast<uint64_t>(seq);
}

}  // namespace

DownlinkCc::DownlinkCc(Config config)
    : config_(config),
      cc_(MakeCcController(config.controller)),
      sent_(config.max_history) {}

void DownlinkCc::OnPacketSent(int leg, int64_t transport_seq,
                              Timestamp send_time, int64_t bytes) {
  if (!InDomain(leg, transport_seq)) {
    throw std::out_of_range("DownlinkCc: (leg, transport_seq) out of range");
  }
  sent_.Register(PackKey(leg, transport_seq), {send_time, bytes});
  ++packets_registered_;
}

void DownlinkCc::OnTransportFeedback(int leg, const TransportFeedback& fb,
                                     Timestamp now) {
  results_.clear();
  int received = 0;
  int lost = 0;
  Timestamp newest_send = Timestamp::MinusInfinity();
  for (const auto& a : fb.arrivals) {
    const SentRecord* sent =
        InDomain(leg, a.mp_transport_seq)
            ? sent_.Find(PackKey(leg, a.mp_transport_seq))
            : nullptr;
    if (sent == nullptr) {
      ++feedback_unmatched_;
      continue;
    }
    PacketResult r;
    r.transport_seq = a.mp_transport_seq;
    r.bytes = sent->bytes;
    r.send_time = sent->send_time;
    r.received = a.recv_time.IsFinite();
    if (r.received) {
      r.recv_time = a.recv_time;
      ++received;
      if (sent->send_time > newest_send) newest_send = sent->send_time;
    } else {
      ++lost;
    }
    results_.push_back(r);
  }
  if (results_.empty()) return;
  ++feedback_batches_;
  packets_acked_ += received;
  packets_lost_ += lost;
  cc_->OnTransportFeedback(results_, now);
  // Drive the loss branch from the same batch: without hub SRs there is no
  // receiver-report RTT echo for this hop, so use feedback arrival minus
  // the newest received packet's send time as the round-trip sample.
  const double fraction_lost =
      static_cast<double>(lost) / static_cast<double>(received + lost);
  Duration rtt = Duration::Millis(1);
  if (newest_send.IsFinite() && now > newest_send) {
    rtt = now - newest_send;
  }
  cc_->OnReceiverReport(fraction_lost, rtt, now);
}

void DownlinkCc::SentHistory::Register(uint64_t key, SentRecord record) {
  if (max_entries_ == 0) return;
  Insert(key, record);
  if (order_.size() < max_entries_) {
    order_.push_back(key);
    return;
  }
  const uint64_t oldest = order_[order_head_];
  order_[order_head_] = key;
  if (++order_head_ == order_.size()) order_head_ = 0;
  Erase(oldest);
}

const DownlinkCc::SentRecord* DownlinkCc::SentHistory::Find(
    uint64_t key) const {
  if (slots_.empty()) return nullptr;
  for (size_t i = Home(key);; i = (i + 1) & mask_) {
    const Slot& s = slots_[i];
    if (s.key == key) return &s.record;
    if (s.key == kEmpty) return nullptr;
  }
}

size_t DownlinkCc::SentHistory::Home(uint64_t key) const {
  // Fibonacci hashing of the block number picks the block's slot run.
  const uint64_t block = (key >> kBlockBits) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(((block >> block_shift_) << kBlockBits) |
                             (key & ((uint64_t{1} << kBlockBits) - 1)));
}

void DownlinkCc::SentHistory::Insert(uint64_t key, SentRecord record) {
  if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
  for (size_t i = Home(key);; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.key == kEmpty) {
      s.key = key;
      ++size_;
    } else if (s.key != key) {
      continue;
    }
    s.record = record;
    return;
  }
}

void DownlinkCc::SentHistory::Erase(uint64_t key) {
  size_t i = Home(key);
  while (slots_[i].key != key) {
    if (slots_[i].key == kEmpty) return;
    i = (i + 1) & mask_;
  }
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless that would move it before its home slot.
  for (size_t j = (i + 1) & mask_; slots_[j].key != kEmpty;
       j = (j + 1) & mask_) {
    const size_t home = Home(slots_[j].key);
    if (((j - home) & mask_) >= ((j - i) & mask_)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i].key = kEmpty;
  --size_;
}

void DownlinkCc::SentHistory::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t capacity = old.empty() ? kMinSlots : old.size() * 2;
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  block_shift_ = 64 - (std::countr_zero(capacity) - kBlockBits);
  size_ = 0;
  for (const Slot& s : old) {
    if (s.key != kEmpty) Insert(s.key, s.record);
  }
}

}  // namespace converge
