#include "net/link.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace converge {
namespace {
// Floor on the instantaneous service rate: an outage makes transmission very
// slow (forcing queue drops) rather than dividing by zero.
constexpr int64_t kMinServiceBps = 10'000;
}  // namespace

Link::Link(EventLoop* loop, Config config, Random rng)
    : loop_(loop), config_(std::move(config)), rng_(rng) {
  if (config_.loss != nullptr) {
    if (auto own = config_.loss->PerLinkCopy()) config_.loss = std::move(own);
  }
}

int64_t Link::QueueLimitBytes() const {
  const int64_t delay_based =
      CapacityNow().BytesIn(config_.max_queue_delay);
  return std::max(config_.min_queue_bytes, delay_based);
}

void Link::Send(int64_t bytes, DeliverFn on_deliver, DropFn on_drop) {
  ++stats_.packets_sent;
  if (queued_bytes_ + bytes > QueueLimitBytes()) {
    ++stats_.packets_queue_dropped;
    if (on_drop) on_drop(/*queue_drop=*/true);
    return;
  }
  queue_.push_back(Pending{bytes, std::move(on_deliver), std::move(on_drop)});
  queued_bytes_ += bytes;
  if (!busy_) StartTransmission();
}

void Link::StartTransmission() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  // The packet in service stays at the queue head until its service time
  // elapses, so the completion event captures only `this` — no callback or
  // packet state is dragged through the event loop per transmission.
  const int64_t rate_bps =
      std::max<int64_t>(kMinServiceBps, CapacityNow().bps());
  const Duration tx =
      DataRate::BitsPerSec(rate_bps).TransmitTime(queue_.front().bytes);
  loop_->ScheduleIn(tx, [this] { FinishTransmission(); });
}

void Link::FinishTransmission() {
  // Work on the head slot in place; pop_front (which resets the slot and
  // destroys whatever we did not move out) runs before rescheduling.
  Pending& pkt = queue_.front();
  queued_bytes_ -= pkt.bytes;
  const bool lost =
      config_.loss != nullptr && config_.loss->ShouldDrop(loop_->now(), rng_);
  if (lost) {
    ++stats_.packets_lost;
    DropFn on_drop = std::move(pkt.on_drop);
    queue_.pop_front();
    if (on_drop) on_drop(/*queue_drop=*/false);
  } else {
    ++stats_.packets_delivered;
    stats_.bytes_delivered += pkt.bytes;
    const Timestamp arrival = loop_->now() + PropDelayNow();
    uint32_t slot;
    if (!deliver_free_.empty()) {
      slot = deliver_free_.back();
      deliver_free_.pop_back();
      deliver_slots_[slot] = std::move(pkt.on_deliver);
    } else {
      slot = static_cast<uint32_t>(deliver_slots_.size());
      deliver_slots_.push_back(std::move(pkt.on_deliver));
    }
    queue_.pop_front();
    inflight_.push_back(Arrival{arrival, inflight_seq_++, slot});
    std::push_heap(inflight_.begin(), inflight_.end(), std::greater<>{});
    loop_->ScheduleAt(arrival, [this] { DeliverNext(); });
  }
  StartTransmission();
}

void Link::DeliverNext() {
  std::pop_heap(inflight_.begin(), inflight_.end(), std::greater<>{});
  const Arrival arrival = inflight_.back();
  inflight_.pop_back();
  DeliverFn deliver = std::move(deliver_slots_[arrival.slot]);
  deliver_slots_[arrival.slot] = nullptr;
  deliver_free_.push_back(arrival.slot);
  deliver(arrival.at);
}

}  // namespace converge
