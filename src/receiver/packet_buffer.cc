#include "receiver/packet_buffer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/invariants.h"

namespace converge {

PacketBuffer::PacketBuffer(Config config, FrameCallback on_frame)
    : config_(config), on_frame_(std::move(on_frame)) {
  ring_size_ = 16;
  while (ring_size_ < config_.capacity_packets) ring_size_ *= 2;
}

PacketBuffer::SsrcIndex& PacketBuffer::IndexFor(uint32_t ssrc) {
  for (SsrcIndex& index : ssrcs_) {
    if (index.ssrc == ssrc) return index;
  }
  SsrcIndex& index = ssrcs_.emplace_back();
  index.ssrc = ssrc;
  index.ring.assign(ring_size_, kNone);
  return index;
}

int32_t PacketBuffer::Find(const SsrcIndex& index, int64_t useq) const {
  int32_t e = index.ring[static_cast<size_t>(useq) & (ring_size_ - 1)];
  while (e != kNone && entries_[static_cast<size_t>(e)].useq != useq) {
    e = entries_[static_cast<size_t>(e)].chain;
  }
  return e;
}

int32_t PacketBuffer::TrackFrame(int stream_id, int64_t frame_id,
                                 int32_t ssrc_index) {
  if (last_frame_ != kNone) {
    // Consecutive packets mostly share a frame: skip the hash lookup.
    Frame& last = frames_[static_cast<size_t>(last_frame_)];
    if (last.tracked && last.frame_id == frame_id &&
        last.stream_id == stream_id) {
      return last_frame_;
    }
  }
  const auto [it, added] =
      frame_index_.try_emplace(std::make_pair(stream_id, frame_id), kNone);
  if (added) {
    if (free_frames_.empty()) {
      it->second = static_cast<int32_t>(frames_.size());
      frames_.emplace_back();
    } else {
      it->second = free_frames_.back();
      free_frames_.pop_back();
    }
    Frame& frame = frames_[static_cast<size_t>(it->second)];
    frame = Frame{};
    frame.stream_id = stream_id;
    frame.frame_id = frame_id;
  }
  Frame& frame = frames_[static_cast<size_t>(it->second)];
  if (!frame.tracked) {
    // First insert since the frame was assembled (or ever): fresh progress.
    frame.tracked = true;
    frame.destroyed = false;
    frame.first_seq.reset();
    frame.last_seq.reset();
    frame.ssrc_index = ssrc_index;
  }
  last_frame_ = it->second;
  return it->second;
}

void PacketBuffer::Arm(int32_t fi) {
  Frame& frame = frames_[static_cast<size_t>(fi)];
  if (frame.destroyed || !frame.first_seq || !frame.last_seq ||
      *frame.first_seq > *frame.last_seq) {
    Disarm(fi);
    return;
  }
  const SsrcIndex& index = ssrcs_[static_cast<size_t>(frame.ssrc_index)];
  frame.in_range = 0;
  for (int64_t s = *frame.first_seq; s <= *frame.last_seq; ++s) {
    if (Find(index, s) != kNone) ++frame.in_range;
  }
  if (!frame.armed) {
    frame.armed = true;
    armed_.push_back(fi);
  }
}

void PacketBuffer::Disarm(int32_t fi) {
  Frame& frame = frames_[static_cast<size_t>(fi)];
  if (!frame.armed) return;
  frame.armed = false;
  auto it = std::find(armed_.begin(), armed_.end(), fi);
  *it = armed_.back();
  armed_.pop_back();
}

void PacketBuffer::CountInArmedRanges(int32_t ssrc_index, int64_t useq,
                                      int32_t delta) {
  for (int32_t fi : armed_) {
    Frame& frame = frames_[static_cast<size_t>(fi)];
    if (frame.ssrc_index == ssrc_index && useq >= *frame.first_seq &&
        useq <= *frame.last_seq) {
      frame.in_range += delta;
    }
  }
}

void PacketBuffer::Insert(const RtpPacket& packet, Timestamp arrival,
                          PathId path) {
  SsrcIndex* index = &IndexFor(packet.ssrc);
  const int32_t ssrc_index = static_cast<int32_t>(index - ssrcs_.data());
  const int64_t useq = index->unwrapper.Unwrap(packet.seq);
  if (Find(*index, useq) != kNone) {
    ++stats_.duplicates;
    return;
  }
  while (live_ >= config_.capacity_packets) EvictOldest();

  ++stats_.inserted;
  const int32_t fi = TrackFrame(packet.stream_id, packet.frame_id, ssrc_index);

  int32_t e = free_entries_;
  if (e != kNone) {
    free_entries_ = entries_[static_cast<size_t>(e)].next;
  } else {
    e = static_cast<int32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& entry = entries_[static_cast<size_t>(e)];
  entry.useq = useq;
  entry.payload_bytes = packet.payload_bytes;
  entry.gop_id = packet.gop_id;
  entry.arrival = arrival;
  entry.capture_time = packet.capture_time;
  entry.ssrc_index = ssrc_index;
  entry.frame = fi;
  entry.qp = packet.qp;
  entry.path = path;
  entry.frame_kind = packet.frame_kind;
  entry.spatial_id = packet.spatial_id;
  entry.temporal_id = packet.temporal_id;
  entry.via_fec = packet.via_fec;
  entry.via_rtx = packet.via_rtx;
  entry.prev = newest_;
  entry.next = kNone;
  if (newest_ != kNone) {
    entries_[static_cast<size_t>(newest_)].next = e;
  } else {
    oldest_ = e;
  }
  newest_ = e;
  ++live_;

  int32_t& slot = index->ring[static_cast<size_t>(useq) & (ring_size_ - 1)];
  entry.chain = slot;
  slot = e;
  CountInArmedRanges(ssrc_index, useq, +1);

  Frame& progress = frames_[static_cast<size_t>(fi)];
  ++progress.present;
  const bool closes_frame = packet.marker || packet.last_in_frame;
  if (packet.first_in_frame) progress.first_seq = useq;
  if (closes_frame) progress.last_seq = useq;
  if (packet.first_in_frame || closes_frame) Arm(fi);
  TryAssemble(fi);

  CONVERGE_INVARIANT("PacketBuffer", arrival,
                     live_ <= config_.capacity_packets,
                     "size=" + std::to_string(live_) + " capacity=" +
                         std::to_string(config_.capacity_packets));
  CONVERGE_INVARIANT(
      "PacketBuffer", arrival,
      stats_.inserted >= stats_.evicted + stats_.purged,
      "inserted=" + std::to_string(stats_.inserted) +
          " evicted=" + std::to_string(stats_.evicted) +
          " purged=" + std::to_string(stats_.purged));
}

void PacketBuffer::TryAssemble(int32_t fi) {
  Frame& progress = frames_[static_cast<size_t>(fi)];
  // All sequence numbers in [first, last] must be present.
  if (!progress.armed ||
      progress.in_range < *progress.last_seq - *progress.first_seq + 1) {
    return;  // still gathering
  }
  const SsrcIndex& index = ssrcs_[static_cast<size_t>(progress.ssrc_index)];
  members_.clear();
  for (int64_t s = *progress.first_seq; s <= *progress.last_seq; ++s) {
    members_.push_back(Find(index, s));
  }

  GatheredFrame gathered;
  AssembledFrame& frame = gathered.frame;
  const Entry& sample = entries_[static_cast<size_t>(members_.front())];
  frame.stream_id = progress.stream_id;
  frame.frame_id = progress.frame_id;
  frame.gop_id = sample.gop_id;
  frame.kind = sample.frame_kind;
  frame.qp = sample.qp;
  frame.capture_time = sample.capture_time;
  frame.spatial_id = sample.spatial_id;
  frame.temporal_id = sample.temporal_id;
  frame.packets = static_cast<int>(members_.size());

  Timestamp first_arrival = Timestamp::PlusInfinity();
  Timestamp last_arrival = Timestamp::MinusInfinity();
  gathered.arrivals.reserve(members_.size());
  for (int32_t e : members_) {
    const Entry& entry = entries_[static_cast<size_t>(e)];
    first_arrival = std::min(first_arrival, entry.arrival);
    last_arrival = std::max(last_arrival, entry.arrival);
    frame.size_bytes += entry.payload_bytes;
    if (entry.via_fec) ++frame.recovered_by_fec;
    if (entry.via_rtx) ++frame.recovered_by_rtx;
    gathered.arrivals.push_back(
        PacketArrivalInfo{entry.path, entry.arrival, entry.useq});
  }
  frame.first_packet_time = first_arrival;
  frame.complete_time = last_arrival;
  frame.fcd = last_arrival - first_arrival;

  // Frame leaves the packet buffer for the frame buffer. Entries of other
  // rungs outside [first, last] keep the record alive, untracked.
  Disarm(fi);
  for (int32_t e : members_) EraseEntry(e);
  progress.tracked = false;
  ReleaseFrameIfUnused(fi);
  ++stats_.frames_assembled;
  on_frame_(std::move(gathered));
}

void PacketBuffer::EvictOldest() {
  if (oldest_ == kNone) return;
  const int32_t victim = oldest_;
  const int32_t fi = entries_[static_cast<size_t>(victim)].frame;
  Frame& frame = frames_[static_cast<size_t>(fi)];
  if (frame.tracked && !frame.destroyed) {
    frame.destroyed = true;
    ++stats_.frames_destroyed;
    Disarm(fi);
  }
  EraseEntry(victim);
  ++stats_.evicted;
}

void PacketBuffer::EraseEntry(int32_t e) {
  Entry& entry = entries_[static_cast<size_t>(e)];
  int32_t* link = &ssrcs_[static_cast<size_t>(entry.ssrc_index)]
                       .ring[static_cast<size_t>(entry.useq) & (ring_size_ - 1)];
  while (*link != e) link = &entries_[static_cast<size_t>(*link)].chain;
  *link = entry.chain;
  if (entry.prev != kNone) {
    entries_[static_cast<size_t>(entry.prev)].next = entry.next;
  } else {
    oldest_ = entry.next;
  }
  if (entry.next != kNone) {
    entries_[static_cast<size_t>(entry.next)].prev = entry.prev;
  } else {
    newest_ = entry.prev;
  }
  const int32_t fi = entry.frame;
  CountInArmedRanges(entry.ssrc_index, entry.useq, -1);
  entry.useq = -1;
  entry.next = free_entries_;
  free_entries_ = e;
  --live_;
  --frames_[static_cast<size_t>(fi)].present;
  ReleaseFrameIfUnused(fi);
}

void PacketBuffer::ReleaseFrameIfUnused(int32_t fi) {
  const Frame& frame = frames_[static_cast<size_t>(fi)];
  if (frame.present > 0 || frame.tracked) return;
  frame_index_.erase(std::make_pair(frame.stream_id, frame.frame_id));
  free_frames_.push_back(fi);
}

void PacketBuffer::PurgeFramesUpTo(int stream_id, int64_t upto) {
  for (int32_t e = oldest_; e != kNone;) {
    const Entry& entry = entries_[static_cast<size_t>(e)];
    const int32_t next = entry.next;
    const Frame& frame = frames_[static_cast<size_t>(entry.frame)];
    if (frame.stream_id == stream_id && frame.frame_id <= upto) {
      EraseEntry(e);
      ++stats_.purged;
    }
    e = next;
  }
  // Every purged frame has no entries left; drop the tracked ones too.
  for (auto it = frame_index_.begin(); it != frame_index_.end();) {
    if (it->first.first == stream_id && it->first.second <= upto) {
      Disarm(it->second);
      free_frames_.push_back(it->second);
      frames_[static_cast<size_t>(it->second)].tracked = false;
      it = frame_index_.erase(it);
    } else {
      ++it;
    }
  }
}

bool PacketBuffer::Has(uint32_t ssrc, int64_t unwrapped_seq) const {
  for (size_t i = 0; i < ssrcs_.size(); ++i) {
    if (ssrcs_[i].ssrc == ssrc) {
      return Find(ssrcs_[i], unwrapped_seq) != kNone;
    }
  }
  return false;
}

}  // namespace converge
