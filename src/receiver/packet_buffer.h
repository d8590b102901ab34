// The receiver's packet buffer (§2.1): a size-limited store that gathers the
// RTP packets of each frame. Packets of a frame occupy a contiguous per-SSRC
// sequence range ([first_in_frame .. marker]); a frame is assembled the
// moment the range is fully present. When the buffer is full, the oldest
// packets are discarded to make room — exactly the behaviour that, under
// multipath asymmetry, destroys frames whose tail packets ride a slow path
// (§3.2).
//
// Storage is flat and bounded by `capacity_packets`:
//  - Entries live in a slab of at most `capacity_packets` slots, grown on
//    demand, and keep only what assembly reads (not the whole RtpPacket).
//    An intrusive list threads the live entries in insertion order, so
//    eviction pops the oldest entry in O(1).
//  - Each SSRC has a seq-indexed ring of slab indices, sized to the smallest
//    power of two >= `capacity_packets` and allocated on the SSRC's first
//    packet. Seqs are unwrapped by the SSRC's SeqUnwrapper, so the ring is
//    indexed by `unwrapped seq mod ring size` and never aliases across a
//    16-bit wrap. Live entries whose seqs share a slot (a straggler one
//    ring length or more older than a new seq) chain through the slot,
//    newest first; the ring never grows. Chains stay short because at most
//    `capacity_packets` entries are live, and FIFO eviction removes any
//    entry after `capacity_packets` newer inserts.
//  - A frame is "armed" once it has a [first, last] range and is not
//    destroyed. Each armed frame counts the live entries of its SSRC whose
//    seq lies in its range; every insert and erase updates the few armed
//    frames, and arming walks the range once. The frame is complete when
//    the count equals the range length, so an arrival does not re-walk
//    the range. The count is by seq, not by frame: an entry of another
//    frame inside the range (a FEC rebuild of a packet one or more wraps
//    old, whose 16-bit seq aliases into a current frame's range) counts
//    too, so such a frame still completes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/path.h"
#include "rtp/rtp_packet.h"
#include "rtp/sequence_number.h"
#include "video/frame.h"

namespace converge {

// Arrival record the QoE monitor consumes (§4.2).
struct PacketArrivalInfo {
  PathId path_id = kInvalidPathId;
  Timestamp arrival;
  int64_t seq = 0;  // unwrapped
};

// A fully gathered frame plus its arrival history.
struct GatheredFrame {
  AssembledFrame frame;
  std::vector<PacketArrivalInfo> arrivals;
};

class PacketBuffer {
 public:
  struct Config {
    size_t capacity_packets = 512;
  };

  struct Stats {
    int64_t inserted = 0;
    int64_t duplicates = 0;
    int64_t evicted = 0;          // dropped to make room (buffer overflow)
    int64_t purged = 0;           // cleared on frame-buffer instruction
    int64_t frames_assembled = 0;
    int64_t frames_destroyed = 0;  // had packets evicted before completing
  };

  using FrameCallback = std::function<void(GatheredFrame&&)>;

  PacketBuffer(Config config, FrameCallback on_frame);

  // Inserts a media/PPS/SPS packet (FEC-recovered and RTX packets enter here
  // too, already converted to their original form). Only the fields
  // assembly reads are copied out of the packet.
  void Insert(const RtpPacket& packet, Timestamp arrival, PathId path);

  // Frame-buffer instruction: drop all packets belonging to frames of
  // `stream` with frame_id <= `upto` (missing/purged frames, §2.1).
  void PurgeFramesUpTo(int stream_id, int64_t upto);

  // True if the (unwrapped) sequence number is present.
  bool Has(uint32_t ssrc, int64_t unwrapped_seq) const;

  const Stats& stats() const { return stats_; }
  size_t size() const { return live_; }

 private:
  static constexpr int32_t kNone = -1;

  // One buffered packet: a slab slot.
  struct Entry {
    int64_t useq = -1;  // -1: free slot
    int64_t payload_bytes = 0;
    int64_t gop_id = -1;
    Timestamp arrival;
    Timestamp capture_time;
    int32_t ssrc_index = 0;  // into ssrcs_
    int32_t frame = kNone;   // into frames_
    int32_t prev = kNone;    // insertion order (oldest first); free list
    int32_t next = kNone;
    int32_t chain = kNone;   // next live entry in the same ring slot
    int32_t qp = 0;
    PathId path = kInvalidPathId;
    FrameKind frame_kind = FrameKind::kDelta;
    uint8_t spatial_id = 0;
    uint8_t temporal_id = 0;
    bool via_fec = false;
    bool via_rtx = false;
  };

  struct SsrcIndex {
    uint32_t ssrc = 0;
    SeqUnwrapper unwrapper;
    // Per slot (useq & (size - 1)): the newest live entry, chained through
    // Entry::chain.
    std::vector<int32_t> ring;
  };

  // Per (stream, frame) record. It exists while the frame has live entries
  // or is `tracked` (has seen an insert since it was last assembled or
  // purged); only a tracked record holds first/last/destroyed.
  struct Frame {
    int stream_id = 0;
    int64_t frame_id = 0;
    int32_t ssrc_index = 0;  // SSRC of the insert that started tracking
    int32_t present = 0;     // live entries with this (stream, frame)
    int32_t in_range = 0;    // armed: live seqs of the SSRC in [first, last]
    bool tracked = false;
    bool destroyed = false;
    bool armed = false;
    std::optional<int64_t> first_seq;  // unwrapped seq with first_in_frame
    std::optional<int64_t> last_seq;   // unwrapped seq with marker
  };

  struct FrameKeyHash {
    size_t operator()(const std::pair<int, int64_t>& key) const {
      return std::hash<int64_t>()(key.second * 31 + key.first);
    }
  };

  SsrcIndex& IndexFor(uint32_t ssrc);
  int32_t Find(const SsrcIndex& index, int64_t useq) const;
  int32_t TrackFrame(int stream_id, int64_t frame_id, int32_t ssrc_index);
  void Arm(int32_t frame);
  void Disarm(int32_t frame);
  void CountInArmedRanges(int32_t ssrc_index, int64_t useq, int32_t delta);
  void TryAssemble(int32_t frame);
  void EvictOldest();
  void EraseEntry(int32_t e);
  void ReleaseFrameIfUnused(int32_t frame);

  Config config_;
  FrameCallback on_frame_;
  Stats stats_;

  std::vector<Entry> entries_;  // slab, grown on demand to the capacity
  int32_t free_entries_ = kNone;
  int32_t oldest_ = kNone;
  int32_t newest_ = kNone;
  size_t live_ = 0;
  size_t ring_size_ = 0;
  std::vector<SsrcIndex> ssrcs_;

  std::vector<Frame> frames_;
  std::vector<int32_t> free_frames_;
  std::unordered_map<std::pair<int, int64_t>, int32_t, FrameKeyHash>
      frame_index_;
  int32_t last_frame_ = kNone;  // the last inserted packet's frame record
  std::vector<int32_t> armed_;  // frames waiting on missing seqs

  std::vector<int32_t> members_;  // scratch for TryAssemble
};

}  // namespace converge
