#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "receiver/packet_buffer.h"
#include "util/random.h"

namespace converge {
namespace {

RtpPacket MakePacket(uint16_t seq, int64_t frame_id, bool first, bool last,
                     int stream = 0) {
  RtpPacket p;
  p.ssrc = 0x1000;
  p.seq = seq;
  p.stream_id = stream;
  p.frame_id = frame_id;
  p.gop_id = 0;
  p.kind = PayloadKind::kMedia;
  p.payload_bytes = 1000;
  p.first_in_frame = first;
  p.last_in_frame = last;
  p.marker = last;
  return p;
}

// The tree-based packet buffer the flat one replaced, kept as the reference
// for the differential test below: entries in a (ssrc, unwrapped seq) map,
// frame progress in a (stream, frame) map, a [first, last] re-walk on every
// arrival and a full scan for the oldest entry. One change: a frame whose
// first seq lies past its last seq is left unassembled (the original read
// the first member of an empty range there).
class MapPacketBuffer {
 public:
  MapPacketBuffer(size_t capacity, PacketBuffer::FrameCallback on_frame)
      : capacity_(capacity), on_frame_(std::move(on_frame)) {}

  void Insert(const RtpPacket& packet, Timestamp arrival, PathId path) {
    const int64_t useq = unwrappers_[packet.ssrc].Unwrap(packet.seq);
    const auto key = std::make_pair(packet.ssrc, useq);
    if (entries_.count(key)) {
      ++stats_.duplicates;
      return;
    }
    while (entries_.size() >= capacity_) EvictOldest();
    ++stats_.inserted;
    entries_.emplace(key, Entry{packet, arrival, path, next_insert_order_++});
    FrameProgress& progress =
        frames_[std::make_pair(packet.stream_id, packet.frame_id)];
    if (packet.first_in_frame) progress.first_seq = useq;
    if (packet.marker || packet.last_in_frame) progress.last_seq = useq;
    TryAssemble(packet.ssrc, packet.stream_id, packet.frame_id);
  }

  void PurgeFramesUpTo(int stream_id, int64_t upto) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      const RtpPacket& p = it->second.packet;
      if (p.stream_id == stream_id && p.frame_id <= upto) {
        it = entries_.erase(it);
        ++stats_.purged;
      } else {
        ++it;
      }
    }
    for (auto it = frames_.begin(); it != frames_.end();) {
      if (it->first.first == stream_id && it->first.second <= upto) {
        it = frames_.erase(it);
      } else {
        ++it;
      }
    }
  }

  bool Has(uint32_t ssrc, int64_t useq) const {
    return entries_.count(std::make_pair(ssrc, useq)) > 0;
  }
  const PacketBuffer::Stats& stats() const { return stats_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    RtpPacket packet;
    Timestamp arrival;
    PathId path;
    int64_t insert_order;
  };
  struct FrameProgress {
    std::optional<int64_t> first_seq;
    std::optional<int64_t> last_seq;
    bool destroyed = false;
  };

  void TryAssemble(uint32_t ssrc, int stream_id, int64_t frame_id) {
    auto fit = frames_.find(std::make_pair(stream_id, frame_id));
    if (fit == frames_.end()) return;
    FrameProgress& progress = fit->second;
    if (!progress.first_seq || !progress.last_seq || progress.destroyed) {
      return;
    }
    if (*progress.first_seq > *progress.last_seq) return;
    std::vector<const Entry*> members;
    for (int64_t s = *progress.first_seq; s <= *progress.last_seq; ++s) {
      auto it = entries_.find(std::make_pair(ssrc, s));
      if (it == entries_.end()) return;
      members.push_back(&it->second);
    }
    GatheredFrame gathered;
    AssembledFrame& frame = gathered.frame;
    const RtpPacket& sample = members.front()->packet;
    frame.stream_id = stream_id;
    frame.frame_id = frame_id;
    frame.gop_id = sample.gop_id;
    frame.kind = sample.frame_kind;
    frame.qp = sample.qp;
    frame.capture_time = sample.capture_time;
    frame.spatial_id = sample.spatial_id;
    frame.temporal_id = sample.temporal_id;
    frame.packets = static_cast<int>(members.size());
    Timestamp first_arrival = Timestamp::PlusInfinity();
    Timestamp last_arrival = Timestamp::MinusInfinity();
    int64_t s = *progress.first_seq;
    for (const Entry* entry : members) {
      first_arrival = std::min(first_arrival, entry->arrival);
      last_arrival = std::max(last_arrival, entry->arrival);
      frame.size_bytes += entry->packet.payload_bytes;
      if (entry->packet.via_fec) ++frame.recovered_by_fec;
      if (entry->packet.via_rtx) ++frame.recovered_by_rtx;
      gathered.arrivals.push_back(
          PacketArrivalInfo{entry->path, entry->arrival, s++});
    }
    frame.first_packet_time = first_arrival;
    frame.complete_time = last_arrival;
    frame.fcd = last_arrival - first_arrival;
    for (s = *progress.first_seq; s <= *progress.last_seq; ++s) {
      entries_.erase(std::make_pair(ssrc, s));
    }
    frames_.erase(fit);
    ++stats_.frames_assembled;
    on_frame_(std::move(gathered));
  }

  void EvictOldest() {
    if (entries_.empty()) return;
    auto oldest = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.insert_order < oldest->second.insert_order) oldest = it;
    }
    const RtpPacket& victim = oldest->second.packet;
    auto fit = frames_.find(std::make_pair(victim.stream_id, victim.frame_id));
    if (fit != frames_.end() && !fit->second.destroyed) {
      fit->second.destroyed = true;
      ++stats_.frames_destroyed;
    }
    entries_.erase(oldest);
    ++stats_.evicted;
  }

  size_t capacity_;
  PacketBuffer::FrameCallback on_frame_;
  PacketBuffer::Stats stats_;
  int64_t next_insert_order_ = 0;
  std::map<std::pair<uint32_t, int64_t>, Entry> entries_;
  std::map<uint32_t, SeqUnwrapper> unwrappers_;
  std::map<std::pair<int, int64_t>, FrameProgress> frames_;
};

std::string Describe(const GatheredFrame& g) {
  const AssembledFrame& f = g.frame;
  std::string out =
      std::to_string(f.stream_id) + "/" + std::to_string(f.frame_id) +
      " gop=" + std::to_string(f.gop_id) +
      " kind=" + std::to_string(static_cast<int>(f.kind)) +
      " bytes=" + std::to_string(f.size_bytes) + " qp=" + std::to_string(f.qp) +
      " cap=" + std::to_string(f.capture_time.us()) +
      " first=" + std::to_string(f.first_packet_time.us()) +
      " done=" + std::to_string(f.complete_time.us()) +
      " fcd=" + std::to_string(f.fcd.us()) +
      " pkts=" + std::to_string(f.packets) +
      " fec=" + std::to_string(f.recovered_by_fec) +
      " rtx=" + std::to_string(f.recovered_by_rtx) +
      " layer=" + std::to_string(f.spatial_id) + "." +
      std::to_string(f.temporal_id) + " arrivals:";
  for (const PacketArrivalInfo& a : g.arrivals) {
    out += " " + std::to_string(a.path_id) + "@" +
           std::to_string(a.arrival.us()) + "#" + std::to_string(a.seq);
  }
  return out;
}

std::string Describe(const PacketBuffer::Stats& s) {
  return std::to_string(s.inserted) + " " + std::to_string(s.duplicates) +
         " " + std::to_string(s.evicted) + " " + std::to_string(s.purged) +
         " " + std::to_string(s.frames_assembled) + " " +
         std::to_string(s.frames_destroyed);
}

struct Arrival {
  Timestamp at;
  int64_t order = 0;  // tie-break: send order
  RtpPacket packet;
  PathId path = 0;
};

// One randomised receive trace: one or two SSRCs (each its own stream),
// frames of 1-12 packets, sometimes as 2-3 simulcast rungs sharing a
// frame_id, starting just before a 16-bit wrap. Each packet rides one of two
// paths with different delays and jitter; it may be lost (then possibly
// retransmitted, rebuilt by FEC later, or replaced by a stale rebuild of
// an old frame's packet with the same 16-bit seq), duplicated at once, or
// delivered again long after its frame completed (a straggler).
std::vector<Arrival> MakeTrace(Random& rng, int streams, int frames) {
  std::vector<Arrival> out;
  int64_t order = 0;
  for (int stream = 0; stream < streams; ++stream) {
    const uint32_t ssrc = 0x1000 + 0x100 * static_cast<uint32_t>(stream);
    uint16_t seq = static_cast<uint16_t>(65536 - rng.UniformInt(1, 3000));
    const int64_t path1_extra_us = rng.UniformInt(0, 60000);
    const double loss = rng.Uniform(0.0, 0.15);
    for (int f = 0; f < frames; ++f) {
      const Timestamp capture = Timestamp::Micros(f * 33333);
      const int rungs = rng.Bernoulli(0.2) ? static_cast<int>(rng.UniformInt(2, 3)) : 1;
      const bool key = f % 60 == 0;
      for (int r = 0; r < rungs; ++r) {
        const int n = static_cast<int>(rng.UniformInt(1, 12));
        for (int i = 0; i < n; ++i) {
          RtpPacket p;
          p.ssrc = ssrc;
          p.seq = seq++;
          p.stream_id = stream;
          p.frame_id = f;
          p.gop_id = f / 60;
          p.frame_kind = key ? FrameKind::kKey : FrameKind::kDelta;
          p.qp = 20 + static_cast<int>(rng.UniformInt(0, 20));
          p.payload_bytes = rng.UniformInt(100, 1200);
          p.capture_time = capture;
          p.spatial_id = static_cast<uint8_t>(r);
          p.num_spatial = static_cast<uint8_t>(rungs);
          p.temporal_id = static_cast<uint8_t>(f % 2);
          p.first_in_frame = i == 0;
          p.last_in_frame = i == n - 1;
          p.marker = i == n - 1;
          const PathId path = rng.Bernoulli(0.5) ? 1 : 0;
          const int64_t base = capture.us() + 20000 +
                               (path == 1 ? path1_extra_us : 0) +
                               rng.UniformInt(0, 8000);
          if (rng.Bernoulli(loss)) {
            if (rng.Bernoulli(0.5)) {  // RTX after a NACK round trip
              RtpPacket rtx = p;
              rtx.via_rtx = true;
              out.push_back({Timestamp::Micros(base + rng.UniformInt(40000, 250000)),
                             order++, rtx, rng.Bernoulli(0.5) ? 1 : 0});
            } else if (rng.Bernoulli(0.5)) {  // FEC rebuild on a later arrival
              RtpPacket rebuilt = p;
              rebuilt.via_fec = true;
              out.push_back({Timestamp::Micros(base + rng.UniformInt(0, 30000)),
                             order++, rebuilt, path});
            } else if (rng.Bernoulli(0.3)) {
              // A parity window that went stale on an idle path: it rebuilds
              // a packet of a frame sent wraps ago whose 16-bit seq equals
              // the lost one, so it lands in this frame's range.
              RtpPacket alias = p;
              alias.frame_id = std::max<int64_t>(0, f - rng.UniformInt(50, 500));
              alias.first_in_frame = rng.Bernoulli(0.2);
              alias.last_in_frame = alias.marker = rng.Bernoulli(0.2);
              alias.via_fec = true;
              out.push_back({Timestamp::Micros(base + rng.UniformInt(0, 30000)),
                             order++, alias, path});
            }
            continue;
          }
          out.push_back({Timestamp::Micros(base), order++, p, path});
          if (rng.Bernoulli(0.03)) {  // duplicate close behind
            out.push_back({Timestamp::Micros(base + rng.UniformInt(0, 5000)),
                           order++, p, 1 - path});
          }
          if (rng.Bernoulli(0.01)) {  // straggler, seconds later
            out.push_back(
                {Timestamp::Micros(base + rng.UniformInt(500000, 8000000)),
                 order++, p, path});
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.at != b.at ? a.at < b.at : a.order < b.order;
  });
  return out;
}

// The flat buffer must reproduce the map reference exactly: every gathered
// frame (all fields and arrivals, in order), every stats field and size()
// after every call, over interleaved two-path arrivals with loss, duplicates,
// RTX and FEC re-insertion, stale rebuilds inside another frame's range,
// simulcast rungs, stragglers, eviction at capacity, frame-buffer purges and
// a 16-bit wrap.
TEST(PacketBufferDifferentialTest, FlatBufferMatchesMapReference) {
  Random rng(16);
  int64_t total_frames = 0;
  int64_t total_evicted = 0;
  int64_t total_purged = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const size_t capacities[] = {16, 48, 100, 512};
    const size_t capacity = capacities[trial % 4];
    const int streams = trial % 3 == 2 ? 2 : 1;
    std::vector<std::string> flat_out;
    std::vector<std::string> ref_out;
    PacketBuffer flat({.capacity_packets = capacity},
                      [&](GatheredFrame&& g) { flat_out.push_back(Describe(g)); });
    MapPacketBuffer ref(capacity, [&](GatheredFrame&& g) {
      ref_out.push_back(Describe(g));
    });
    const std::vector<Arrival> trace = MakeTrace(rng, streams, 600);
    int64_t next_purge_frame = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
      const Arrival& a = trace[i];
      flat.Insert(a.packet, a.at, a.path);
      ref.Insert(a.packet, a.at, a.path);
      if (rng.Bernoulli(0.004)) {
        // A frame-buffer jump: purge up to a frame near the newest capture.
        const int stream = static_cast<int>(rng.UniformInt(0, streams - 1));
        next_purge_frame = std::max<int64_t>(
            next_purge_frame, a.packet.frame_id - rng.UniformInt(-2, 6));
        flat.PurgeFramesUpTo(stream, next_purge_frame);
        ref.PurgeFramesUpTo(stream, next_purge_frame);
      }
      ASSERT_EQ(flat_out, ref_out) << "trial " << trial << " arrival " << i;
      ASSERT_EQ(Describe(flat.stats()), Describe(ref.stats()))
          << "trial " << trial << " arrival " << i;
      ASSERT_EQ(flat.size(), ref.size()) << "trial " << trial;
      ASSERT_LE(flat.size(), capacity);
    }
    for (int64_t useq = 60000; useq < 80000; useq += 7) {
      ASSERT_EQ(flat.Has(0x1000, useq), ref.Has(0x1000, useq)) << useq;
    }
    total_frames += flat.stats().frames_assembled;
    total_evicted += flat.stats().evicted;
    total_purged += flat.stats().purged;
  }
  // The traces did reach every path: assembly, eviction and purges.
  EXPECT_GT(total_frames, 10000);
  EXPECT_GT(total_evicted, 1000);
  EXPECT_GT(total_purged, 100);
}

class PacketBufferTest : public testing::Test {
 protected:
  PacketBufferTest()
      : buffer_({.capacity_packets = 16},
                [this](GatheredFrame&& f) { frames_.push_back(std::move(f)); }) {}

  PacketBuffer buffer_;
  std::vector<GatheredFrame> frames_;
};

TEST_F(PacketBufferTest, AssemblesCompleteFrameInOrder) {
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(10), 0);
  buffer_.Insert(MakePacket(1, 0, false, false), Timestamp::Millis(12), 0);
  EXPECT_TRUE(frames_.empty());
  buffer_.Insert(MakePacket(2, 0, false, true), Timestamp::Millis(15), 1);
  ASSERT_EQ(frames_.size(), 1u);
  const AssembledFrame& f = frames_[0].frame;
  EXPECT_EQ(f.frame_id, 0);
  EXPECT_EQ(f.packets, 3);
  EXPECT_EQ(f.size_bytes, 3000);
  EXPECT_EQ(f.first_packet_time, Timestamp::Millis(10));
  EXPECT_EQ(f.complete_time, Timestamp::Millis(15));
  EXPECT_EQ(f.fcd, Duration::Millis(5));
  ASSERT_EQ(frames_[0].arrivals.size(), 3u);
  EXPECT_EQ(frames_[0].arrivals[2].path_id, 1);
}

TEST_F(PacketBufferTest, AssemblesOutOfOrderArrival) {
  buffer_.Insert(MakePacket(2, 0, false, true), Timestamp::Millis(15), 0);
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(16), 0);
  buffer_.Insert(MakePacket(1, 0, false, false), Timestamp::Millis(17), 0);
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].frame.fcd, Duration::Millis(2));
}

TEST_F(PacketBufferTest, DuplicatesIgnored) {
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(1), 0);
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(2), 1);
  EXPECT_EQ(buffer_.stats().duplicates, 1);
  EXPECT_EQ(buffer_.stats().inserted, 1);
}

TEST_F(PacketBufferTest, MissingMiddlePacketBlocksAssembly) {
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(1), 0);
  buffer_.Insert(MakePacket(2, 0, false, true), Timestamp::Millis(2), 0);
  EXPECT_TRUE(frames_.empty());
  buffer_.Insert(MakePacket(1, 0, false, false), Timestamp::Millis(9), 0);
  EXPECT_EQ(frames_.size(), 1u);
}

TEST_F(PacketBufferTest, OverflowEvictsOldestAndDestroysFrame) {
  // Frame 0 incomplete (missing seq 1), then flood with later frames.
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(1), 0);
  uint16_t seq = 2;
  for (int frame = 1; frame <= 10; ++frame) {
    buffer_.Insert(MakePacket(seq, frame, true, false), Timestamp::Millis(frame), 0);
    buffer_.Insert(MakePacket(seq + 1, frame, false, false),
                   Timestamp::Millis(frame), 0);
    // Leave each frame incomplete so the buffer fills up.
    seq += 3;
  }
  EXPECT_GT(buffer_.stats().evicted, 0);
  EXPECT_GT(buffer_.stats().frames_destroyed, 0);
  EXPECT_LE(buffer_.size(), 16u);
}

TEST_F(PacketBufferTest, PurgeDropsFramesUpToId) {
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(1), 0);
  buffer_.Insert(MakePacket(3, 1, true, false), Timestamp::Millis(2), 0);
  buffer_.Insert(MakePacket(6, 2, true, false), Timestamp::Millis(3), 0);
  buffer_.PurgeFramesUpTo(0, 1);
  EXPECT_EQ(buffer_.stats().purged, 2);
  EXPECT_EQ(buffer_.size(), 1u);
  // Frame 2 can still complete.
  buffer_.Insert(MakePacket(7, 2, false, true), Timestamp::Millis(4), 0);
  EXPECT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].frame.frame_id, 2);
}

TEST_F(PacketBufferTest, PurgedFrameCannotAssembleLater) {
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(1), 0);
  buffer_.PurgeFramesUpTo(0, 0);
  buffer_.Insert(MakePacket(1, 0, false, true), Timestamp::Millis(2), 0);
  EXPECT_TRUE(frames_.empty());
}

TEST_F(PacketBufferTest, TracksRecoveredPackets) {
  RtpPacket fec_recovered = MakePacket(1, 0, false, true);
  fec_recovered.via_fec = true;
  RtpPacket rtx = MakePacket(0, 0, true, false);
  rtx.via_rtx = true;
  buffer_.Insert(rtx, Timestamp::Millis(1), 0);
  buffer_.Insert(fec_recovered, Timestamp::Millis(2), 0);
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].frame.recovered_by_fec, 1);
  EXPECT_EQ(frames_[0].frame.recovered_by_rtx, 1);
}

TEST_F(PacketBufferTest, SingleShotFrame) {
  RtpPacket p = MakePacket(0, 0, true, true);
  buffer_.Insert(p, Timestamp::Millis(3), 2);
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].frame.fcd, Duration::Zero());
}

TEST_F(PacketBufferTest, MultipleStreamsSeparateFrames) {
  RtpPacket a = MakePacket(0, 0, true, true, /*stream=*/0);
  RtpPacket b = MakePacket(0, 0, true, true, /*stream=*/1);
  b.ssrc = 0x2000;
  buffer_.Insert(a, Timestamp::Millis(1), 0);
  buffer_.Insert(b, Timestamp::Millis(2), 0);
  EXPECT_EQ(frames_.size(), 2u);
}

}  // namespace
}  // namespace converge
