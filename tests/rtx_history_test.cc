// RtxHistory: seq-indexed ring lookups across the 16-bit wrap, growth only
// while the slot being overwritten is still inside the horizon, a capacity
// that plateaus over a long call, and slot clearing for non-media writes.
#include <gtest/gtest.h>

#include "session/rtx_history.h"

namespace converge {
namespace {

RtpPacket Packet(uint16_t seq, Timestamp sent) {
  RtpPacket p;
  p.seq = seq;
  p.payload_bytes = 1000;
  p.send_time = sent;
  return p;
}

const Duration kHorizon = Duration::Seconds(3);

TEST(RtxHistoryTest, HorizonFollowsLibwebrtcCullingRule) {
  EXPECT_EQ(RtxHistory::Horizon(Duration::Millis(50)), Duration::Seconds(3));
  EXPECT_EQ(RtxHistory::Horizon(Duration::Millis(500)),
            Duration::Millis(4500));
  EXPECT_EQ(RtxHistory::Horizon(Duration::Infinity()), Duration::Seconds(9));
}

TEST(RtxHistoryTest, HitsAndMissesAcrossSequenceWrap) {
  RtxHistory history;
  Timestamp now = Timestamp::Zero();
  uint16_t seq = 65530;
  for (int i = 0; i < 12; ++i, ++seq) {  // 65530..65535, 0..5
    history.Put(seq, Packet(seq, now), kHorizon);
    now += Duration::Millis(1);
  }
  for (uint16_t s : {65530, 65535, 0, 5}) {
    const RtxHistory::Entry* e = history.Find(s);
    ASSERT_NE(e, nullptr) << s;
    EXPECT_EQ(e->packet.seq, s);
  }
  // Never written: the slots they map to hold other seqs.
  EXPECT_EQ(history.Find(6), nullptr);
  EXPECT_EQ(history.Find(65529), nullptr);
  EXPECT_EQ(history.Find(static_cast<uint16_t>(5 + history.capacity())),
            nullptr);
}

TEST(RtxHistoryTest, GrowsOnlyWhileVictimIsInsideHorizon) {
  const size_t initial = RtxHistory::kInitialCapacity;
  RtxHistory history;
  // One full ring of packets sent 1 ms apart: the ring stays at its
  // initial size and every packet answers.
  Timestamp now = Timestamp::Zero();
  for (size_t i = 0; i < initial; ++i) {
    history.Put(static_cast<uint16_t>(i), Packet(0, now), kHorizon);
    now += Duration::Millis(1);
  }
  EXPECT_EQ(history.capacity(), initial);
  // The next write lands on seq 0's slot while seq 0 is still inside the
  // horizon, so the ring doubles rather than drop it.
  history.Put(static_cast<uint16_t>(initial), Packet(0, now), kHorizon);
  EXPECT_EQ(history.capacity(), 2 * initial);
  EXPECT_NE(history.Find(0), nullptr);
  EXPECT_NE(history.Find(static_cast<uint16_t>(initial)), nullptr);

  // Once every stored packet has aged out, writes overwrite in place and
  // the overwritten seqs stop answering.
  now += kHorizon + Duration::Millis(1);
  for (size_t i = initial + 1; i < 8 * initial; ++i) {
    history.Put(static_cast<uint16_t>(i), Packet(0, now), kHorizon);
    // Just over a horizon per 2 * initial writes: each victim has aged out.
    now += kHorizon / static_cast<int64_t>(2 * initial) +
           Duration::Micros(1);
  }
  EXPECT_EQ(history.capacity(), 2 * initial);
  EXPECT_EQ(history.Find(0), nullptr);
  EXPECT_NE(history.Find(static_cast<uint16_t>(8 * initial - 1)), nullptr);
}

TEST(RtxHistoryTest, CapacityPlateausOverTenMinuteStream) {
  // 500 packets/s for 10 minutes: about 1500 packets inside a 3 s horizon,
  // so the ring settles at 2048 slots and stays there through nine wraps.
  RtxHistory history;
  const Duration gap = Duration::Millis(2);
  Timestamp now = Timestamp::Zero();
  uint16_t seq = 0;
  size_t at_ten_seconds = 0;
  for (int64_t i = 0; i < 300'000; ++i, ++seq) {
    history.Put(seq, Packet(seq, now), kHorizon);
    if (now == Timestamp::Seconds(10)) at_ten_seconds = history.capacity();
    now += gap;
  }
  EXPECT_EQ(at_ten_seconds, 2048u);
  EXPECT_EQ(history.capacity(), 2048u);
  // Every packet inside the horizon answers; one a full ring older has had
  // its slot reused.
  const uint16_t newest = static_cast<uint16_t>(seq - 1);
  EXPECT_NE(history.Find(newest), nullptr);
  EXPECT_NE(history.Find(static_cast<uint16_t>(newest - 1500)), nullptr);
  EXPECT_NE(history.Find(static_cast<uint16_t>(newest - 2047)), nullptr);
  EXPECT_EQ(history.Find(static_cast<uint16_t>(newest - 2048)), nullptr);
}

TEST(RtxHistoryTest, NonMediaWriteClearsSlot) {
  RtxHistory history;
  const Timestamp now = Timestamp::Zero();
  history.Put(7, Packet(7, now), kHorizon);
  history.Put(8, Packet(8, now), kHorizon);
  // Clearing another seq that maps to the same slot leaves seq 7 alone.
  history.Clear(static_cast<uint16_t>(7 + history.capacity()));
  EXPECT_NE(history.Find(7), nullptr);
  // A FEC or probe packet taking seq 7 forgets the media stored under it.
  history.Clear(7);
  EXPECT_EQ(history.Find(7), nullptr);
  EXPECT_NE(history.Find(8), nullptr);
  // Clearing an empty history is a no-op.
  RtxHistory empty;
  empty.Clear(3);
  EXPECT_EQ(empty.Find(3), nullptr);
  EXPECT_EQ(empty.capacity(), 0u);
}

}  // namespace
}  // namespace converge
