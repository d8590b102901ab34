#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "net/link.h"
#include "net/network.h"
#include "net/path.h"

namespace converge {
namespace {

Link::Config BasicConfig(DataRate rate, Duration prop) {
  Link::Config c;
  c.capacity = BandwidthTrace::Constant(rate);
  c.prop_delay = prop;
  return c;
}

TEST(LinkTest, DeliversWithTransmissionPlusPropagation) {
  EventLoop loop;
  Link link(&loop, BasicConfig(DataRate::MegabitsPerSec(8), Duration::Millis(20)),
            Random(1));
  Timestamp arrival;
  // 1000 bytes at 8 Mbps = 1 ms serialization + 20 ms propagation.
  link.Send(1000, [&](Timestamp t) { arrival = t; });
  loop.RunAll();
  EXPECT_EQ(arrival, Timestamp::Millis(21));
  EXPECT_EQ(link.stats().packets_delivered, 1);
}

TEST(LinkTest, BackToBackPacketsQueueBehindEachOther) {
  EventLoop loop;
  Link link(&loop, BasicConfig(DataRate::MegabitsPerSec(8), Duration::Zero()),
            Random(1));
  std::vector<Timestamp> arrivals;
  for (int i = 0; i < 3; ++i) {
    link.Send(1000, [&](Timestamp t) { arrivals.push_back(t); });
  }
  loop.RunAll();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], Timestamp::Millis(1));
  EXPECT_EQ(arrivals[1], Timestamp::Millis(2));
  EXPECT_EQ(arrivals[2], Timestamp::Millis(3));
}

TEST(LinkTest, QueueOverflowDrops) {
  EventLoop loop;
  Link::Config c = BasicConfig(DataRate::KilobitsPerSec(100), Duration::Zero());
  c.min_queue_bytes = 3000;
  c.max_queue_delay = Duration::Zero();  // force the fixed floor
  Link link(&loop, c, Random(1));
  int delivered = 0;
  int dropped = 0;
  for (int i = 0; i < 10; ++i) {
    link.Send(
        1000, [&](Timestamp) { ++delivered; },
        [&](bool queue_drop) {
          EXPECT_TRUE(queue_drop);
          ++dropped;
        });
  }
  loop.RunAll();
  EXPECT_EQ(delivered + dropped, 10);
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(link.stats().packets_queue_dropped, dropped);
}

TEST(LinkTest, RandomLossInvokesDropCallback) {
  EventLoop loop;
  Link::Config c = BasicConfig(DataRate::MegabitsPerSec(100), Duration::Zero());
  c.loss = std::make_shared<BernoulliLoss>(0.5);
  Link link(&loop, c, Random(7));
  int delivered = 0;
  int lost = 0;
  for (int i = 0; i < 2000; ++i) {
    link.Send(
        100, [&](Timestamp) { ++delivered; },
        [&](bool queue_drop) {
          EXPECT_FALSE(queue_drop);
          ++lost;
        });
  }
  loop.RunAll();
  EXPECT_EQ(delivered + lost, 2000);
  EXPECT_NEAR(static_cast<double>(lost) / 2000.0, 0.5, 0.05);
}

TEST(LinkTest, OutageStallsDelivery) {
  EventLoop loop;
  // Capacity collapses to (effectively) zero at t=1s.
  ValueTrace trace({{Timestamp::Seconds(0), 10e6}, {Timestamp::Seconds(1), 0.0}},
                   false);
  Link::Config c;
  c.capacity = BandwidthTrace(ValueTrace(trace));
  c.prop_delay = Duration::Zero();
  Link link(&loop, c, Random(1));

  Timestamp first, second;
  link.Send(1000, [&](Timestamp t) { first = t; });
  loop.RunUntil(Timestamp::Seconds(0.5));
  EXPECT_TRUE(first.IsFinite());

  loop.RunUntil(Timestamp::Seconds(1.5));
  link.Send(1000, [&](Timestamp t) { second = t; });
  loop.RunUntil(Timestamp::Seconds(2.0));
  // 1000 bytes at the 10 kbps floor takes 0.8 s: still in flight at 2.0 s...
  EXPECT_EQ(second, Timestamp::Zero());
  loop.RunUntil(Timestamp::Seconds(3.0));
  EXPECT_GT(second, Timestamp::Seconds(2.2));
}

TEST(GilbertElliottTest, AverageRateMatchesStationaryDistribution) {
  GilbertElliottLoss::Config c;
  c.p_good_to_bad = 0.01;
  c.p_bad_to_good = 0.09;
  c.loss_good = 0.0;
  c.loss_bad = 0.5;
  GilbertElliottLoss model(c);
  // pi_bad = 0.1 -> avg loss = 0.05.
  EXPECT_NEAR(model.AverageRate(Timestamp::Zero()), 0.05, 1e-9);

  Random rng(3);
  int drops = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (model.ShouldDrop(Timestamp::Zero(), rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.05, 0.01);
}

// Sends 200 packets on network `a` (and, when `b_busy`, 200 interleaved
// ones on `b`, both built from `spec`); returns a's per-packet fates.
std::vector<bool> DropPattern(const PathSpec& spec, bool b_busy) {
  EventLoop loop;
  Network a(&loop, {spec}, Random(11));
  Network b(&loop, {spec}, Random(12));
  std::vector<bool> lost(200, false);
  for (size_t i = 0; i < lost.size(); ++i) {
    a.path(0).forward().Send(
        1000, [](Timestamp) {}, [&lost, i](bool) { lost[i] = true; });
    if (b_busy) b.path(0).forward().Send(1000, [](Timestamp) {});
  }
  loop.RunAll();
  return lost;
}

// Every link built from one PathSpec runs its own Gilbert-Elliott burst
// chain, so one link's losses never depend on another link's traffic.
TEST(GilbertElliottTest, LinksFromOnePathSpecKeepTheirOwnBurstState) {
  GilbertElliottLoss::Config c;
  c.p_good_to_bad = 0.05;
  c.p_bad_to_good = 0.2;
  c.loss_good = 0.01;
  c.loss_bad = 0.5;
  PathSpec spec;
  spec.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(100));
  spec.prop_delay = Duration::Millis(5);
  spec.loss = std::make_shared<GilbertElliottLoss>(c);
  const std::vector<bool> alone = DropPattern(spec, /*b_busy=*/false);
  const std::vector<bool> shared = DropPattern(spec, /*b_busy=*/true);
  EXPECT_GT(std::count(alone.begin(), alone.end(), true), 0);
  EXPECT_EQ(alone, shared) << "link A's losses moved with link B's traffic";
}

TEST(PathTest, ForwardAndBackwardAreIndependent) {
  EventLoop loop;
  Path::Config config;
  config.id = 3;
  config.name = "test";
  config.forward = BasicConfig(DataRate::MegabitsPerSec(8), Duration::Millis(10));
  config.backward = BasicConfig(DataRate::MegabitsPerSec(8), Duration::Millis(30));
  Path path(&loop, config, Random(1));
  EXPECT_EQ(path.id(), 3);
  EXPECT_EQ(path.name(), "test");

  Timestamp fwd, bwd;
  path.forward().Send(1000, [&](Timestamp t) { fwd = t; });
  path.backward().Send(1000, [&](Timestamp t) { bwd = t; });
  loop.RunAll();
  EXPECT_EQ(fwd, Timestamp::Millis(11));
  EXPECT_EQ(bwd, Timestamp::Millis(31));
}

TEST(NetworkTest, BuildsPathsFromSpecs) {
  EventLoop loop;
  std::vector<PathSpec> specs(2);
  specs[0].name = "a";
  specs[0].capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(10));
  specs[1].name = "b";
  specs[1].capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(5));
  Network net(&loop, specs, Random(1));
  EXPECT_EQ(net.num_paths(), 2u);
  EXPECT_EQ(net.path(0).name(), "a");
  EXPECT_EQ(net.path(1).name(), "b");
  EXPECT_EQ(net.path_ids(), (std::vector<PathId>{0, 1}));
  EXPECT_EQ(net.path(1).forward().CapacityNow().mbps(), 5.0);
}

}  // namespace
}  // namespace converge
