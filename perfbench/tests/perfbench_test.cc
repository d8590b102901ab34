// Unit tests of the benchmark's own machinery.
#include <gtest/gtest.h>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

Span MakeSpan(SpanKind kind, int32_t parent, int64_t start, int64_t end) {
  Span s;
  s.kind = kind;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

// root [0, 100)
//   send  [10, 20)
//   rtp   [30, 70)
//     send [40, 45)
//     rtcp [50, 60)
//       send [52, 55)
//   fec   [80, 90)
std::vector<Span> SyntheticTree() {
  return {
      MakeSpan(SpanKind::kRunUntil, -1, 0, 100),
      MakeSpan(SpanKind::kLinkSend, 0, 10, 20),
      MakeSpan(SpanKind::kOnRtp, 0, 30, 70),
      MakeSpan(SpanKind::kLinkSend, 2, 40, 45),
      MakeSpan(SpanKind::kOnRtcp, 2, 50, 60),
      MakeSpan(SpanKind::kLinkSend, 4, 52, 55),
      MakeSpan(SpanKind::kNumFec, 0, 80, 90),
  };
}

TEST(SpanArithmeticTest, SelfTimeIsDurationMinusChildren) {
  const std::vector<int64_t> self = SelfTimes(SyntheticTree());
  EXPECT_EQ(self, (std::vector<int64_t>{40, 10, 25, 5, 7, 3, 10}));
}

TEST(SpanArithmeticTest, SelfTimesSumToTheRoot) {
  const KindTotals totals = Aggregate(SyntheticTree());
  int64_t sum = 0;
  for (const SpanTotals& t : totals) sum += t.self_ns;
  EXPECT_EQ(sum, 100);
  const SpanTotals& send = totals[static_cast<size_t>(SpanKind::kLinkSend)];
  EXPECT_EQ(send.count, 3);
  EXPECT_EQ(send.total_ns, 18);
  EXPECT_EQ(send.self_ns, 18);
  EXPECT_EQ(totals[static_cast<size_t>(SpanKind::kRunUntil)].self_ns, 40);
}

// A clock that advances one tick per reading, so every Open/Close of the
// recorder lands on a known timestamp.
int64_t ticks = 0;
int64_t TickClock() { return ticks++; }

TEST(SpanArithmeticTest, RecorderMatchesOfflineArithmetic) {
  ticks = 0;
  SpanRecorder recorder(100, &TickClock);
  SpanRecorder::Install(&recorder);
  {
    ScopedSpan root(SpanKind::kRunUntil);
    { ScopedSpan send(SpanKind::kLinkSend); }
    {
      ScopedSpan rtp(SpanKind::kOnRtp);
      { ScopedSpan send(SpanKind::kLinkSend); }
    }
  }
  SpanRecorder::Install(nullptr);
  ASSERT_TRUE(recorder.balanced());
  ASSERT_EQ(recorder.records().size(), 4u);
  const KindTotals offline = Aggregate(recorder.records());
  for (int k = 0; k < kNumSpanKinds; ++k) {
    EXPECT_EQ(recorder.totals()[static_cast<size_t>(k)].count,
              offline[static_cast<size_t>(k)].count);
    EXPECT_EQ(recorder.totals()[static_cast<size_t>(k)].self_ns,
              offline[static_cast<size_t>(k)].self_ns);
  }
  int64_t sum = 0;
  for (const SpanTotals& t : recorder.totals()) sum += t.self_ns;
  EXPECT_EQ(sum, recorder.totals()[0].total_ns);
  EXPECT_EQ(recorder.roots()[0], 1);
}

TEST(SpanArithmeticTest, RecorderKeepsTotalsPastTheRecordCap) {
  SpanRecorder recorder(1, &TickClock);
  SpanRecorder::Install(&recorder);
  {
    ScopedSpan root(SpanKind::kRunUntil);
    { ScopedSpan send(SpanKind::kLinkSend); }
  }
  SpanRecorder::Install(nullptr);
  EXPECT_EQ(recorder.records().size(), 1u);
  EXPECT_EQ(recorder.dropped_records(), 1);
  EXPECT_EQ(recorder.totals()[static_cast<size_t>(SpanKind::kLinkSend)].count,
            1);
}

// The fleet's simulated results do not depend on how calls are sharded.
TEST(WorkloadTest, MeshFleetDigestIsShardIndependent) {
  Overrides one;
  // Longer than one 10 s memory checkpoint, so the pass is sliced.
  one.call_seconds = 12.0;
  one.shards = 1;
  Overrides two = one;
  two.shards = 2;
  const PassResult a = RunPass(MakeWorkload("mesh_fleet", 7, one));
  const PassResult b = RunPass(MakeWorkload("mesh_fleet", 7, two));
  EXPECT_EQ(a.failed, 0);
  EXPECT_EQ(a.calls, 8);
  EXPECT_NE(a.digest, 0u);
  EXPECT_EQ(a.digest, b.digest);
  // One frame-rate sample per (stream, second): 8 calls x 6 legs x 1 stream
  // x 12 s. The paths are loss-free, so every second renders frames.
  EXPECT_EQ(a.fps_per_second.size(), 576u);
  EXPECT_EQ(b.fps_per_second.size(), 576u);
  EXPECT_GT(a.fps_per_second.Quantile(0.0), 0.0);
  EXPECT_GT(b.fps_per_second.Quantile(0.0), 0.0);
}

TEST(WorkloadTest, SameSeedSameInputsDifferentSeedDifferentResults) {
  Overrides o;
  o.call_seconds = 5.0;
  const PassResult a = RunPass(MakeWorkload("sfu_layers", 3, o));
  const PassResult b = RunPass(MakeWorkload("sfu_layers", 3, o));
  const PassResult c = RunPass(MakeWorkload("sfu_layers", 4, o));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.digest, c.digest);
}

// The traced assembly executes exactly the events the Conference does. At
// this seed and length a paper_mobility call ends inside a loss burst, so
// the assembly would diverge if it reused the untraced pass's inputs.
TEST(WorkloadTest, TracedAssemblyMatchesConferenceCounts) {
  Overrides o;
  o.call_seconds = 5.0;
  for (const std::string& name : WorkloadNames()) {
    const PassResult untraced = RunPass(MakeWorkload(name, 2, o));
    const TracedResult traced = RunTraced(name, 2, o, untraced.call_counts, "");
    EXPECT_TRUE(traced.mismatches.empty()) << name << ": "
                                           << traced.mismatches.front();
    EXPECT_EQ(traced.invariant_violations, 0) << name;
    EXPECT_EQ(traced.failed_calls, 0) << name;
  }
}

}  // namespace
}  // namespace perfbench
