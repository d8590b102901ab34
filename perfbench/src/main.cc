// Benchmark entry point: runs one workload and prints its metrics.
//
//   perfbench --workload <paper_mobility|mesh_fleet|sfu_layers>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// --trace 0 prints the end-to-end metrics: set-up and simulate host times
// from repeated untraced passes (until --seconds is used up), and the QoE
// distributions of the first pass. --trace 1 prints the per-layer metrics:
// exact counters from an untraced pass, host times from the traced
// assembly. Both end with one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Least-squares slope of y over x.
double Slope(const std::vector<std::pair<double, double>>& xy) {
  if (xy.size() < 2) return 0.0;
  double sx = 0.0, sy = 0.0;
  for (const auto& [x, y] : xy) {
    sx += x;
    sy += y;
  }
  const double n = static_cast<double>(xy.size());
  const double mx = sx / n, my = sy / n;
  double sxy = 0.0, sxx = 0.0;
  for (const auto& [x, y] : xy) {
    sxy += (x - mx) * (y - my);
    sxx += (x - mx) * (x - mx);
  }
  return Ratio(sxy, sxx);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("  %-44s %.6g %s\n", name.c_str(), value, unit.c_str());
  }

  // The result line: exactly the keys correct / attempted / failed /
  // metrics.
  void PrintJson(bool correct, int attempted, int failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::vector<Metric> metrics_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args->workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return false;
  }
  return args->trace == 0 || args->trace == 1;
}

void PrintErrors(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) std::printf("  FAILED %s\n", e.c_str());
}

// Set-up is sub-millisecond to milliseconds, so it is repeated (at least
// kMinSetupReps times, then until kSetupBudgetS is spent or kMaxSetupReps
// ran) and reported as the median.
constexpr size_t kMinSetupReps = 5;
constexpr size_t kMaxSetupReps = 1001;
constexpr double kSetupBudgetS = 0.5;

std::vector<SetupSample> SetupReps(const Args& args) {
  std::vector<SetupSample> out;
  const double t0 = Now();
  while (out.size() < kMinSetupReps ||
         (out.size() < kMaxSetupReps && Now() - t0 < kSetupBudgetS)) {
    out.push_back(MeasureSetup(args.workload, args.seed, Overrides{}));
  }
  return out;
}

int RunEndToEnd(const Args& args) {
  // The set-up repetitions run last, on a warmed-up process; their budget
  // is held back from the timed passes.
  const double deadline = Now() + args.seconds - kSetupBudgetS;
  auto inputs = [&] {
    return MakeWorkload(args.workload, args.seed, Overrides{});
  };
  const bool timed_by_fleet = inputs().fleet;
  const double first_t0 = Now();
  const PassResult first = RunPass(inputs());
  const double first_pass_s = Now() - first_t0;
  bool correct = first.failed == 0;
  std::vector<std::string> errors = first.errors;

  // Host-time samples of the simulate phase: RunFleet passes for the fleet
  // workload, repeated Conference passes otherwise. Repeats must reproduce
  // the first pass exactly. Every run times at least two passes, so runs
  // share one structure; another starts while at least half of one fits
  // before the deadline, so a run measures about --seconds.
  std::vector<double> speed;
  double last_pass_s = 0.0;
  int passes = 0;
  do {
    const double t0 = Now();
    if (timed_by_fleet) {
      converge::FleetResult fleet;
      try {
        fleet = RunFleetPass(inputs());
      } catch (const std::exception& e) {
        correct = false;
        errors.push_back(std::string("RunFleet threw: ") + e.what());
        break;
      }
      speed.push_back(Ratio(fleet.sim_seconds, fleet.wall_seconds));
      if (fleet.calls.size() != first.summaries.size()) {
        correct = false;
        errors.push_back("RunFleet ran a different number of calls");
      }
      for (size_t i = 0;
           i < std::min(fleet.calls.size(), first.summaries.size()); ++i) {
        const auto& a = fleet.calls[i];
        const auto& b = first.summaries[i];
        if (a.media_packets_sent != b.media_packets_sent ||
            a.frames_encoded != b.frames_encoded ||
            a.frame_drops != b.frame_drops ||
            a.keyframe_requests != b.keyframe_requests ||
            a.avg_fps != b.avg_fps) {
          correct = false;
          errors.push_back("RunFleet call " + std::to_string(i) +
                           " differs from the sliced pass");
        }
      }
    } else if (passes == 0) {
      speed.push_back(Ratio(first.sim_seconds, first.simulate_s));
      last_pass_s = first_pass_s;
      ++passes;
      continue;
    } else {
      const PassResult again = RunPass(inputs());
      speed.push_back(Ratio(again.sim_seconds, again.simulate_s));
      if (again.digest != first.digest) {
        correct = false;
        errors.push_back("repeat pass digest differs");
      }
    }
    ++passes;
    last_pass_s = Now() - t0;
  } while (passes < 2 || Now() + 0.5 * last_pass_s < deadline);

  std::vector<double> setup;
  for (const SetupSample& s : SetupReps(args)) setup.push_back(s.setup_s);

  std::printf("workload %s seed %" PRIu64 " (%d calls, %d timed passes)\n",
              args.workload.c_str(), args.seed, first.calls, passes);
  std::printf("  digest %016" PRIx64 "\n", first.digest);
  std::printf("  set-up repetitions %zu, fastest %.6g s\n", setup.size(),
              *std::min_element(setup.begin(), setup.end()));
  std::printf("  e2e samples %zu, fps samples %zu\n", first.e2e_ms.size(),
              first.fps_per_second.size());
  std::printf("  calls_failed %d / %d\n", first.failed, first.calls);
  PrintErrors(errors);
  Report report;
  report.Add("sim_per_wall", Median(speed), "x");
  report.Add("setup_s", Median(setup), "s");
  report.Add("peak_rss_mib", PeakRssMib(), "MiB");
  const double streams = static_cast<double>(first.streams);
  report.Add("fps_mean", Ratio(first.fps_sum, streams), "fps");
  report.Add("fps_p05", first.fps_per_second.Quantile(0.05), "fps");
  // The frozen share itself is 0 on loss-free workloads; the reported
  // metric is its complement, which never is.
  const double freeze_ratio = Ratio(first.frozen_ms, first.active_ms);
  report.Add("unfrozen_ratio", 1.0 - freeze_ratio, "ratio");
  report.Add("e2e_ms_p50", first.e2e_ms.Quantile(0.50), "ms");
  report.Add("e2e_ms_p99", first.e2e_ms.Quantile(0.99), "ms");
  report.Add("goodput_mbps", Ratio(first.goodput_sum, streams), "Mbps");
  report.Add("psnr_db", Ratio(first.psnr_sum, streams), "dB");
  std::printf("  %-44s %.6g %s\n", "freeze_ratio", freeze_ratio, "ratio");
  std::printf("  %-44s %.6g %s\n", "calls_failed",
              Ratio(first.failed, first.calls), "ratio");
  report.PrintJson(correct, first.calls, first.failed);
  return 0;
}

double PerCallNs(const SpanTotals& t) {
  return Ratio(static_cast<double>(t.self_ns), static_cast<double>(t.count));
}

int RunTracedLayers(const Args& args) {
  std::vector<double> build_ms;
  for (const SetupSample& s : SetupReps(args)) build_ms.push_back(s.build_ms);
  const PassResult untraced =
      RunPass(MakeWorkload(args.workload, args.seed, Overrides{}));
  const TracedResult traced =
      RunTraced(args.workload, args.seed, Overrides{},
                untraced.call_counts, args.spans_out);

  LayerCounts c;
  for (const LayerCounts& call : untraced.call_counts) c.Add(call);
  const double sim_s = untraced.sim_seconds;
  const KindTotals& t = traced.totals;
  auto kind = [&](SpanKind k) -> const SpanTotals& {
    return t[static_cast<size_t>(k)];
  };
  int64_t self_sum = 0;
  for (const SpanTotals& k : t) self_sum += k.self_ns;
  const int64_t root_ns =
      kind(SpanKind::kRunUntil).total_ns + kind(SpanKind::kStart).total_ns;
  const bool self_ok =
      traced.balanced && traced.stray_roots == 0 && self_sum == root_ns;

  std::printf("workload %s seed %" PRIu64 " traced (%d calls)\n",
              args.workload.c_str(), args.seed, untraced.calls);
  std::printf("  digest %016" PRIx64 "\n", untraced.digest);
  int64_t span_count = 0;
  for (const SpanTotals& k : t) span_count += k.count;
  std::printf("  spans recorded %" PRId64 " (kept %" PRId64 ")\n", span_count,
              traced.span_records);
  for (int k = 0; k < kNumSpanKinds; ++k) {
    const SpanTotals& s = t[static_cast<size_t>(k)];
    std::printf("  span %-34s count %10" PRId64 "  total %9.1f ms  self %9.1f ms\n",
                SpanName(static_cast<SpanKind>(k)), s.count, s.total_ns / 1e6,
                s.self_ns / 1e6);
  }
  std::printf("  self times sum to the root span: %s (%" PRId64
              " ns vs %" PRId64 " ns, %" PRId64 " spans outside a root)\n",
              self_ok ? "yes" : "NO", self_sum, root_ns, traced.stray_roots);
  std::printf("  invariant violations: %" PRId64 "\n",
              traced.invariant_violations);
  if (traced.mismatches.empty()) {
    std::printf("  traced counts equal the untraced run's\n");
  }
  for (const std::string& m : traced.mismatches) {
    std::printf("  COUNT MISMATCH %s\n", m.c_str());
  }
  PrintErrors(untraced.errors);
  PrintErrors(traced.errors);

  Report r;
  r.Add("sim.events_per_sim_s", Ratio(c.events, sim_s), "1/s");
  r.Add("sim.loop_residual_ms_per_sim_s",
        Ratio(kind(SpanKind::kRunUntil).self_ns / 1e6, sim_s), "ms/s");
  r.Add("net.link_pkts_per_sim_s", Ratio(c.link_sent, sim_s), "1/s");
  r.Add("net.loss_ratio", Ratio(c.link_lost, c.link_sent), "ratio");
  r.Add("net.queue_drop_ratio", Ratio(c.link_queue_dropped, c.link_sent),
        "ratio");
  r.Add("net.send_ns", PerCallNs(kind(SpanKind::kLinkSend)), "ns");
  r.Add("session.sender.media_pkts_per_sim_s", Ratio(c.media_pkts, sim_s),
        "1/s");
  r.Add("session.sender.fec_pkts_per_sim_s", Ratio(c.fec_pkts, sim_s), "1/s");
  r.Add("session.sender.rtx_pkts_per_sim_s", Ratio(c.rtx_pkts, sim_s), "1/s");
  r.Add("session.sender.probe_pkts_per_sim_s", Ratio(c.probe_pkts, sim_s),
        "1/s");
  r.Add("session.sender.frames_per_sim_s", Ratio(c.frames_encoded, sim_s),
        "1/s");
  r.Add("session.sender.handle_rtcp_ns",
        PerCallNs(kind(SpanKind::kHandleRtcp)), "ns");
  r.Add("core.assign_frame_calls_per_sim_s",
        Ratio(kind(SpanKind::kAssignFrame).count, sim_s), "1/s");
  r.Add("core.assign_frame_ns", PerCallNs(kind(SpanKind::kAssignFrame)), "ns");
  r.Add("fec.overhead", Ratio(c.fec_bytes, c.media_bytes), "ratio");
  r.Add("fec.utilization", Ratio(c.fec_used, c.fec_received), "ratio");
  r.Add("fec.recovered_per_sim_s", Ratio(c.fec_recovered, sim_s), "1/s");
  r.Add("fec.num_fec_ns", PerCallNs(kind(SpanKind::kNumFec)), "ns");
  r.Add("receiver.on_rtp_ns", PerCallNs(kind(SpanKind::kOnRtp)), "ns");
  r.Add("receiver.on_rtcp_ns", PerCallNs(kind(SpanKind::kOnRtcp)), "ns");
  r.Add("receiver.nack_hit_ratio", Ratio(c.nack_recovered, c.nacks_sent),
        "ratio");
  r.Add("receiver.nack_abandoned", c.nack_abandoned, "count");
  r.Add("receiver.pb_evicted", c.pb_evicted, "count");
  r.Add("receiver.frames_dropped", c.frames_dropped, "count");
  r.Add("receiver.keyframe_requests", c.keyframe_requests, "count");
  r.Add("session.hub.media_ns", PerCallNs(kind(SpanKind::kHubMedia)), "ns");
  r.Add("session.hub.rtcp_ns", PerCallNs(kind(SpanKind::kHubRtcp)), "ns");
  r.Add("session.hub.forwarded_per_sim_s", Ratio(c.hub_forwarded, sim_s),
        "1/s");
  r.Add("session.hub.filtered_share",
        Ratio(c.hub_filtered, kind(SpanKind::kHubMedia).count), "ratio");
  r.Add("session.hub.frames_thinned", c.hub_thinned, "count");
  r.Add("session.hub.frames_evicted", c.hub_evicted, "count");
  r.Add("session.hub.rtx_answered", c.hub_rtx_answered, "count");
  r.Add("session.hub.plis_relayed", c.hub_plis, "count");
  r.Add("session.hub.layer_switches", c.hub_layer_switches, "count");
  r.Add("session.hub.padding_per_sim_s", Ratio(c.hub_padding, sim_s), "1/s");
  r.Add("session.hub.max_queue_delay_ms", c.hub_max_queue_delay_us / 1e3,
        "ms");
  r.Add("session.conference.build_ms", Median(build_ms), "ms");
  r.Add("mem.rss_slope_mib_per_min", Slope(untraced.rss_trajectory),
        "MiB/min");
  r.Add("trace_overhead", Ratio(traced.spans_on_s, traced.spans_off_s),
        "ratio");
  r.Add("trace.count_mismatches", static_cast<double>(traced.mismatches.size()),
        "count");

  const int failed = std::max(untraced.failed, traced.failed_calls);
  const bool correct = failed == 0 && self_ok &&
                       traced.invariant_violations == 0 &&
                       traced.errors.empty();
  r.PrintJson(correct, untraced.calls, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <path>]\n");
    return 2;
  }
  return args.trace == 0 ? perfbench::RunEndToEnd(args)
                         : perfbench::RunTracedLayers(args);
}
