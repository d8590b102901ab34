// The benchmark's three workloads and the passes that run them.
//
//   paper_mobility  2-party Converge calls over the stationary, walking and
//                   driving scenario networks with their fault plans, 1 and
//                   3 camera streams; one call after another on one thread.
//   mesh_fleet      concurrent 3-party mesh calls on the bench_fleet
//                   template, dealt over 2 shards and interleaved in 250 ms
//                   quanta; timed through RunFleet.
//   sfu_layers      one 8-party single-hub star with a 3-rung simulcast
//                   ladder, tiered downlinks, lossy uplinks, and one
//                   participant leaving at 40% of the call and rejoining at
//                   50%; one thread.
//
// Every input is generated from the workload seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "session/conference.h"
#include "sim/fleet.h"
#include "spans.h"
#include "util/stats.h"

namespace perfbench {

struct Overrides {
  double call_seconds = 0.0;  // > 0 shortens every call (tests)
  int shards = 0;             // > 0 replaces the workload's shard count
};

struct WorkloadInputs {
  std::vector<converge::ConferenceConfig> calls;
  // Threads the calls are dealt over, round-robin.
  int shards = 1;
  // true: a shard advances all its calls together, one quantum at a time
  // (the schedule RunFleet uses), and the simulate phase is timed through
  // RunFleet; false: one call after another, timed per Conference pass.
  bool fleet = false;
};

const std::vector<std::string>& WorkloadNames();
// Inputs are single-use: a PathSpec's loss model is a shared, stateful
// object (GilbertElliottLoss keeps its burst state), so two runs built from
// one WorkloadInputs would start from each other's loss state. Every pass
// below takes fresh inputs.
WorkloadInputs MakeWorkload(const std::string& name, uint64_t seed,
                            const Overrides& overrides);

// One untraced pass over a workload through Conference: construct and
// Start every conference, simulate, then collect, check and pool every
// call.
struct PassResult {
  double simulate_s = 0.0;
  double sim_seconds = 0.0;  // call-seconds simulated
  int calls = 0;
  int failed = 0;
  std::vector<std::string> errors;
  // FNV-1a over every call's ConferenceStatsToJson, in call order.
  uint64_t digest = 0;

  // QoE pools over every leg of every call.
  // Frames rendered in each whole simulated second of each stream, while
  // the stream's leg is in the call.
  converge::SampleSet fps_per_second;
  converge::SampleSet e2e_ms;          // every rendered frame
  double fps_sum = 0.0;
  double goodput_sum = 0.0;
  double psnr_sum = 0.0;
  int streams = 0;
  double frozen_ms = 0.0;
  double active_ms = 0.0;

  std::vector<LayerCounts> call_counts;
  std::vector<converge::FleetCallSummary> summaries;
  // (simulated minutes, resident MiB) at fixed checkpoints.
  std::vector<std::pair<double, double>> rss_trajectory;
};

PassResult RunPass(WorkloadInputs inputs);

// Set-up only: generate the inputs, construct and Start every conference,
// then destroy them.
struct SetupSample {
  double setup_s = 0.0;
  double build_ms = 0.0;  // mean constructor + Start per conference
};
SetupSample MeasureSetup(const std::string& name, uint64_t seed,
                         const Overrides& overrides);

// The same calls through RunFleet; fills wall and simulated seconds and the
// per-call summaries.
converge::FleetResult RunFleetPass(WorkloadInputs inputs);

// The traced run: every call rebuilt by the assembly (assembly.h) and run
// once with spans off and once with spans on, invariant checks enabled.
struct TracedResult {
  double spans_off_s = 0.0;
  double spans_on_s = 0.0;
  KindTotals totals{};
  // Layers whose counts differ from the untraced pass, per call.
  std::vector<std::string> mismatches;
  std::vector<std::string> errors;
  int64_t invariant_violations = 0;
  int64_t stray_roots = 0;
  int64_t span_records = 0;
  bool balanced = true;
  int failed_calls = 0;
};

TracedResult RunTraced(const std::string& name, uint64_t seed,
                       const Overrides& overrides,
                       const std::vector<LayerCounts>& untraced,
                       const std::string& spans_path);

// Resident set now and its high-water mark, MiB (from /proc/self/status).
double RssMib();
double PeakRssMib();

}  // namespace perfbench
