#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <set>
#include <stdexcept>

#include "assembly.h"
#include "session/call.h"
#include "session/stats_json.h"
#include "trace/generators.h"
#include "util/invariants.h"
#include "util/parallel.h"

namespace perfbench {

using namespace converge;

namespace {

constexpr double kCallSeconds = 180.0;
// Simulated spacing of the resident-memory samples.
constexpr double kCheckpointSeconds = 10.0;
// Fleet-time quantum of the interleaved schedule (RunFleet's default).
constexpr int64_t kQuantumMs = 250;
// paper_mobility replays one fixed set of scenario traces and fault plans,
// as the paper replays its recorded traces; the workload seed drives
// everything stochastic inside the calls.
constexpr uint64_t kTraceSeed = 2023;
// Trace sets per (scenario, stream count) pair; each adds 6 calls. Four
// bring the seed-to-seed spread of the per-(stream, second) stall tail
// (fps_p05) to about 0.06; with three it was about 0.1. The latency tail's
// spread stays near 0.1 with three to six.
constexpr int kTraceSets = 4;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SubSeed(uint64_t seed, uint64_t index) {
  // SplitMix64 finalizer over (seed, index): independent per-call seeds.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFULL;
}

uint64_t Fnv1a(uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

double CallSeconds(const Overrides& o) {
  return o.call_seconds > 0.0 ? o.call_seconds : kCallSeconds;
}

PathSpec ConstantPath(const char* name, double mbps, int delay_ms,
                      double loss) {
  PathSpec spec;
  spec.name = name;
  spec.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(mbps));
  spec.prop_delay = Duration::Millis(delay_ms);
  if (loss > 0.0) spec.loss = std::make_shared<BernoulliLoss>(loss);
  return spec;
}

WorkloadInputs PaperMobility(uint64_t seed, const Overrides& o) {
  WorkloadInputs in;
  const Duration length = Duration::Seconds(CallSeconds(o));
  uint64_t index = 0;
  for (int trace_set = 0; trace_set < kTraceSets; ++trace_set) {
    for (Scenario scenario :
         {Scenario::kStationary, Scenario::kWalking, Scenario::kDriving}) {
      for (int streams : {1, 3}) {
        CallConfig call;
        call.variant = Variant::kConverge;
        TraceParams params;
        params.length = length;
        call.paths = MakeScenarioPathsWithFaults(
            scenario, SubSeed(kTraceSeed, index), params);
        call.num_streams = streams;
        call.duration = length;
        call.seed = SubSeed(seed, index);
        in.calls.push_back(ToConferenceConfig(call));
        ++index;
      }
    }
  }
  return in;
}

WorkloadInputs MeshFleet(uint64_t seed, const Overrides& o) {
  WorkloadInputs in;
  in.shards = 2;
  in.fleet = true;
  constexpr int kCalls = 8;
  for (int i = 0; i < kCalls; ++i) {
    // The bench_fleet mesh template (bench/bench_fleet.cc).
    ConferenceConfig config;
    config.variant = Variant::kConverge;
    config.topology = Topology::kMesh;
    config.participants.assign(3, ParticipantSpec{});
    config.max_rate_per_stream = DataRate::MegabitsPerSec(2);
    config.duration = Duration::Seconds(CallSeconds(o));
    config.seed = SubSeed(seed, static_cast<uint64_t>(i));
    config.paths = {ConstantPath("wifi", 7.0, 20, 0.0),
                    ConstantPath("cell", 5.0, 40, 0.0)};
    in.calls.push_back(config);
  }
  return in;
}

WorkloadInputs SfuLayers(uint64_t seed, const Overrides& o) {
  WorkloadInputs in;
  constexpr int kParties = 8;
  const Duration length = Duration::Seconds(CallSeconds(o));
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kStar;
  config.participants.assign(kParties, ParticipantSpec{});
  config.max_rate_per_stream = DataRate::MegabitsPerSec(2);
  config.duration = length;
  config.seed = SubSeed(seed, 0);
  config.simulcast_rungs = 3;
  // Fixed network shapes; the seed drives every call-internal draw (uplink
  // loss, encoder and pacing noise).
  config.paths_for_edge = [](int from, int to) {
    (void)from;
    if (to == kHubId) {
      // Uplinks: ample capacity, light random loss.
      return std::vector<PathSpec>{ConstantPath("up-wifi", 8.0, 15, 0.005),
                                   ConstantPath("up-cell", 6.0, 35, 0.01)};
    }
    // Downlinks in slow / medium / fast tiers.
    static constexpr double kTierMbps[3][2] = {
        {1.2, 0.8}, {3.5, 2.5}, {10.0, 8.0}};
    const double* tier = kTierMbps[to % 3];
    return std::vector<PathSpec>{ConstantPath("down-wifi", tier[0], 15, 0.0),
                                 ConstantPath("down-cell", tier[1], 35, 0.0)};
  };
  MembershipEvent leave;
  leave.kind = MembershipEvent::Kind::kLeave;
  leave.participant = kParties - 1;
  leave.at = Timestamp::Zero() + length * 0.4;
  MembershipEvent rejoin = leave;
  rejoin.kind = MembershipEvent::Kind::kJoin;
  rejoin.at = Timestamp::Zero() + length * 0.5;
  config.membership = {leave, rejoin};
  in.calls.push_back(config);
  return in;
}

struct Built {
  std::vector<std::unique_ptr<Conference>> conferences;
  double build_ms = 0.0;
};

Built Build(const WorkloadInputs& in) {
  Built out;
  double total = 0.0;
  for (const ConferenceConfig& config : in.calls) {
    const double t0 = Now();
    out.conferences.push_back(std::make_unique<Conference>(config));
    out.conferences.back()->Start();
    total += Now() - t0;
  }
  out.build_ms = in.calls.empty()
                     ? 0.0
                     : 1e3 * total / static_cast<double>(in.calls.size());
  return out;
}

double ReadStatusMib(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const size_t len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, len) == 0) {
      kb = std::atof(line + len);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

int NumStreamsOf(const ConferenceConfig& config, int participant) {
  return config.participants[static_cast<size_t>(participant)].num_streams;
}

// Output checks of one finished call; returns the first failure or "".
std::string CheckCall(Conference& conf, const ConferenceConfig& config) {
  const PipelineView view =
      ViewOf(conf, static_cast<int>(config.participants.size()));
  std::string error = CheckLinkConservation(view);
  if (!error.empty()) return error;
  // Star: RTP each receiver got over all its legs, and whether it left or
  // joined (its forwarder is then rebuilt and no longer holds the totals).
  std::vector<int64_t> star_received(config.participants.size(), 0);
  std::vector<bool> churned(config.participants.size(), false);
  for (const MembershipEvent& e : config.membership) {
    churned[static_cast<size_t>(e.participant)] = true;
  }
  for (size_t leg = 0; leg < conf.num_legs(); ++leg) {
    const ReceiverEndpoint& rx = conf.leg_receiver(leg);
    const Sender::Stats& tx = conf.leg_sender(leg).stats();
    const std::string where = " on leg " + std::to_string(leg);
    int64_t stream_packets = 0;
    int64_t decoded = 0;
    for (size_t s = 0; s < rx.num_streams(); ++s) {
      const auto st = rx.stream(static_cast<int>(s)).GetStats();
      stream_packets += st.packets_received;
      decoded += st.frames_decoded;
    }
    if (rx.stats().rtp_received <= 0) return "no media received" + where;
    if (stream_packets > rx.stats().rtp_received) {
      return "streams received more than the endpoint" + where;
    }
    if (decoded > tx.frames_encoded) {
      return "decoded more frames than were encoded" + where;
    }
    if (config.topology == Topology::kStar) {
      star_received[static_cast<size_t>(conf.leg_to(leg))] +=
          rx.stats().rtp_received;
      continue;
    }
    // Sender counters are taken at the pacer, which may still drop
    // overloaded packets, so the bound runs from the wire to the receiver.
    int64_t forward_delivered = 0;
    const Network& net = conf.leg_network(leg);
    for (PathId id : net.path_ids()) {
      forward_delivered += net.path(id).forward().stats().packets_delivered;
    }
    if (rx.stats().rtp_received > forward_delivered) {
      return "received more RTP than the forward links delivered" + where;
    }
  }
  if (config.topology != Topology::kStar) return "";
  // A star receiver gets nothing but what its hub forwarder sent it:
  // forwarded media, retransmissions and padding.
  for (size_t p = 0; p < config.participants.size(); ++p) {
    const HubForwarder* fwd = conf.hub_forwarder(static_cast<int>(p));
    if (churned[p] || fwd == nullptr) continue;
    int64_t sent = 0;
    for (PathId path : fwd->path_ids()) {
      sent += fwd->stats(path).packets_forwarded +
              fwd->stats(path).padding_packets;
    }
    if (star_received[p] > sent) {
      return "participant " + std::to_string(p) +
             " received more RTP than its hub forwarder sent";
    }
  }
  return "";
}

FleetCallSummary Summarize(int index, const ConferenceStats& stats) {
  // RunFleet's per-call digest (sim/fleet.cc), for the cross-check.
  FleetCallSummary s;
  s.index = index;
  for (const ConferenceStats::Leg& leg : stats.legs) {
    s.frame_drops += leg.stats.total_frame_drops;
    s.keyframe_requests += leg.stats.total_keyframe_requests;
    s.media_packets_sent += leg.stats.media_packets_sent;
    s.frames_encoded += leg.stats.frames_encoded;
  }
  double fps = 0.0;
  int receiving = 0;
  for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
    if (p.inbound_streams == 0) continue;
    fps += p.avg_fps;
    ++receiving;
  }
  if (receiving > 0) s.avg_fps = fps / receiving;
  return s;
}

// Rendered-frame totals of every (leg, stream) of one call, one row per
// whole simulated second, row 0 at the start. Legs are only ever appended,
// so each row extends the one before it.
using FrameRows = std::vector<std::vector<int64_t>>;

void AppendFrameRow(const Conference& conf, const ConferenceConfig& config,
                    FrameRows& rows) {
  std::vector<int64_t>& row = rows.emplace_back();
  for (size_t leg = 0; leg < conf.num_legs(); ++leg) {
    const int streams = NumStreamsOf(config, conf.leg_from(leg));
    for (int s = 0; s < streams; ++s) {
      // One capture-to-render sample per rendered frame.
      row.push_back(static_cast<int64_t>(
          conf.leg_metrics(leg).e2e_samples(s).size()));
    }
  }
}

void CollectCall(Conference& conf, const ConferenceConfig& config, int index,
                 const std::string& sim_error, const FrameRows& frames,
                 PassResult& out) {
  ++out.calls;
  try {
    if (!sim_error.empty()) throw std::runtime_error(sim_error);
    const ConferenceStats stats = conf.Collect();
    out.digest = Fnv1a(out.digest, ConferenceStatsToJson(stats, 0));
    out.summaries.push_back(Summarize(index, stats));
    const PipelineView view =
        ViewOf(conf, static_cast<int>(config.participants.size()));
    out.call_counts.push_back(Count(view));
    size_t first_stream = 0;  // the leg's first column in `frames`
    for (size_t leg = 0; leg < stats.legs.size(); ++leg) {
      const ConferenceStats::Leg& ls = stats.legs[leg];
      const int streams = NumStreamsOf(config, ls.from);
      const double active_ms = (ls.left_s - ls.joined_s) * 1e3;
      for (const StreamQoe& q : ls.stats.streams) {
        out.fps_sum += q.avg_fps;
        out.goodput_sum += q.tput_mbps;
        out.psnr_sum += q.psnr_mean_db;
        ++out.streams;
        out.frozen_ms += q.freeze_ratio * active_ms;
        out.active_ms += active_ms;
      }
      // Seconds (k - 1, k] inside the leg's window [joined_s, left_s).
      for (size_t k = 1; k < frames.size(); ++k) {
        if (static_cast<double>(k - 1) < ls.joined_s ||
            static_cast<double>(k) > ls.left_s) {
          continue;
        }
        for (int s = 0; s < streams; ++s) {
          const size_t col = first_stream + static_cast<size_t>(s);
          const int64_t before =
              col < frames[k - 1].size() ? frames[k - 1][col] : 0;
          out.fps_per_second.Add(static_cast<double>(frames[k][col] - before));
        }
      }
      first_stream += static_cast<size_t>(streams);
      for (int s = 0; s < streams; ++s) {
        for (double v : conf.leg_metrics(leg).e2e_samples(s).samples()) {
          out.e2e_ms.Add(v);
        }
      }
    }
    const std::string error = CheckCall(conf, config);
    if (!error.empty()) {
      ++out.failed;
      out.errors.push_back("call " + std::to_string(index) + ": " + error);
    }
  } catch (const std::exception& e) {
    ++out.failed;
    out.errors.push_back("call " + std::to_string(index) + " threw: " +
                         e.what());
    // Keep call_counts aligned with the calls.
    out.call_counts.resize(static_cast<size_t>(out.calls));
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "paper_mobility", "mesh_fleet", "sfu_layers"};
  return kNames;
}

WorkloadInputs MakeWorkload(const std::string& name, uint64_t seed,
                            const Overrides& overrides) {
  WorkloadInputs in;
  if (name == "paper_mobility") {
    in = PaperMobility(seed, overrides);
  } else if (name == "mesh_fleet") {
    in = MeshFleet(seed, overrides);
  } else if (name == "sfu_layers") {
    in = SfuLayers(seed, overrides);
  } else {
    return in;
  }
  if (overrides.shards > 0) in.shards = overrides.shards;
  return in;
}

double RssMib() { return ReadStatusMib("VmRSS:"); }
double PeakRssMib() { return ReadStatusMib("VmHWM:"); }

SetupSample MeasureSetup(const std::string& name, uint64_t seed,
                         const Overrides& overrides) {
  const double t0 = Now();
  const WorkloadInputs in = MakeWorkload(name, seed, overrides);
  Built built = Build(in);
  SetupSample out;
  out.setup_s = Now() - t0;
  out.build_ms = built.build_ms;
  return out;
}

PassResult RunPass(WorkloadInputs in) {
  PassResult out;
  Built built = Build(in);
  for (const ConferenceConfig& c : in.calls) {
    out.sim_seconds += c.duration.seconds();
  }

  const int shards =
      std::max(1, std::min<int>(in.shards, static_cast<int>(in.calls.size())));
  std::vector<std::vector<size_t>> mine(static_cast<size_t>(shards));
  for (size_t i = 0; i < in.calls.size(); ++i) {
    mine[i % static_cast<size_t>(shards)].push_back(i);
  }
  const Duration second = Duration::Seconds(1.0);
  const Duration checkpoint = Duration::Seconds(kCheckpointSeconds);
  const Duration quantum = Duration::Millis(kQuantumMs);
  std::vector<FrameRows> frames(in.calls.size());
  for (size_t i = 0; i < in.calls.size(); ++i) {
    AppendFrameRow(*built.conferences[i], in.calls[i], frames[i]);
  }
  // A call that throws while simulating stops advancing and is reported
  // failed when collected. Each shard writes only its own calls' slots.
  std::vector<std::string> sim_error(in.calls.size());
  auto advance = [&](size_t i, Duration t) {
    if (!sim_error[i].empty()) return;
    try {
      built.conferences[i]->AdvanceTo(Timestamp::Zero() + t);
    } catch (const std::exception& e) {
      sim_error[i] = e.what();
    }
  };

  if (in.fleet) {
    Duration longest = Duration::Zero();
    for (const ConferenceConfig& c : in.calls) {
      longest = std::max(longest, c.duration);
    }
    const double s0 = Now();
    for (Duration until = Duration::Zero(); until < longest;) {
      const Duration from = until;
      until = std::min(until + checkpoint, longest);
      ParallelFor(
          shards,
          [&](int64_t shard) {
            Duration t = from;
            while (t < until) {
              // Quantum boundaries on the fleet grid, as RunFleet slices.
              t = std::min(t + quantum, until);
              for (size_t i : mine[static_cast<size_t>(shard)]) {
                advance(i, std::min(t, in.calls[i].duration));
                if (t <= in.calls[i].duration && t.us() % second.us() == 0) {
                  AppendFrameRow(*built.conferences[i], in.calls[i],
                                 frames[i]);
                }
              }
            }
          },
          shards);
      out.rss_trajectory.emplace_back(until.seconds() / 60.0, RssMib());
    }
    out.simulate_s = Now() - s0;
    for (size_t i = 0; i < in.calls.size(); ++i) {
      CollectCall(*built.conferences[i], in.calls[i], static_cast<int>(i),
                  sim_error[i], frames[i], out);
    }
    return out;
  }

  // One call after another; the x axis of the memory trajectory is the
  // cumulative simulated time of the workload.
  double simulated_before = 0.0;
  for (size_t i = 0; i < in.calls.size(); ++i) {
    const Duration end = in.calls[i].duration;
    for (Duration t = Duration::Zero(); t < end;) {
      t = std::min(t + second, end);
      const double s0 = Now();
      advance(i, t);
      out.simulate_s += Now() - s0;
      if (t.us() % second.us() == 0) {
        AppendFrameRow(*built.conferences[i], in.calls[i], frames[i]);
      }
      if (t.us() % checkpoint.us() == 0 || t == end) {
        out.rss_trajectory.emplace_back(
            (simulated_before + t.seconds()) / 60.0, RssMib());
      }
    }
    simulated_before += end.seconds();
    CollectCall(*built.conferences[i], in.calls[i], static_cast<int>(i),
                sim_error[i], frames[i], out);
    frames[i].clear();
    built.conferences[i].reset();
  }
  return out;
}

FleetResult RunFleetPass(WorkloadInputs in) {
  FleetConfig config;
  config.calls = std::move(in.calls);
  config.shards = in.shards;
  config.quantum = Duration::Millis(kQuantumMs);
  return RunFleet(config);
}

TracedResult RunTraced(const std::string& name, uint64_t seed,
                       const Overrides& overrides,
                       const std::vector<LayerCounts>& untraced,
                       const std::string& spans_path) {
  TracedResult out;
  const WorkloadInputs in = MakeWorkload(name, seed, overrides);
  for (const ConferenceConfig& c : in.calls) {
    const std::string why = Assembly::Unsupported(c);
    if (!why.empty()) {
      out.errors.push_back("assembly does not mirror: " + why);
      out.failed_calls = static_cast<int>(in.calls.size());
      return out;
    }
  }
  // The first 200k span records (about 20 MB of JSON) are kept for the
  // written trace; the totals cover every span.
  SpanRecorder recorder(200'000);
  ScopedInvariants invariants;
  std::set<size_t> failed;
  auto fail = [&](size_t i, const std::string& why) {
    failed.insert(i);
    out.errors.push_back("call " + std::to_string(i) + ": " + why);
  };
  for (int spans_on = 0; spans_on < 2; ++spans_on) {
    const WorkloadInputs fresh = MakeWorkload(name, seed, overrides);
    SpanRecorder::Install(spans_on ? &recorder : nullptr);
    double elapsed = 0.0;
    for (size_t i = 0; i < fresh.calls.size(); ++i) {
      recorder.set_call(static_cast<int32_t>(i));
      try {
        Assembly assembly(fresh.calls[i]);
        assembly.Start();
        const Duration end = fresh.calls[i].duration;
        const Duration checkpoint = Duration::Seconds(kCheckpointSeconds);
        for (Duration t = Duration::Zero(); t < end;) {
          t = std::min(t + checkpoint, end);
          const double s0 = Now();
          assembly.RunUntil(Timestamp::Zero() + t);
          elapsed += Now() - s0;
        }
        const PipelineView view = assembly.View();
        const LayerCounts counts = Count(view);
        const std::string error = CheckLinkConservation(view);
        if (!error.empty()) fail(i, error);
        if (i < untraced.size()) {
          for (const std::string& layer :
               counts.DifferingLayers(untraced[i])) {
            out.mismatches.push_back(
                "call " + std::to_string(i) + " (spans " +
                (spans_on ? "on" : "off") + "): " + layer);
          }
        }
      } catch (const std::exception& e) {
        fail(i, std::string("threw: ") + e.what());
      }
    }
    (spans_on ? out.spans_on_s : out.spans_off_s) = elapsed;
  }
  out.failed_calls = static_cast<int>(failed.size());
  SpanRecorder::Install(nullptr);
  out.invariant_violations = InvariantRegistry::violation_count();
  out.totals = recorder.totals();
  out.balanced = recorder.balanced();
  for (int k = 0; k < kNumSpanKinds; ++k) {
    if (k != static_cast<int>(SpanKind::kRunUntil) &&
        k != static_cast<int>(SpanKind::kStart)) {
      out.stray_roots += recorder.roots()[static_cast<size_t>(k)];
    }
  }
  out.span_records = static_cast<int64_t>(recorder.records().size());
  if (!spans_path.empty() && !recorder.WriteJsonl(spans_path)) {
    out.errors.push_back("cannot write " + spans_path);
  }
  return out;
}

}  // namespace perfbench
