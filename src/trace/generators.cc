#include "trace/generators.h"

#include <algorithm>
#include <cmath>

namespace converge {
namespace {

struct EnvelopeParams {
  double mean_mbps;
  double volatility;       // OU step size in log space
  double reversion;        // OU pull toward the mean
  double outage_per_s;     // probability of entering an outage, per second
  double outage_mean_s;    // mean outage duration
  double outage_floor_mbps;
  double base_loss;
  double burst_loss;       // Gilbert-Elliott bad-state loss
  double burst_per_s;      // bad-state entry pressure
  Duration prop_delay;
};

// Envelopes follow Figures 20-22: stationary WiFi is flat and fast with rare
// shallow dips; cellular carriers hover near the 10 Mbps requirement with
// occasional shortfalls; driving adds deep swings and multi-second outages.
EnvelopeParams ParamsFor(Scenario scenario, Carrier carrier) {
  switch (scenario) {
    case Scenario::kStationary:
      switch (carrier) {
        case Carrier::kWifi:
          return {35.0, 0.04, 0.30, 0.004, 2.0, 1.0, 0.0005, 0.05, 0.002,
                  Duration::Millis(8)};
        case Carrier::kTmobile:
          return {12.0, 0.08, 0.20, 0.008, 2.0, 1.5, 0.002, 0.08, 0.004,
                  Duration::Millis(35)};
        case Carrier::kVerizon:
          return {11.0, 0.08, 0.20, 0.008, 2.0, 1.5, 0.002, 0.08, 0.004,
                  Duration::Millis(40)};
      }
      break;
    case Scenario::kWalking:
      switch (carrier) {
        case Carrier::kWifi:
          return {22.0, 0.10, 0.15, 0.008, 2.5, 0.4, 0.004, 0.15, 0.010,
                  Duration::Millis(10)};
        case Carrier::kTmobile:
          return {14.0, 0.12, 0.15, 0.006, 2.0, 0.9, 0.005, 0.15, 0.012,
                  Duration::Millis(38)};
        case Carrier::kVerizon:
          return {12.0, 0.12, 0.15, 0.006, 2.0, 0.9, 0.005, 0.15, 0.012,
                  Duration::Millis(42)};
      }
      break;
    case Scenario::kDriving:
      switch (carrier) {
        case Carrier::kWifi:  // not used while driving; keep a weak link
          return {5.0, 0.20, 0.10, 0.030, 3.0, 0.2, 0.010, 0.22, 0.025,
                  Duration::Millis(15)};
        case Carrier::kTmobile:
          return {13.0, 0.16, 0.10, 0.010, 3.0, 0.6, 0.010, 0.22, 0.020,
                  Duration::Millis(40)};
        case Carrier::kVerizon:
          return {10.0, 0.16, 0.10, 0.012, 3.5, 0.6, 0.012, 0.24, 0.022,
                  Duration::Millis(45)};
      }
      break;
  }
  return {10.0, 0.1, 0.2, 0.01, 3.0, 0.5, 0.005, 0.1, 0.01,
          Duration::Millis(30)};
}

}  // namespace

std::string ToString(Scenario s) {
  switch (s) {
    case Scenario::kStationary:
      return "stationary";
    case Scenario::kWalking:
      return "walking";
    case Scenario::kDriving:
      return "driving";
  }
  return "?";
}

std::string ToString(Carrier c) {
  switch (c) {
    case Carrier::kWifi:
      return "WiFi";
    case Carrier::kTmobile:
      return "T-Mobile";
    case Carrier::kVerizon:
      return "Verizon";
  }
  return "?";
}

BandwidthTrace GenerateBandwidth(Scenario scenario, Carrier carrier,
                                 uint64_t seed, TraceParams params) {
  const EnvelopeParams env = ParamsFor(scenario, carrier);
  Random rng(seed ^ (static_cast<uint64_t>(scenario) << 8) ^
             (static_cast<uint64_t>(carrier) << 16));

  std::vector<TraceSample> samples;
  const double dt = params.sample_interval.seconds();
  double log_offset = 0.0;  // OU process around log(mean)
  double outage_left_s = 0.0;

  for (Timestamp t = Timestamp::Zero(); t <= Timestamp::Zero() + params.length;
       t += params.sample_interval) {
    // Outage state machine.
    if (outage_left_s > 0.0) {
      outage_left_s -= dt;
    } else if (rng.Bernoulli(env.outage_per_s * dt)) {
      outage_left_s = rng.Exponential(env.outage_mean_s);
    }

    // Mean-reverting walk in log space keeps capacity positive and bursty.
    log_offset += -env.reversion * log_offset * dt +
                  env.volatility * rng.Gaussian(0.0, 1.0) * std::sqrt(dt) *
                      3.0;
    log_offset = std::clamp(log_offset, -1.8, 0.9);

    double mbps = env.mean_mbps * std::exp(log_offset);
    if (outage_left_s > 0.0) {
      mbps = std::min(mbps, env.outage_floor_mbps * rng.Uniform(0.2, 1.0));
    }
    mbps = std::max(0.02, mbps);
    samples.push_back({t, mbps * 1e6});
  }
  // Radio fades are not step functions: smooth sample-to-sample transitions
  // (~0.5 s time constant) so capacity ramps instead of cliff-dropping.
  double smoothed = samples.empty() ? 0.0 : samples.front().value;
  for (TraceSample& s : samples) {
    smoothed = 0.65 * smoothed + 0.35 * s.value;
    s.value = smoothed;
  }
  return BandwidthTrace(ValueTrace(std::move(samples), /*repeat=*/true));
}

std::shared_ptr<LossModel> GenerateLoss(Scenario scenario, Carrier carrier,
                                        uint64_t seed) {
  const EnvelopeParams env = ParamsFor(scenario, carrier);
  GilbertElliottLoss::Config config;
  config.loss_good = env.base_loss;
  config.loss_bad = env.burst_loss;
  // Per-packet transition probabilities assuming ~1000 pkt/s nominal.
  config.p_good_to_bad = env.burst_per_s / 1000.0;
  config.p_bad_to_good = 1.0 / (0.3 * 1000.0);  // ~300 ms bursts
  // Each link takes its own copy of the burst state (PerLinkCopy) and
  // draws from its own RNG, so the seed is not needed here.
  (void)seed;
  return std::make_shared<GilbertElliottLoss>(config);
}

PathSpec MakePathSpec(Scenario scenario, Carrier carrier, uint64_t seed,
                      TraceParams params) {
  const EnvelopeParams env = ParamsFor(scenario, carrier);
  PathSpec spec;
  spec.name = ToString(carrier);
  spec.capacity = GenerateBandwidth(scenario, carrier, seed, params);
  spec.prop_delay = env.prop_delay;
  spec.loss = GenerateLoss(scenario, carrier, seed);
  return spec;
}

std::vector<PathSpec> MakeScenarioPaths(Scenario scenario, uint64_t seed,
                                        TraceParams params) {
  switch (scenario) {
    case Scenario::kStationary:
    case Scenario::kWalking:
      return {MakePathSpec(scenario, Carrier::kWifi, seed, params),
              MakePathSpec(scenario, Carrier::kTmobile, seed + 1, params)};
    case Scenario::kDriving:
      return {MakePathSpec(scenario, Carrier::kVerizon, seed, params),
              MakePathSpec(scenario, Carrier::kTmobile, seed + 1, params)};
  }
  return {};
}

FaultPlan MakeScenarioFaultPlan(Scenario scenario, uint64_t seed,
                                TraceParams params) {
  Random rng(seed ^ 0x9e3779b97f4a7c15ULL ^
             (static_cast<uint64_t>(scenario) << 24));
  const double len_s = params.length.seconds();
  // Event anchors are fractions of the trace, jittered by the seed so no two
  // seeds hit the congestion controller at the same phase.
  auto at = [&](double frac) {
    const double jitter_s = rng.Uniform(-0.03, 0.03) * len_s;
    const double t = std::clamp(frac * len_s + jitter_s, 1.0, len_s - 1.0);
    return Timestamp::Zero() + Duration::Seconds(t);
  };

  FaultPlan plan;
  switch (scenario) {
    case Scenario::kStationary:
      plan.Add(FaultEvent::JitterSpike(at(0.30), Duration::Seconds(2),
                                       Duration::Millis(25)));
      plan.Add(FaultEvent::RateCliff(at(0.65), Duration::Seconds(4), 0.6));
      break;
    case Scenario::kWalking:
      plan.Add(FaultEvent::Handover(at(0.25), Duration::Seconds(1),
                                    Duration::Millis(30), 0.12));
      plan.Add(FaultEvent::RateCliff(at(0.50), Duration::Seconds(5), 0.4));
      plan.Add(FaultEvent::Handover(at(0.75), Duration::Seconds(1),
                                    Duration::Millis(40), 0.15));
      break;
    case Scenario::kDriving:
      plan.Add(FaultEvent::RateCliff(at(0.20), Duration::Seconds(6), 0.25));
      plan.Add(FaultEvent::Outage(at(0.45), Duration::Seconds(2)));
      plan.Add(FaultEvent::Handover(at(0.65), Duration::Seconds(1),
                                    Duration::Millis(50), 0.2));
      plan.Add(FaultEvent::Reorder(at(0.85), Duration::Seconds(3),
                                   Duration::Millis(40), 0.02));
      break;
  }
  return plan;
}

FaultPlan MakeRandomFaultPlan(Random& rng, Duration length) {
  FaultPlan plan;
  const double len_s = length.seconds();
  const int n_events = static_cast<int>(rng.UniformInt(2, 6));
  for (int i = 0; i < n_events; ++i) {
    // Leave the head of the call fault-free (controllers are still ramping)
    // and guarantee a quiet tail so recovery is observable.
    const double start_s = rng.Uniform(0.1 * len_s, 0.8 * len_s);
    const Timestamp start = Timestamp::Zero() + Duration::Seconds(start_s);
    switch (rng.UniformInt(0, 4)) {
      case 0:
        plan.Add(FaultEvent::Outage(
            start, Duration::Seconds(rng.Uniform(0.3, 3.0)),
            rng.Bernoulli(0.5) ? InFlightPolicy::kDrop
                               : InFlightPolicy::kDelayToEnd));
        break;
      case 1:
        plan.Add(FaultEvent::RateCliff(
            start, Duration::Seconds(rng.Uniform(1.0, 6.0)),
            rng.Uniform(0.1, 0.7)));
        break;
      case 2:
        plan.Add(FaultEvent::Handover(
            start, Duration::Seconds(rng.Uniform(0.5, 2.0)),
            Duration::Millis(rng.UniformInt(10, 80)),
            rng.Uniform(0.05, 0.3)));
        break;
      case 3:
        plan.Add(FaultEvent::Reorder(
            start, Duration::Seconds(rng.Uniform(1.0, 4.0)),
            Duration::Millis(rng.UniformInt(5, 60)),
            rng.Uniform(0.0, 0.05)));
        break;
      default:
        plan.Add(FaultEvent::JitterSpike(
            start, Duration::Seconds(rng.Uniform(1.0, 4.0)),
            Duration::Millis(rng.UniformInt(5, 50))));
        break;
    }
  }
  return plan;
}

std::vector<PathSpec> MakeScenarioPathsWithFaults(Scenario scenario,
                                                  uint64_t seed,
                                                  TraceParams params) {
  std::vector<PathSpec> paths = MakeScenarioPaths(scenario, seed, params);
  if (!paths.empty()) {
    paths.front().fault_plan = MakeScenarioFaultPlan(scenario, seed, params);
  }
  return paths;
}

}  // namespace converge
