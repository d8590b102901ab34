// Configurations of the pinned conference fixtures that cover membership
// churn and hub failover. gen_call_fixtures.cc writes their stats JSON into
// tests/data/ and conference_test.cc byte-compares a fresh run against it,
// so both include this one definition. Every path uses BernoulliLoss, whose
// draws come from each link's own random stream.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/fault_plan.h"
#include "net/loss_model.h"
#include "session/conference.h"

namespace converge {
namespace fixtures {

inline PathSpec LossyPath(const std::string& name, double mbps, int delay_ms,
                          double loss) {
  PathSpec spec;
  spec.name = name;
  spec.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(mbps));
  spec.prop_delay = Duration::Millis(delay_ms);
  spec.loss = std::make_shared<BernoulliLoss>(loss);
  return spec;
}

// A 4-party Converge mesh with churn: participant 3 joins late at 1.5 s,
// participant 2 leaves at 3 s and rejoins at 5 s.
inline ConferenceConfig MeshChurnConfig() {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kMesh;
  config.participants.assign(4, ParticipantSpec{});
  config.paths = {LossyPath("mc0", 6.0, 20, 0.01),
                  LossyPath("mc1", 4.0, 35, 0.005)};
  config.max_rate_per_stream = DataRate::MegabitsPerSec(3);
  config.duration = Duration::Seconds(8);
  config.seed = 31;
  auto at = [](double s) { return Timestamp::Zero() + Duration::Seconds(s); };
  config.membership = {
      {MembershipEvent::Kind::kJoin, at(1.5), 3},
      {MembershipEvent::Kind::kLeave, at(3.0), 2},
      {MembershipEvent::Kind::kJoin, at(5.0), 2},
  };
  return config;
}

// A 5-party Converge star sharded over 3 hubs (homes 0,1,2,0,1) with lossy
// uplinks, downlinks and trunks. Hub 1 is down from 2 s to 4 s: its two
// participants re-home to hub 2 and its trunks are rebuilt at recovery.
inline ConferenceConfig CascadeFailoverConfig() {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kStar;
  config.participants.assign(5, ParticipantSpec{});
  config.max_rate_per_stream = DataRate::MegabitsPerSec(2);
  config.duration = Duration::Seconds(6);
  config.seed = 37;
  config.paths_for_edge = [](int from, int) {
    if (from == kHubId) {
      return std::vector<PathSpec>{LossyPath("cd0", 24.0, 15, 0.005),
                                   LossyPath("cd1", 16.0, 25, 0.005)};
    }
    return std::vector<PathSpec>{LossyPath("cu0", 6.0, 20, 0.01),
                                 LossyPath("cu1", 4.0, 35, 0.005)};
  };
  config.trunk_paths = {LossyPath("ct0", 48.0, 10, 0.005),
                        LossyPath("ct1", 32.0, 20, 0.005)};
  config.num_hubs = 3;
  FaultPlan outage;
  outage.Add(FaultEvent::Outage(Timestamp::Zero() + Duration::Seconds(2),
                                Duration::Seconds(2)));
  config.hub_fault_plans.resize(3);
  config.hub_fault_plans[1] = outage;
  return config;
}

}  // namespace fixtures
}  // namespace converge
