// Regenerates the pinned per-variant CallStats JSON fixtures under
// tests/data/. The fixtures were captured from the pre-conference-refactor
// point-to-point Call implementation; conference_test.cc asserts the 2-party
// Call adapter still reproduces them byte for byte. Only regenerate (and
// commit the diff) when a PR *intentionally* changes call results — the
// whole point of the fixtures is to make silent behaviour drift loud.
//
// Usage: gen_call_fixtures <output-dir>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "conference_fixtures.h"
#include "net/loss_model.h"
#include "session/call.h"
#include "session/conference.h"
#include "session/stats_json.h"

namespace converge {
namespace {

// Mirrored exactly by FixtureCallConfig() in conference_test.cc.
CallConfig FixtureConfig(Variant variant) {
  PathSpec p0;
  p0.name = "fix0";
  p0.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(15));
  p0.prop_delay = Duration::Millis(20);
  p0.loss = std::make_shared<BernoulliLoss>(0.02);
  PathSpec p1;
  p1.name = "fix1";
  p1.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(8));
  p1.prop_delay = Duration::Millis(45);
  p1.loss = std::make_shared<BernoulliLoss>(0.01);

  CallConfig config;
  config.variant = variant;
  config.paths = {p0, p1};
  config.num_streams = 2;
  config.duration = Duration::Seconds(8);
  config.seed = 17;
  return config;
}

// Mirrored exactly by FixtureConferenceConfig() in conference_test.cc: a
// 3-party Converge star. Pins the full ConferenceStats JSON shape —
// participants (incl. active_s / avg_freeze_ratio), legs (incl. incarnation
// and the [joined_s, left_s) window), hub downlinks, and the cross_traffic
// array — so later PRs can't silently drift conference results or the
// export schema.
ConferenceConfig FixtureConferenceConfig() {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kStar;
  config.participants.assign(3, ParticipantSpec{});
  config.max_rate_per_stream = DataRate::MegabitsPerSec(3);
  config.duration = Duration::Seconds(8);
  config.seed = 29;
  config.paths_for_edge = [](int from, int) {
    PathSpec p0;
    p0.name = from == kHubId ? "fixd0" : "fixu0";
    p0.capacity = BandwidthTrace::Constant(
        DataRate::MegabitsPerSec(from == kHubId ? 12.0 : 6.0));
    p0.prop_delay = Duration::Millis(from == kHubId ? 15 : 20);
    p0.loss = std::make_shared<BernoulliLoss>(0.01);
    PathSpec p1;
    p1.name = from == kHubId ? "fixd1" : "fixu1";
    p1.capacity = BandwidthTrace::Constant(
        DataRate::MegabitsPerSec(from == kHubId ? 8.0 : 4.0));
    p1.prop_delay = Duration::Millis(from == kHubId ? 25 : 35);
    p1.loss = std::make_shared<BernoulliLoss>(0.005);
    return std::vector<PathSpec>{p0, p1};
  };
  return config;
}

std::string FixtureFileName(Variant v) {
  // File names must be stable identifiers, not the display strings.
  switch (v) {
    case Variant::kWebRtcPath0: return "call_fixture_webrtc_p0.json";
    case Variant::kWebRtcPath1: return "call_fixture_webrtc_p1.json";
    case Variant::kWebRtcCm: return "call_fixture_webrtc_cm.json";
    case Variant::kSrtt: return "call_fixture_srtt.json";
    case Variant::kEcf: return "call_fixture_ecf.json";
    case Variant::kMtput: return "call_fixture_mtput.json";
    case Variant::kMrtp: return "call_fixture_mrtp.json";
    case Variant::kConverge: return "call_fixture_converge.json";
    case Variant::kConvergeNoFeedback: return "call_fixture_converge_nofb.json";
    case Variant::kConvergeWebRtcFec: return "call_fixture_converge_tblfec.json";
  }
  return "call_fixture_unknown.json";
}

}  // namespace
}  // namespace converge

int main(int argc, char** argv) {
  using namespace converge;
  const std::string dir = argc > 1 ? argv[1] : "tests/data";
  for (Variant v :
       {Variant::kWebRtcPath0, Variant::kWebRtcPath1, Variant::kWebRtcCm,
        Variant::kSrtt, Variant::kEcf, Variant::kMtput, Variant::kMrtp,
        Variant::kConverge, Variant::kConvergeNoFeedback,
        Variant::kConvergeWebRtcFec}) {
    Call call(FixtureConfig(v));
    const CallStats stats = call.Run();
    const std::string path = dir + "/" + FixtureFileName(v);
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    out << CallStatsToJson(stats);
    std::printf("%s: %s\n", ToString(v).c_str(), path.c_str());
  }
  const struct {
    const char* label;
    const char* file;
    ConferenceConfig config;
  } conferences[] = {
      {"star-3 conference", "conference_fixture_star3.json",
       FixtureConferenceConfig()},
      {"mesh-churn conference", "conference_fixture_mesh_churn.json",
       fixtures::MeshChurnConfig()},
      {"cascade-failover conference",
       "conference_fixture_cascade_failover.json",
       fixtures::CascadeFailoverConfig()},
  };
  for (const auto& c : conferences) {
    Conference conference(c.config);
    const ConferenceStats stats = conference.Run();
    const std::string path = dir + "/" + c.file;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    out << ConferenceStatsToJson(stats);
    std::printf("%s: %s\n", c.label, path.c_str());
  }
  return 0;
}
