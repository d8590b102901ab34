// Wrap soak: one full-rate 2-party Converge call long enough for the media
// sequence number to wrap more than twice, checked second by second.
#include <gtest/gtest.h>

#include <vector>

#include "session/call.h"
#include "util/invariants.h"

namespace converge {
namespace {

PathSpec LossyPath(const std::string& name, int delay_ms) {
  PathSpec spec;
  spec.name = name;
  spec.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(14));
  spec.prop_delay = Duration::Millis(delay_ms);
  spec.loss = std::make_shared<BernoulliLoss>(0.02);
  return spec;
}

struct Sample {
  int64_t media_sent = 0;
  int64_t fec_recovered = 0;
};

TEST(ReceiverWrapSoakTest, FecKeepsRecoveringAcrossSequenceWraps) {
  ScopedInvariants invariants;
  CallConfig call;
  call.variant = Variant::kConverge;
  call.paths = {LossyPath("p0", 20), LossyPath("p1", 35)};
  call.duration = Duration::Seconds(210);
  call.seed = 7;
  Conference conference(ToConferenceConfig(call));
  const ReceiverEndpoint& receiver = conference.leg_receiver(0);
  const size_t capacity = call.packet_buffer_capacity;

  conference.Start();
  std::vector<Sample> samples;  // samples[s]: state at s seconds
  samples.push_back({});
  for (int s = 1; s <= 210; ++s) {
    conference.AdvanceTo(Timestamp::Seconds(s));
    const VideoReceiveStream& stream = receiver.stream(0);
    ASSERT_LE(stream.packet_buffer().size(), capacity) << "at " << s << " s";
    samples.push_back({conference.leg_sender(0).stats().media_packets_sent,
                       stream.fec().stats().packets_recovered});
  }
  const ConferenceStats stats = conference.Collect();

  // Every media packet takes the next seq from 0, so the k-th wrap falls
  // where the media count crosses k * 65536.
  std::vector<int> wraps;
  for (int s = 1; s < static_cast<int>(samples.size()); ++s) {
    if (samples[s].media_sent / 65536 > samples[s - 1].media_sent / 65536) {
      wraps.push_back(s);
    }
  }
  ASSERT_GE(wraps.size(), 2u) << samples.back().media_sent << " media packets";
  for (int wrap : wraps) {
    for (int from = wrap; from + 30 <= 210; from += 30) {
      EXPECT_GT(samples[from + 30].fec_recovered, samples[from].fec_recovered)
          << "no FEC recovery in [" << from << ", " << from + 30
          << ") s after the wrap at " << wrap << " s";
    }
  }
  EXPECT_GT(stats.legs.front().stats.AvgFps(), 25.0);
  EXPECT_EQ(InvariantRegistry::violation_count(), 0)
      << InvariantRegistry::Describe();
}

}  // namespace
}  // namespace converge
