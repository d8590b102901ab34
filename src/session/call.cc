#include "session/call.h"

#include <utility>

#include "util/parallel.h"

namespace converge {

ConferenceConfig ToConferenceConfig(const CallConfig& config) {
  ConferenceConfig conf;
  conf.variant = config.variant;
  conf.topology = Topology::kMesh;
  // The historical point-to-point call: participant 0 publishes
  // num_streams cameras, participant 1 watches. One directed leg.
  ParticipantSpec caller;
  caller.sends = true;
  caller.receives = false;
  caller.num_streams = config.num_streams;
  ParticipantSpec callee;
  callee.sends = false;
  callee.receives = true;
  conf.participants = {caller, callee};
  conf.paths = config.paths;
  conf.max_rate_per_stream = config.max_rate_per_stream;
  conf.fps = config.fps;
  conf.width = config.width;
  conf.height = config.height;
  conf.duration = config.duration;
  conf.seed = config.seed;
  conf.enable_fec = config.enable_fec;
  conf.packet_buffer_capacity = config.packet_buffer_capacity;
  conf.frame_buffer_capacity = config.frame_buffer_capacity;
  conf.video_scheduler = config.video_scheduler;
  conf.converge_fec = config.converge_fec;
  conf.cc_algorithm = config.cc_algorithm;
  conf.cc_coupling = config.cc_coupling;
  conf.trace_capacity = config.trace_capacity;
  return conf;
}

Call::Call(const CallConfig& config)
    : conference_(std::make_unique<Conference>(ToConferenceConfig(config))) {}

Call::~Call() = default;

CallStats Call::Run() {
  ConferenceStats stats = conference_->Run();
  return std::move(stats.legs.front().stats);
}

std::vector<CallStats> RunCalls(const std::vector<CallConfig>& configs,
                                int jobs) {
  std::vector<CallStats> out(configs.size());
  ParallelFor(
      static_cast<int64_t>(configs.size()),
      [&](int64_t i) {
        // Each worker gets its own copy of the config. The copies share
        // the PathSpecs' loss models, and every link takes its own copy of
        // a stateful one (LossModel::PerLinkCopy), so no worker's run
        // touches another's state.
        CallConfig config = configs[static_cast<size_t>(i)];
        Call call(config);
        out[static_cast<size_t>(i)] = call.Run();
      },
      jobs);
  return out;
}

std::vector<CallStats> RunSeeds(CallConfig config,
                                const std::vector<uint64_t>& seeds,
                                int jobs) {
  std::vector<CallConfig> configs;
  configs.reserve(seeds.size());
  for (uint64_t seed : seeds) {
    config.seed = seed;
    configs.push_back(config);
  }
  return RunCalls(configs, jobs);
}

}  // namespace converge
