#include "assembly.h"

#include <utility>
#include <variant>

#include "cc/cc_controller.h"
#include "core/video_aware_scheduler.h"
#include "fec/converge_fec_controller.h"
#include "rtp/ssrc_allocator.h"
#include "signaling/negotiation.h"
#include "spans.h"

namespace perfbench {

using namespace converge;

namespace {

// Forwards every Scheduler call to `inner`; AssignFrame runs in a span.
class TracedScheduler final : public Scheduler {
 public:
  explicit TracedScheduler(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::vector<PathId> AssignFrame(const std::vector<RtpPacket>& packets,
                                  const std::vector<PathInfo>& paths) override {
    ScopedSpan span(SpanKind::kAssignFrame);
    return inner_->AssignFrame(packets, paths);
  }
  PathId ChooseRtxPath(const RtpPacket& packet,
                       const std::vector<PathInfo>& paths) override {
    return inner_->ChooseRtxPath(packet, paths);
  }
  PathId ChooseFecPath(const RtpPacket& fec, PathId origin,
                       const std::vector<PathInfo>& paths) override {
    return inner_->ChooseFecPath(fec, origin, paths);
  }
  void OnQoeFeedback(const QoeFeedback& feedback) override {
    inner_->OnQoeFeedback(feedback);
  }
  bool IsPathActive(PathId id) const override {
    return inner_->IsPathActive(id);
  }
  std::vector<PathId> PathsNeedingProbe(Timestamp now) override {
    return inner_->PathsNeedingProbe(now);
  }
  void OnTick(const std::vector<PathInfo>& paths, Timestamp now) override {
    inner_->OnTick(paths, now);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
};

// Forwards every FecController call to `inner`; NumFecPackets runs in a span.
class TracedFec final : public FecController {
 public:
  explicit TracedFec(std::unique_ptr<FecController> inner)
      : inner_(std::move(inner)) {}
  int NumFecPackets(int media_packets, FrameKind kind, PathId path,
                    double path_loss, double aggregate_loss) override {
    ScopedSpan span(SpanKind::kNumFec);
    return inner_->NumFecPackets(media_packets, kind, path, path_loss,
                                 aggregate_loss);
  }
  void OnNack(PathId path, int nacked_packets) override {
    inner_->OnNack(path, nacked_packets);
  }
  void OnFrameSent(PathId path, int media_packets, int fec_packets) override {
    inner_->OnFrameSent(path, media_packets, fec_packets);
  }

 private:
  std::unique_ptr<FecController> inner_;
};

// The helpers below restate Conference's private config helpers
// (session/conference.cc) for the variants Unsupported() accepts.
Sender::Config MakeSenderConfig(const ConferenceConfig& config,
                                int participant, int incarnation) {
  const ParticipantSpec& spec =
      config.participants[static_cast<size_t>(participant)];
  Sender::Config sconf;
  for (int i = 0; i < spec.num_streams; ++i) {
    Sender::StreamConfig sc;
    sc.ssrc = SsrcAllocator::StreamSsrc(participant, i, incarnation);
    sc.camera.stream_id = i;
    sc.camera.fps = config.fps;
    sc.camera.width = config.width;
    sc.camera.height = config.height;
    sc.encoder.max_rate = config.max_rate_per_stream;
    sc.encoder.simulcast_rungs = config.simulcast_rungs;
    sc.encoder.temporal_layers = config.temporal_layers;
    if (config.simulcast_rungs > 1) sc.encoder.adapt_resolution = false;
    sconf.streams.push_back(sc);
  }
  sconf.max_total_rate =
      config.max_rate_per_stream * static_cast<int64_t>(spec.num_streams);
  sconf.cc.algorithm = config.cc_algorithm;
  sconf.cc.max_rate = sconf.max_total_rate * 2;
  sconf.cc_coupling = config.cc_coupling;
  sconf.enable_fec = config.enable_fec;
  return sconf;
}

ReceiverEndpoint::Config MakeReceiverConfig(const ConferenceConfig& config,
                                            int from, int incarnation,
                                            bool subscribe,
                                            PoolArena* arena) {
  ReceiverEndpoint::Config rconf;
  rconf.arena = arena;
  if (subscribe) {
    const ParticipantSpec& spec =
        config.participants[static_cast<size_t>(from)];
    for (int i = 0; i < spec.num_streams; ++i) {
      rconf.ssrcs.push_back(SsrcAllocator::StreamSsrc(from, i, incarnation));
    }
  }
  rconf.stream_template.packet_buffer.capacity_packets =
      config.packet_buffer_capacity;
  rconf.stream_template.frame_buffer.capacity_frames =
      config.frame_buffer_capacity;
  rconf.stream_template.enable_qoe_feedback =
      config.variant == Variant::kConverge;
  rconf.per_path_nack = true;
  return rconf;
}

std::unique_ptr<Scheduler> MakeScheduler(const ConferenceConfig& config) {
  return std::make_unique<TracedScheduler>(
      std::make_unique<VideoAwareScheduler>(config.video_scheduler));
}

std::unique_ptr<FecController> MakeFec(const ConferenceConfig& config) {
  return std::make_unique<TracedFec>(
      std::make_unique<ConvergeFecController>(config.converge_fec));
}

bool ForwardsUpstream(const RtcpPacket& packet) {
  return std::holds_alternative<KeyframeRequest>(packet.payload) ||
         std::holds_alternative<QoeFeedback>(packet.payload);
}

// Link::Send inside a span.
template <typename Fn>
void TracedSend(Link& link, int64_t bytes, Fn&& deliver) {
  ScopedSpan span(SpanKind::kLinkSend);
  link.Send(bytes, std::forward<Fn>(deliver));
}

}  // namespace

struct Assembly::Impl {
  struct Leg;
  struct Uplink {
    int from = 0;
    int incarnation = 0;
    bool live = true;
    std::unique_ptr<Network> network;
    std::unique_ptr<Scheduler> scheduler;
    std::unique_ptr<FecController> fec;
    std::unique_ptr<Sender> sender;
    std::unique_ptr<ReceiverEndpoint> hub_feedback;  // star only
    std::vector<Leg*> fanout;                        // star only
  };
  struct Leg {
    int from = 0;
    int to = 0;
    bool live = true;
    Uplink* uplink = nullptr;
    Network* downlink = nullptr;  // star only
    std::unique_ptr<MetricsCollector> metrics;
    std::unique_ptr<ReceiverEndpoint> receiver;
  };

  explicit Impl(const ConferenceConfig& c) : config(c) {
    if (config.participants.empty()) {
      config.participants = {ParticipantSpec{}, ParticipantSpec{}};
    }
    n = static_cast<int>(config.participants.size());
    present.resize(static_cast<size_t>(n));
    for (int p = 0; p < n; ++p) {
      present[static_cast<size_t>(p)] =
          MembershipPresentAtStart(p, config.membership) ? 1 : 0;
    }
    Random rng(config.seed);
    if (config.topology == Topology::kMesh) {
      BuildMesh(rng);
    } else {
      BuildStar(rng);
    }
    churn_rng = rng.Fork();
  }

  std::vector<PathSpec> EdgePaths(int from, int to) const {
    return config.paths_for_edge ? config.paths_for_edge(from, to)
                                 : config.paths;
  }

  std::unique_ptr<MetricsCollector> MakeMetrics(int from) {
    MetricsCollector::Config mconf;
    mconf.num_streams =
        config.participants[static_cast<size_t>(from)].num_streams;
    mconf.expected_frame_interval = Duration::Seconds(1.0 / config.fps);
    return std::make_unique<MetricsCollector>(&loop, mconf);
  }

  bool InCall(int p, bool(ParticipantSpec::*role)) const {
    return present[static_cast<size_t>(p)] != 0 &&
           config.participants[static_cast<size_t>(p)].*role;
  }

  // --- mesh: Conference::BuildMeshLeg's component order ---
  void BuildMesh(Random& rng) {
    for (int from = 0; from < n; ++from) {
      if (!InCall(from, &ParticipantSpec::sends)) continue;
      for (int to = 0; to < n; ++to) {
        if (to == from || !InCall(to, &ParticipantSpec::receives)) continue;
        uplinks.push_back(std::make_unique<Uplink>());
        Uplink& up = *uplinks.back();
        legs.push_back(std::make_unique<Leg>());
        Leg* leg = legs.back().get();
        up.from = from;
        leg->from = from;
        leg->to = to;
        leg->uplink = &up;
        up.network =
            std::make_unique<Network>(&loop, EdgePaths(from, to), rng.Fork());
        up.scheduler = MakeScheduler(config);
        up.fec = MakeFec(config);
        leg->metrics = MakeMetrics(from);
        up.sender = std::make_unique<Sender>(
            &loop, MakeSenderConfig(config, from, 0), up.scheduler.get(),
            up.fec.get(), up.network->path_ids(), rng.Fork(),
            [leg](PathId path, RtpPacket packet) {
              MeshTransmitRtp(leg, path, std::move(packet));
            },
            [leg](PathId path, const RtcpPacket& packet) {
              if (!leg->live) return;
              TracedSend(leg->uplink->network->path(path).forward(),
                         packet.wire_size(),
                         [leg, packet, path](Timestamp arrival) {
                           ScopedSpan span(SpanKind::kOnRtcp);
                           leg->receiver->OnRtcpPacket(packet, arrival, path);
                         });
            });
        leg->receiver = std::make_unique<ReceiverEndpoint>(
            &loop, MakeReceiverConfig(config, from, 0, true, &arena),
            leg->metrics.get(), [leg](PathId path, const RtcpPacket& packet) {
              if (!leg->live) return;
              TracedSend(leg->uplink->network->path(path).backward(),
                         packet.wire_size(), [leg, packet](Timestamp arrival) {
                           ScopedSpan span(SpanKind::kHandleRtcp);
                           leg->uplink->sender->HandleRtcp(packet, arrival);
                         });
            });
      }
    }
  }

  static void MeshTransmitRtp(Leg* leg, PathId path, RtpPacket packet) {
    if (!leg->live) return;
    const int64_t wire_bytes = packet.wire_size();
    Link& link = leg->uplink->network->path(path).forward();
    for (int copy = link.SendCopies(); copy > 1; --copy) {
      TracedSend(link, wire_bytes,
                 [leg, packet, path](Timestamp arrival) mutable {
                   ScopedSpan span(SpanKind::kOnRtp);
                   leg->receiver->OnRtpPacket(std::move(packet), arrival, path);
                 });
    }
    TracedSend(link, wire_bytes,
               [leg, packet = std::move(packet),
                path](Timestamp arrival) mutable {
                 ScopedSpan span(SpanKind::kOnRtp);
                 leg->receiver->OnRtpPacket(std::move(packet), arrival, path);
               });
  }

  // --- single-hub star: Conference::BuildStar's phase order ---
  void BuildStar(Random& rng) {
    downlinks.resize(static_cast<size_t>(n));
    forwarders.resize(static_cast<size_t>(n));
    leg_lookup.assign(static_cast<size_t>(n),
                      std::vector<Leg*>(static_cast<size_t>(n), nullptr));
    for (int to = 0; to < n; ++to) {
      if (InCall(to, &ParticipantSpec::receives)) BuildStarDownlink(to, rng);
    }
    for (int from = 0; from < n; ++from) {
      if (InCall(from, &ParticipantSpec::sends)) BuildStarUplink(from, 0, rng);
    }
    for (auto& up : uplinks) {
      for (int to = 0; to < n; ++to) {
        if (to == up->from || !InCall(to, &ParticipantSpec::receives)) {
          continue;
        }
        BuildStarLeg(up.get(), to);
      }
    }
    for (int to = 0; to < n; ++to) {
      if (InCall(to, &ParticipantSpec::receives)) BuildStarForwarder(to);
    }
  }

  void BuildStarDownlink(int to, Random& rng) {
    downlinks[static_cast<size_t>(to)] =
        std::make_unique<Network>(&loop, EdgePaths(kHubId, to), rng.Fork());
  }

  Uplink* BuildStarUplink(int from, int incarnation, Random& rng) {
    uplinks.push_back(std::make_unique<Uplink>());
    Uplink* up = uplinks.back().get();
    up->from = from;
    up->incarnation = incarnation;
    up->network =
        std::make_unique<Network>(&loop, EdgePaths(from, kHubId), rng.Fork());
    up->scheduler = MakeScheduler(config);
    up->fec = MakeFec(config);
    up->sender = std::make_unique<Sender>(
        &loop, MakeSenderConfig(config, from, incarnation),
        up->scheduler.get(), up->fec.get(), up->network->path_ids(),
        rng.Fork(),
        [this, up](PathId path, RtpPacket packet) {
          StarTransmitRtp(up, path, std::move(packet));
        },
        [this, up](PathId path, const RtcpPacket& packet) {
          StarTransmitRtcpForward(up, path, packet);
        });
    up->hub_feedback = std::make_unique<ReceiverEndpoint>(
        &loop, MakeReceiverConfig(config, from, incarnation, false, &arena),
        nullptr, [up](PathId path, const RtcpPacket& packet) {
          TracedSend(up->network->path(path).backward(), packet.wire_size(),
                     [up, packet](Timestamp arrival) {
                       ScopedSpan span(SpanKind::kHandleRtcp);
                       up->sender->HandleRtcp(packet, arrival);
                     });
        });
    return up;
  }

  Leg* BuildStarLeg(Uplink* up, int to) {
    legs.push_back(std::make_unique<Leg>());
    Leg* leg = legs.back().get();
    leg->from = up->from;
    leg->to = to;
    leg->uplink = up;
    leg->downlink = downlinks[static_cast<size_t>(to)].get();
    leg->metrics = MakeMetrics(up->from);
    leg->receiver = std::make_unique<ReceiverEndpoint>(
        &loop,
        MakeReceiverConfig(config, up->from, up->incarnation, true, &arena),
        leg->metrics.get(), [this, leg](PathId path, const RtcpPacket& packet) {
          StarTransmitRtcpBackward(leg, path, packet);
        });
    up->fanout.push_back(leg);
    leg_lookup[static_cast<size_t>(to)][static_cast<size_t>(up->from)] = leg;
    return leg;
  }

  void BuildStarForwarder(int to) {
    Network* down = downlinks[static_cast<size_t>(to)].get();
    if (down == nullptr) return;
    DataRate aggregate = DataRate::Zero();
    for (int from = 0; from < n; ++from) {
      if (from == to || !InCall(from, &ParticipantSpec::sends)) continue;
      aggregate = aggregate +
                  config.max_rate_per_stream *
                      static_cast<int64_t>(
                          config.participants[static_cast<size_t>(from)]
                              .num_streams);
    }
    HubForwarder::Config hconf = config.hub;
    hconf.cc.controller.algorithm = config.cc_algorithm;
    hconf.cc.controller.start_rate = aggregate;
    hconf.cc.controller.max_rate = aggregate * 2;
    hconf.cc.controller.trace_component =
        HubTraceComponent(config.cc_algorithm);
    hconf.layers.enabled = config.simulcast_rungs > 1;
    forwarders[static_cast<size_t>(to)] = std::make_unique<HubForwarder>(
        &loop, hconf, down->path_ids(),
        [this, to](int from, PathId path, RtpPacket packet) {
          Leg* leg =
              leg_lookup[static_cast<size_t>(to)][static_cast<size_t>(from)];
          if (leg == nullptr || !leg->live) return;
          StarDeliverDownlink(leg, path, std::move(packet));
        },
        [this](int from, uint32_t ssrc, PathId path) {
          if (Uplink* u = LiveUplinkOf(from)) StarRelayPli(u, ssrc, path);
        });
  }

  Uplink* LiveUplinkOf(int p) {
    for (auto& up : uplinks) {
      if (up->live && up->from == p) return up.get();
    }
    return nullptr;
  }

  void StarTransmitRtp(Uplink* up, PathId path, RtpPacket packet) {
    if (!up->live) return;
    const int64_t wire_bytes = packet.wire_size();
    Link& link = up->network->path(path).forward();
    for (int copy = link.SendCopies(); copy > 1; --copy) {
      TracedSend(link, wire_bytes,
                 [this, up, packet, path](Timestamp arrival) mutable {
                   StarHubDeliverRtp(up, path, std::move(packet), arrival);
                 });
    }
    TracedSend(link, wire_bytes,
               [this, up, packet = std::move(packet),
                path](Timestamp arrival) mutable {
                 StarHubDeliverRtp(up, path, std::move(packet), arrival);
               });
  }

  void StarHubDeliverRtp(Uplink* up, PathId path, RtpPacket packet,
                         Timestamp arrival) {
    {
      ScopedSpan span(SpanKind::kOnRtp);
      RtpPacket hub_copy = packet;
      up->hub_feedback->OnRtpPacket(std::move(hub_copy), arrival, path);
    }
    for (size_t k = 0; k < up->fanout.size(); ++k) {
      Leg* leg = up->fanout[k];
      if (!leg->live) continue;
      RtpPacket fwd = (k + 1 == up->fanout.size()) ? std::move(packet)
                                                   : RtpPacket(packet);
      ScopedSpan span(SpanKind::kHubMedia);
      forwarders[static_cast<size_t>(leg->to)]->OnMediaFromUplink(
          leg->from, path, std::move(fwd));
    }
  }

  static void StarDeliverDownlink(Leg* leg, PathId path, RtpPacket packet) {
    const int64_t wire_bytes = packet.wire_size();
    Link& down = leg->downlink->path(path).forward();
    for (int copy = down.SendCopies(); copy > 1; --copy) {
      TracedSend(down, wire_bytes, [leg, packet, path](Timestamp at) mutable {
        ScopedSpan span(SpanKind::kOnRtp);
        leg->receiver->OnRtpPacket(std::move(packet), at, path);
      });
    }
    TracedSend(down, wire_bytes,
               [leg, packet = std::move(packet), path](Timestamp at) mutable {
                 ScopedSpan span(SpanKind::kOnRtp);
                 leg->receiver->OnRtpPacket(std::move(packet), at, path);
               });
  }

  static void StarRelayPli(Uplink* up, uint32_t ssrc, PathId path) {
    RtcpPacket pli;
    pli.path_id = path;
    pli.payload = KeyframeRequest{ssrc};
    TracedSend(up->network->path(path).backward(), pli.wire_size(),
               [up, pli](Timestamp arrival) {
                 ScopedSpan span(SpanKind::kHandleRtcp);
                 up->sender->HandleRtcp(pli, arrival);
               });
  }

  void StarTransmitRtcpForward(Uplink* up, PathId path,
                               const RtcpPacket& packet) {
    if (!up->live) return;
    TracedSend(up->network->path(path).forward(), packet.wire_size(),
               [up, packet, path](Timestamp arrival) {
                 {
                   ScopedSpan span(SpanKind::kOnRtcp);
                   up->hub_feedback->OnRtcpPacket(packet, arrival, path);
                 }
                 for (Leg* leg : up->fanout) {
                   if (!leg->live) continue;
                   TracedSend(leg->downlink->path(path).forward(),
                              packet.wire_size(),
                              [leg, packet, path](Timestamp at) {
                                ScopedSpan span(SpanKind::kOnRtcp);
                                leg->receiver->OnRtcpPacket(packet, at, path);
                              });
                 }
               });
  }

  void StarTransmitRtcpBackward(Leg* leg, PathId path,
                                const RtcpPacket& packet) {
    if (!leg->live) return;
    TracedSend(
        leg->downlink->path(path).backward(), packet.wire_size(),
        [this, leg, path, packet](Timestamp) {
          if (!leg->live) return;
          {
            ScopedSpan span(SpanKind::kHubRtcp);
            if (forwarders[static_cast<size_t>(leg->to)]->OnReceiverRtcp(
                    leg->from, path, packet)) {
              return;
            }
          }
          if (!ForwardsUpstream(packet)) return;
          Uplink* up = leg->uplink;
          TracedSend(up->network->path(path).backward(), packet.wire_size(),
                     [up, packet](Timestamp arrival) {
                       ScopedSpan span(SpanKind::kHandleRtcp);
                       up->sender->HandleRtcp(packet, arrival);
                     });
        });
  }

  // --- churn (single-hub star) ---
  void Leave(int p) {
    present[static_cast<size_t>(p)] = 0;
    for (auto& leg : legs) {
      if (leg->live && (leg->from == p || leg->to == p)) {
        leg->live = false;
        leg->receiver->Stop();
        leg->metrics->Stop();
      }
    }
    for (auto& up : uplinks) {
      if (up->live && up->from == p) {
        up->live = false;
        up->sender->Stop();
        if (up->hub_feedback != nullptr) up->hub_feedback->Stop();
      }
    }
    if (forwarders[static_cast<size_t>(p)] != nullptr) {
      forwarders[static_cast<size_t>(p)]->Stop();
      retired_forwarders.push_back(
          std::move(forwarders[static_cast<size_t>(p)]));
    }
    if (downlinks[static_cast<size_t>(p)] != nullptr) {
      retired_downlinks.push_back(std::move(downlinks[static_cast<size_t>(p)]));
    }
    for (int q = 0; q < n; ++q) {
      if (forwarders[static_cast<size_t>(q)] != nullptr) {
        forwarders[static_cast<size_t>(q)]->ResetOrigin(p);
      }
      leg_lookup[static_cast<size_t>(p)][static_cast<size_t>(q)] = nullptr;
      leg_lookup[static_cast<size_t>(q)][static_cast<size_t>(p)] = nullptr;
    }
  }

  void Join(int p) {
    const Timestamp now = loop.now();
    present[static_cast<size_t>(p)] = 1;
    const ParticipantSpec& spec = config.participants[static_cast<size_t>(p)];
    const int inc = MembershipIncarnationAt(p, now, config.membership);
    std::vector<Leg*> fresh_legs;
    std::vector<Uplink*> fresh_ups;
    if (spec.receives) BuildStarDownlink(p, churn_rng);
    if (spec.sends) {
      Uplink* up = BuildStarUplink(p, inc, churn_rng);
      fresh_ups.push_back(up);
      for (int q = 0; q < n; ++q) {
        if (q == p || !InCall(q, &ParticipantSpec::receives)) continue;
        fresh_legs.push_back(BuildStarLeg(up, q));
      }
    }
    if (spec.receives) {
      for (auto& up : uplinks) {
        if (!up->live || up->from == p) continue;
        fresh_legs.push_back(BuildStarLeg(up.get(), p));
      }
      BuildStarForwarder(p);
    }
    for (Leg* leg : fresh_legs) leg->receiver->Start();
    for (Uplink* up : fresh_ups) {
      if (up->hub_feedback != nullptr) up->hub_feedback->Start();
    }
    for (Uplink* up : fresh_ups) up->sender->Start();
  }

  void Start() {
    for (auto& leg : legs) leg->receiver->Start();
    for (auto& up : uplinks) {
      if (up->hub_feedback != nullptr) up->hub_feedback->Start();
    }
    for (auto& up : uplinks) up->sender->Start();
    for (const MembershipEvent& ev : config.membership) {
      loop.ScheduleAt(ev.at, [this, ev] {
        if (ev.kind == MembershipEvent::Kind::kJoin) {
          Join(ev.participant);
        } else {
          Leave(ev.participant);
        }
      });
    }
  }

  ConferenceConfig config;
  int n = 0;
  EventLoop loop;
  PoolArena arena;
  std::vector<std::unique_ptr<Network>> downlinks;
  std::vector<std::unique_ptr<HubForwarder>> forwarders;
  std::vector<std::vector<Leg*>> leg_lookup;
  std::vector<std::unique_ptr<Uplink>> uplinks;
  std::vector<std::unique_ptr<Leg>> legs;
  std::vector<std::unique_ptr<Network>> retired_downlinks;
  std::vector<std::unique_ptr<HubForwarder>> retired_forwarders;
  Random churn_rng{0};
  std::vector<char> present;
};

std::string Assembly::Unsupported(const ConferenceConfig& config) {
  if (config.variant != Variant::kConverge &&
      config.variant != Variant::kConvergeNoFeedback) {
    return "variant " + ToString(config.variant);
  }
  if (config.num_hubs != 1) return "multi-hub cascade";
  if (config.topology == Topology::kMesh && !config.membership.empty()) {
    return "mesh churn";
  }
  if (config.topology == Topology::kMesh && config.simulcast_rungs > 1) {
    return "mesh simulcast";
  }
  return "";
}

Assembly::Assembly(const ConferenceConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

Assembly::~Assembly() = default;

void Assembly::Start() {
  ScopedSpan span(SpanKind::kStart);
  impl_->Start();
}

void Assembly::RunUntil(Timestamp t) {
  ScopedSpan span(SpanKind::kRunUntil);
  impl_->loop.RunUntil(t);
}

PipelineView Assembly::View() const {
  PipelineView view;
  view.events = impl_->loop.executed_events();
  for (const auto& leg : impl_->legs) {
    view.networks.push_back(leg->uplink->network.get());
    view.senders.push_back(leg->uplink->sender.get());
    view.receivers.push_back(leg->receiver.get());
  }
  for (const auto& fwd : impl_->forwarders) view.forwarders.push_back(fwd.get());
  return view;
}

}  // namespace perfbench
