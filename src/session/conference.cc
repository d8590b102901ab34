#include "session/conference.h"

#include <algorithm>
#include <string>
#include <utility>
#include <variant>

#include "util/invariants.h"
#include "util/parallel.h"

#include "core/video_aware_scheduler.h"
#include "fec/converge_fec_controller.h"
#include "fec/webrtc_fec_controller.h"
#include "rtp/ssrc_allocator.h"
#include "schedulers/connection_migration.h"
#include "schedulers/ecf_scheduler.h"
#include "schedulers/mprtp_scheduler.h"
#include "schedulers/mtput_scheduler.h"
#include "schedulers/single_path.h"
#include "schedulers/srtt_scheduler.h"

namespace converge {

std::string ToString(Variant v) {
  switch (v) {
    case Variant::kWebRtcPath0:
      return "WebRTC(p0)";
    case Variant::kWebRtcPath1:
      return "WebRTC(p1)";
    case Variant::kWebRtcCm:
      return "WebRTC-CM";
    case Variant::kSrtt:
      return "SRTT";
    case Variant::kEcf:
      return "ECF";
    case Variant::kMtput:
      return "M-TPUT";
    case Variant::kMrtp:
      return "M-RTP";
    case Variant::kConverge:
      return "Converge";
    case Variant::kConvergeNoFeedback:
      return "Converge-NoFB";
    case Variant::kConvergeWebRtcFec:
      return "Converge-TblFEC";
  }
  return "?";
}

bool IsMultipath(Variant v) {
  switch (v) {
    case Variant::kWebRtcPath0:
    case Variant::kWebRtcPath1:
    case Variant::kWebRtcCm:
      return false;
    case Variant::kSrtt:
    case Variant::kEcf:
    case Variant::kMtput:
    case Variant::kMrtp:
    case Variant::kConverge:
    case Variant::kConvergeNoFeedback:
    case Variant::kConvergeWebRtcFec:
      return true;
  }
  return true;
}

std::string ToString(Topology t) {
  switch (t) {
    case Topology::kMesh:
      return "mesh";
    case Topology::kStar:
      return "star";
  }
  return "?";
}

namespace {

std::unique_ptr<Scheduler> MakeScheduler(const ConferenceConfig& config) {
  switch (config.variant) {
    case Variant::kWebRtcPath0:
      return std::make_unique<SinglePathScheduler>(0);
    case Variant::kWebRtcPath1:
      return std::make_unique<SinglePathScheduler>(1);
    case Variant::kWebRtcCm:
      return std::make_unique<ConnectionMigrationScheduler>();
    case Variant::kSrtt:
      return std::make_unique<SrttScheduler>();
    case Variant::kEcf:
      return std::make_unique<EcfScheduler>();
    case Variant::kMtput:
      return std::make_unique<MtputScheduler>();
    case Variant::kMrtp:
      return std::make_unique<MprtpScheduler>();
    case Variant::kConverge:
    case Variant::kConvergeNoFeedback:
    case Variant::kConvergeWebRtcFec:
      return std::make_unique<VideoAwareScheduler>(config.video_scheduler);
  }
  // The switch above is exhaustive; only a Variant forged from an
  // out-of-range integer lands here. Scream under the harness, then degrade
  // to single-path so release builds still produce a run.
  CONVERGE_INVARIANT(
      "Conference", Timestamp::MinusInfinity(), false,
      "unknown Variant " +
          std::to_string(static_cast<int>(config.variant)));
  return std::make_unique<SinglePathScheduler>(0);
}

std::unique_ptr<FecController> MakeFec(const ConferenceConfig& config) {
  switch (config.variant) {
    case Variant::kConverge:
    case Variant::kConvergeNoFeedback:
      return std::make_unique<ConvergeFecController>(config.converge_fec);
    case Variant::kWebRtcPath0:
    case Variant::kWebRtcPath1:
    case Variant::kWebRtcCm:
    case Variant::kSrtt:
    case Variant::kEcf:
    case Variant::kMtput:
    case Variant::kMrtp:
    case Variant::kConvergeWebRtcFec:
      // Baselines and the table-FEC ablation use stock WebRTC protection.
      return std::make_unique<WebRtcFecController>();
  }
  CONVERGE_INVARIANT(
      "Conference", Timestamp::MinusInfinity(), false,
      "unknown Variant " +
          std::to_string(static_cast<int>(config.variant)));
  return std::make_unique<WebRtcFecController>();
}

bool QoeFeedbackEnabled(Variant v) {
  return v == Variant::kConverge || v == Variant::kConvergeWebRtcFec;
}

// The per-path sequence spaces (Appendix B RTP extension) exist only on
// Converge endpoints; everything else runs standard SSRC-sequence NACK.
bool HasMultipathRtpExtension(Variant v) {
  return v == Variant::kConverge || v == Variant::kConvergeNoFeedback ||
         v == Variant::kConvergeWebRtcFec;
}

// End-to-end signals the star hub relays to the origin sender: keyframe
// requests (the origin owns the encoder) and Converge QoE feedback (the
// origin owns the scheduler split). Everything else from a downlink
// receiver is consumed at the hub: RR/transport feedback drive the
// per-downlink congestion controllers and NACKs are answered from hub
// history (HubForwarder::OnReceiverRtcp) — the uplink congestion loop is
// closed separately by the hub's own feedback endpoint, so the origin's
// GCC must never see downlink feedback.
bool ForwardsUpstream(const RtcpPacket& packet) {
  return std::holds_alternative<KeyframeRequest>(packet.payload) ||
         std::holds_alternative<QoeFeedback>(packet.payload);
}

// A hub-originated keyframe request for `ssrc`, describing `path`.
RtcpPacket KeyframeRequestOn(PathId path, uint32_t ssrc) {
  RtcpPacket pli;
  pli.path_id = path;
  pli.payload = KeyframeRequest{ssrc};
  return pli;
}

// Puts `packet` on `link`, plus one clone per duplication fault: the link
// only sees bytes and a move-only continuation, so it cannot copy a packet
// itself. `deliver(packet, arrival)` runs at the far end of the link. The
// in-flight packet rides inside the link's inline delivery callback, so a
// transmitted packet costs no heap allocation.
template <typename Deliver>
void SendRtp(Link& link, RtpPacket packet, Deliver deliver) {
  const int64_t wire_bytes = packet.wire_size();
  auto in_flight = [deliver, packet = std::move(packet)](
                       Timestamp arrival) mutable {
    deliver(std::move(packet), arrival);
  };
  static_assert(sizeof(in_flight) <= Link::kDeliverInlineBytes,
                "an in-flight packet must fit the link's inline callback");
  for (int copy = link.SendCopies(); copy > 1; --copy) {
    link.Send(wire_bytes, decltype(in_flight)(in_flight));
  }
  link.Send(wire_bytes, std::move(in_flight));
}

}  // namespace

Conference::Conference(const ConferenceConfig& config) : config_(config) {
  if (config_.participants.empty()) {
    config_.participants = {ParticipantSpec{}, ParticipantSpec{}};
  }
  const int n = static_cast<int>(config_.participants.size());
  CONVERGE_INVARIANT("Conference", Timestamp::Zero(), n >= 2,
                     "conference needs >= 2 participants, got " +
                         std::to_string(n));
  CONVERGE_INVARIANT(
      "Conference", Timestamp::Zero(),
      n <= SsrcAllocator::kMaxParticipantsPerIncarnation,
      "too many participants for the SSRC layout: " + std::to_string(n));
  for (const ParticipantSpec& p : config_.participants) {
    CONVERGE_INVARIANT(
        "Conference", Timestamp::Zero(),
        p.num_streams >= 1 &&
            p.num_streams <= SsrcAllocator::kMaxStreamsPerParticipant,
        "num_streams out of range: " + std::to_string(p.num_streams));
  }
  {
    std::stable_sort(config_.membership.begin(), config_.membership.end(),
                     [](const MembershipEvent& a, const MembershipEvent& b) {
                       return a.at < b.at;
                     });
    const std::string error = ValidateMembership(n, config_.membership);
    CONVERGE_INVARIANT("Conference", Timestamp::Zero(), error.empty(), error);
    if (!error.empty()) config_.membership.clear();
  }
  present_.resize(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) {
    present_[static_cast<size_t>(p)] =
        MembershipPresentAtStart(p, config_.membership) ? 1 : 0;
  }
  // Hub-graph validation. The cascade is a star concept; a mesh with
  // num_hubs > 1 is rejected and degraded to the plain mesh.
  if (config_.num_hubs < 1) {
    CONVERGE_INVARIANT("Conference", Timestamp::Zero(), false,
                       "num_hubs must be >= 1, got " +
                           std::to_string(config_.num_hubs));
    config_.num_hubs = 1;
  }
  if (config_.num_hubs > 1 && config_.topology != Topology::kStar) {
    CONVERGE_INVARIANT("Conference", Timestamp::Zero(), false,
                       "multi-hub cascade requires the star topology");
    config_.num_hubs = 1;
  }
  CONVERGE_INVARIANT(
      "Conference", Timestamp::Zero(),
      config_.home_hub.empty() ||
          config_.home_hub.size() == static_cast<size_t>(n),
      "home_hub must be empty or have one entry per participant");
  CONVERGE_INVARIANT(
      "Conference", Timestamp::Zero(),
      config_.hub_fault_plans.size() <=
          static_cast<size_t>(config_.num_hubs),
      "more hub fault plans than hubs");
  // Layered-media gating. Simulcast needs (a) the star topology — a mesh
  // receiver would get every rung and the receiver's PacketBuffer keys
  // frames by (stream, frame_id), so two rungs of one capture would collide
  // — and (b) a Converge-family variant: rung filtering leaves per-SSRC
  // `seq` gaps at the hub, which only the multipath extension's per-path
  // (mp_seq-based) NACK machinery tolerates. Invalid combinations degrade
  // to single-layer through the invariant registry, mirroring the hub-graph
  // rules above.
  if (config_.simulcast_rungs < 1) config_.simulcast_rungs = 1;
  if (config_.temporal_layers < 1) config_.temporal_layers = 1;
  if (config_.simulcast_rungs > HubForwarder::kMaxRungs) {
    CONVERGE_INVARIANT("Conference", Timestamp::Zero(), false,
                       "simulcast_rungs " +
                           std::to_string(config_.simulcast_rungs) +
                           " exceeds the wire/selection limit of " +
                           std::to_string(HubForwarder::kMaxRungs));
    config_.simulcast_rungs = HubForwarder::kMaxRungs;
  }
  if (config_.temporal_layers > 4) config_.temporal_layers = 4;
  if (config_.simulcast_rungs > 1 && config_.topology != Topology::kStar) {
    CONVERGE_INVARIANT("Conference", Timestamp::Zero(), false,
                       "simulcast requires the star topology");
    config_.simulcast_rungs = 1;
  }
  if (config_.simulcast_rungs > 1 &&
      !HasMultipathRtpExtension(config_.variant)) {
    CONVERGE_INVARIANT(
        "Conference", Timestamp::Zero(), false,
        "simulcast requires a Converge-family variant (per-path NACK)");
    config_.simulcast_rungs = 1;
  }
  home_hub_.resize(static_cast<size_t>(n), 0);
  for (int p = 0; p < n; ++p) {
    int hub = p % config_.num_hubs;
    if (config_.home_hub.size() == static_cast<size_t>(n)) {
      const int pinned = config_.home_hub[static_cast<size_t>(p)];
      if (pinned >= 0 && pinned < config_.num_hubs) {
        hub = pinned;
      } else {
        CONVERGE_INVARIANT("Conference", Timestamp::Zero(), false,
                           "home_hub[" + std::to_string(p) + "]=" +
                               std::to_string(pinned) + " outside [0, " +
                               std::to_string(config_.num_hubs) + ")");
      }
    }
    home_hub_[static_cast<size_t>(p)] = hub;
  }
  hub_alive_.assign(static_cast<size_t>(config_.num_hubs), 1);
  hub_failures_.assign(static_cast<size_t>(config_.num_hubs), 0);
  rehomed_away_.assign(static_cast<size_t>(config_.num_hubs), 0);
  rehomed_onto_.assign(static_cast<size_t>(config_.num_hubs), 0);
  extra_incarnations_.assign(static_cast<size_t>(n), 0);
  if (config_.trace_capacity > 0) {
    trace_ = std::make_unique<TraceRecorder>(config_.trace_capacity);
  }
  Random rng(config_.seed);
  if (config_.topology == Topology::kMesh) {
    BuildMesh(rng);
  } else {
    BuildStar(rng);
  }
  // Forked last: the initial build above consumes exactly the historical
  // fork sequence, so churn-free configs stay byte-identical.
  churn_rng_ = rng.Fork();
}

Conference::~Conference() = default;

std::vector<PathSpec> Conference::EdgePaths(int from, int to) const {
  return config_.paths_for_edge ? config_.paths_for_edge(from, to)
                                : config_.paths;
}

namespace {

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
    if (config.simulcast_rungs > 1) {
      // Layered mode moves the resolution choice to the hub's per-receiver
      // rung selection; the sender-side adaptive ladder would fight it.
      sc.encoder.adapt_resolution = false;
    }
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

// Receiver-side subscription to `from`'s published streams. `subscribe` is
// false for the star hub's feedback-only endpoint: it answers RR/transport
// feedback/NACK for the uplink but never decodes media.
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
      QoeFeedbackEnabled(config.variant);
  rconf.per_path_nack = HasMultipathRtpExtension(config.variant);
  return rconf;
}

}  // namespace

// One sending pipeline from `from` toward `to`: a receiving peer (mesh) or
// kHubId (star). Both are built in the historical order: network fork,
// scheduler, FEC, the mesh leg's metrics, sender fork, then the far end (the
// mesh leg's receiver, or the hub's feedback-only endpoint). With one
// sending and one receiving participant this IS the old point-to-point Call,
// RNG stream and event schedule included, which is what keeps the 2-party
// adapter byte-identical. The initial build passes the construction RNG;
// mid-call joins and re-homings pass churn_rng_.
Conference::Uplink* Conference::BuildUplink(int from, int to, int incarnation,
                                            Random& rng) {
  uplinks_.push_back(std::make_unique<Uplink>());
  Uplink* up = uplinks_.back().get();
  up->from = from;
  up->to = to;
  up->incarnation = incarnation;
  up->hub = home_hub_[static_cast<size_t>(from)];
  {
    TraceParticipantScope scope(from);
    up->network =
        std::make_unique<Network>(&loop_, EdgePaths(from, to), rng.Fork());
    up->scheduler = MakeScheduler(config_);
    up->fec = MakeFec(config_);
  }
  Leg* leg = to == kHubId ? nullptr : NewLeg(up, to);
  {
    TraceParticipantScope scope(from);
    up->sender = std::make_unique<Sender>(
        &loop_, MakeSenderConfig(config_, from, incarnation),
        up->scheduler.get(), up->fec.get(), up->network->path_ids(),
        rng.Fork(),
        [this, up](PathId path, RtpPacket packet) {
          TransmitRtp(up, path, std::move(packet));
        },
        [this, up](PathId path, const RtcpPacket& packet) {
          TransmitRtcp(up, path, packet);
        });
  }
  if (leg != nullptr) {
    BuildLegReceiver(leg, [up](PathId path, const RtcpPacket& packet) {
      if (up->live) SendRtcpToSender(up, path, packet);
    });
    up->far_end = leg->receiver.get();
    return up;
  }
  TraceParticipantScope scope(from);
  // Stopped by a leave, the hub endpoint still answers in-flight arrivals.
  up->hub_feedback = std::make_unique<ReceiverEndpoint>(
      &loop_,
      MakeReceiverConfig(config_, from, incarnation, /*subscribe=*/false,
                         &arena_),
      /*metrics=*/nullptr, [up](PathId path, const RtcpPacket& packet) {
        SendRtcpToSender(up, path, packet);
      });
  up->far_end = up->hub_feedback.get();
  // The hub forwards uplink path p onto downlink path p, so every edge of
  // a star must expose the same number of paths.
  for (size_t p = 0; p < downlinks_.size(); ++p) {
    const Network* down = downlinks_[p].get();
    CONVERGE_INVARIANT(
        "Conference", Timestamp::Zero(),
        down == nullptr || down->num_paths() == up->network->num_paths(),
        "star edge path-count mismatch: uplink " + std::to_string(from) +
            " has " + std::to_string(up->network->num_paths()) +
            ", downlink " + std::to_string(p) + " has " +
            std::to_string(down == nullptr ? 0 : down->num_paths()));
  }
  // Mid-call builds (joins, re-homings) register with the trunks already
  // leaving this hub; the initial build has no trunks yet — BuildTrunk
  // registers the existing uplinks itself.
  for (auto& t : trunks_) {
    if (t->live && t->from_hub == up->hub) BuildTrunkAgent(t.get(), up);
  }
  return up;
}

// A receiving leg of `up` toward `to`, with its metrics. Its receiver comes
// later, from BuildLegReceiver.
Conference::Leg* Conference::NewLeg(Uplink* up, int to) {
  legs_.push_back(std::make_unique<Leg>());
  Leg* leg = legs_.back().get();
  leg->from = up->from;
  leg->to = to;
  leg->incarnation = up->incarnation;
  leg->hub = home_hub_[static_cast<size_t>(to)];
  leg->uplink = up;
  TraceParticipantScope scope(to);
  MetricsCollector::Config mconf;
  mconf.num_streams =
      config_.participants[static_cast<size_t>(up->from)].num_streams;
  mconf.expected_frame_interval = Duration::Seconds(1.0 / config_.fps);
  leg->metrics = std::make_unique<MetricsCollector>(&loop_, mconf);
  return leg;
}

void Conference::BuildLegReceiver(Leg* leg,
                                  ReceiverEndpoint::TransmitRtcpFn feedback) {
  TraceParticipantScope scope(leg->to);
  leg->receiver = std::make_unique<ReceiverEndpoint>(
      &loop_,
      MakeReceiverConfig(config_, leg->from, leg->incarnation,
                         /*subscribe=*/true, &arena_),
      leg->metrics.get(), std::move(feedback));
}

void Conference::BuildMesh(Random& rng) {
  const int n = static_cast<int>(config_.participants.size());
  size_t num_legs = 0;
  for (int from = 0; from < n; ++from) {
    if (!config_.participants[static_cast<size_t>(from)].sends) continue;
    for (int to = 0; to < n; ++to) {
      if (to == from) continue;
      if (config_.participants[static_cast<size_t>(to)].receives) ++num_legs;
    }
  }
  uplinks_.reserve(num_legs);
  legs_.reserve(num_legs);

  for (int from = 0; from < n; ++from) {
    if (!present_[static_cast<size_t>(from)]) continue;
    if (!config_.participants[static_cast<size_t>(from)].sends) continue;
    for (int to = 0; to < n; ++to) {
      if (to == from) continue;
      if (!present_[static_cast<size_t>(to)]) continue;
      if (!config_.participants[static_cast<size_t>(to)].receives) continue;
      BuildUplink(from, to, /*incarnation=*/0, rng);
    }
  }
}

// Hub->participant downlink network, shared by every stream forwarded to
// that participant.
void Conference::BuildDownlink(int to, Random& rng) {
  TraceParticipantScope scope(to);
  downlinks_[static_cast<size_t>(to)] =
      std::make_unique<Network>(&loop_, EdgePaths(kHubId, to), rng.Fork());
}

// A star leg: its receiver's feedback rides the downlink to the hub, and
// the leg joins the uplink's fan-out.
void Conference::BuildHubLeg(Uplink* up, int to) {
  Leg* leg = NewLeg(up, to);
  leg->downlink = downlinks_[static_cast<size_t>(to)].get();
  BuildLegReceiver(leg, [this, leg](PathId path, const RtcpPacket& packet) {
    SendRtcpToHub(leg, path, packet);
  });
  up->fanout.push_back(leg);
  star_leg_lookup_[static_cast<size_t>(to)][static_cast<size_t>(up->from)] =
      leg;
}

// Per-receiver forwarding engine.
void Conference::BuildForwarder(int to) {
  const int n = static_cast<int>(config_.participants.size());
  Network* down = downlinks_[static_cast<size_t>(to)].get();
  if (down == nullptr) return;
  // An SFU starts each downlink optimistic — at the aggregate publisher
  // rate it would have to carry — and lets delay/loss signals pull a
  // constrained downlink back down. Aggregated over currently-present
  // senders (= all senders when membership is static).
  DataRate aggregate = DataRate::Zero();
  for (int from = 0; from < n; ++from) {
    if (from == to) continue;
    if (!present_[static_cast<size_t>(from)]) continue;
    const ParticipantSpec& spec =
        config_.participants[static_cast<size_t>(from)];
    if (!spec.sends) continue;
    aggregate = aggregate + config_.max_rate_per_stream *
                                static_cast<int64_t>(spec.num_streams);
  }
  HubForwarder::Config hconf = config_.hub;
  hconf.cc.controller.algorithm = config_.cc_algorithm;
  hconf.cc.controller.start_rate = aggregate;
  hconf.cc.controller.max_rate = aggregate * 2;
  hconf.cc.controller.trace_component = HubTraceComponent(config_.cc_algorithm);
  // Receiver-facing engines run rung selection whenever the conference is
  // layered; hub.layers carries only the tunables.
  hconf.layers.enabled = config_.simulcast_rungs > 1;
  // Hub work on this receiver's downlinks is attributed to the receiver,
  // like the downlink delivery callbacks.
  TraceParticipantScope scope(to);
  forwarder_hub_[static_cast<size_t>(to)] =
      home_hub_[static_cast<size_t>(to)];
  forwarders_[static_cast<size_t>(to)] = std::make_unique<HubForwarder>(
      &loop_, hconf, down->path_ids(),
      [this, to](int from, PathId path, RtpPacket packet) {
        Leg* leg = star_leg_lookup_[static_cast<size_t>(to)]
                                   [static_cast<size_t>(from)];
        // A retired leg's forwarder is stopped with it, but a packet can be
        // in flight through the hub when the receiver leaves.
        if (leg == nullptr || !leg->live) return;
        SendRtp(leg->downlink->path(path).forward(), std::move(packet),
                [leg, path](RtpPacket arrived, Timestamp at) {
                  TraceParticipantScope scope(leg->to);
                  leg->receiver->OnRtpPacket(std::move(arrived), at, path);
                });
      },
      [this, to](int from, uint32_t ssrc, PathId path) {
        Uplink* u = LiveUplinkOf(from);
        if (u == nullptr) return;
        const RtcpPacket pli = KeyframeRequestOn(path, ssrc);
        const int serving_hub = forwarder_hub_[static_cast<size_t>(to)];
        if (serving_hub == u->hub) {
          SendRtcpToSender(u, path, pli);
          return;
        }
        // The receiver is served by a remote hub: the keyframe request
        // first crosses the trunk that carried the media (its feedback
        // direction), then rides the origin's uplink backward link.
        Trunk* t = LiveTrunk(u->hub, serving_hub);
        if (t == nullptr) return;
        t->network->path(path).backward().Send(
            pli.wire_size(), [this, t, from, pli, path](Timestamp) {
              if (!t->live) return;
              if (Uplink* u2 = LiveUplinkOf(from)) {
                SendRtcpToSender(u2, path, pli);
              }
            });
      });
}

void Conference::BuildStar(Random& rng) {
  const int n = static_cast<int>(config_.participants.size());
  size_t num_uplinks = 0;
  size_t num_legs = 0;
  for (int from = 0; from < n; ++from) {
    if (!config_.participants[static_cast<size_t>(from)].sends) continue;
    ++num_uplinks;
    for (int to = 0; to < n; ++to) {
      if (to == from) continue;
      if (config_.participants[static_cast<size_t>(to)].receives) ++num_legs;
    }
  }
  uplinks_.reserve(num_uplinks);
  legs_.reserve(num_legs);
  downlinks_.resize(static_cast<size_t>(n));
  forwarders_.resize(static_cast<size_t>(n));
  forwarder_hub_.assign(static_cast<size_t>(n), 0);
  star_leg_lookup_.assign(static_cast<size_t>(n),
                          std::vector<Leg*>(static_cast<size_t>(n), nullptr));

  auto in_call = [&](int p, bool (ParticipantSpec::*role)) {
    return present_[static_cast<size_t>(p)] != 0 &&
           config_.participants[static_cast<size_t>(p)].*role;
  };

  for (int to = 0; to < n; ++to) {
    if (in_call(to, &ParticipantSpec::receives)) BuildDownlink(to, rng);
  }
  for (int from = 0; from < n; ++from) {
    if (in_call(from, &ParticipantSpec::sends)) {
      BuildUplink(from, kHubId, /*incarnation=*/0, rng);
    }
  }
  for (auto& up : uplinks_) {
    for (int to = 0; to < n; ++to) {
      if (to == up->from) continue;
      if (!in_call(to, &ParticipantSpec::receives)) continue;
      BuildHubLeg(up.get(), to);
    }
  }
  for (int to = 0; to < n; ++to) {
    if (in_call(to, &ParticipantSpec::receives)) BuildForwarder(to);
  }
  // Trunks are built last — after every single-star phase — so the RNG fork
  // sequence up to here is the historical one and num_hubs == 1 (which
  // skips this entirely) stays byte-identical.
  if (multi_hub()) {
    for (int a = 0; a < config_.num_hubs; ++a) {
      for (int b = 0; b < config_.num_hubs; ++b) {
        if (a != b) BuildTrunk(a, b, rng);
      }
    }
  }
}

std::vector<PathSpec> Conference::TrunkPaths(int from_hub,
                                             int to_hub) const {
  if (config_.paths_for_trunk) {
    return config_.paths_for_trunk(from_hub, to_hub);
  }
  return config_.trunk_paths.empty() ? config_.paths : config_.trunk_paths;
}

Conference::Trunk* Conference::LiveTrunk(int from_hub, int to_hub) {
  for (auto& t : trunks_) {
    if (t->live && t->from_hub == from_hub && t->to_hub == to_hub) {
      return t.get();
    }
  }
  return nullptr;
}

Conference::Trunk* Conference::BuildTrunk(int from_hub, int to_hub,
                                          Random& rng) {
  trunks_.push_back(std::make_unique<Trunk>());
  Trunk& t = *trunks_.back();
  t.from_hub = from_hub;
  t.to_hub = to_hub;
  Trunk* t_ptr = &t;
  t.network = std::make_unique<Network>(&loop_, TrunkPaths(from_hub, to_hub),
                                        rng.Fork());
  // Uplink path p crosses trunk path p onto downlink path p, so the trunk
  // must expose the same path count as the star's edges.
  for (size_t p = 0; p < downlinks_.size(); ++p) {
    const Network* down = downlinks_[p].get();
    CONVERGE_INVARIANT(
        "Conference", loop_.now(),
        down == nullptr || down->num_paths() == t.network->num_paths(),
        "trunk " + std::to_string(from_hub) + "->" + std::to_string(to_hub) +
            " path-count mismatch: trunk has " +
            std::to_string(t.network->num_paths()) + ", downlink " +
            std::to_string(p) + " has " +
            std::to_string(down == nullptr ? 0 : down->num_paths()));
  }
  // Like a downlink forwarder, the trunk engine starts optimistic — at the
  // aggregate rate of the publishers homed at the near hub — and lets the
  // trunk's own delay/loss feedback pull it down.
  DataRate aggregate = DataRate::Zero();
  const int n = static_cast<int>(config_.participants.size());
  for (int from = 0; from < n; ++from) {
    if (!present_[static_cast<size_t>(from)]) continue;
    if (home_hub_[static_cast<size_t>(from)] != from_hub) continue;
    const ParticipantSpec& spec =
        config_.participants[static_cast<size_t>(from)];
    if (!spec.sends) continue;
    aggregate = aggregate + config_.max_rate_per_stream *
                                static_cast<int64_t>(spec.num_streams);
  }
  if (aggregate.bps() == 0) aggregate = config_.max_rate_per_stream;
  HubForwarder::Config tconf = config_.trunk;
  tconf.cc.controller.algorithm = config_.cc_algorithm;
  tconf.cc.controller.start_rate = aggregate;
  tconf.cc.controller.max_rate = aggregate * 2;
  tconf.cc.controller.trace_component = "hub_trunk";
  tconf.trace_category = "hub_trunk";
  // A trunk must carry EVERY rung: the remote hub's per-receiver engines
  // make their own selections, so filtering here would starve them.
  tconf.layers.enabled = false;
  t.engine = std::make_unique<HubForwarder>(
      &loop_, tconf, t.network->path_ids(),
      [this, t_ptr](int origin, PathId path, RtpPacket packet) {
        if (!t_ptr->live) return;
        SendRtp(t_ptr->network->path(path).forward(), std::move(packet),
                [this, t_ptr, origin, path](RtpPacket arrived,
                                            Timestamp arrival) {
                  if (!t_ptr->live) return;
                  // No fan-out when the origin re-homed while this packet
                  // crossed: its fresh uplink publishes under a new
                  // incarnation, and the remote forwarders' state for the
                  // old one has been reset.
                  Uplink* up = LiveUplinkOf(origin);
                  if (up != nullptr && up->hub != t_ptr->from_hub) {
                    up = nullptr;
                  }
                  auto agent = t_ptr->agents.find(origin);
                  ArriveRtp(up,
                            agent == t_ptr->agents.end()
                                ? nullptr
                                : agent->second.get(),
                            origin, t_ptr->to_hub, path, std::move(arrived),
                            arrival);
                });
      },
      [this, t_ptr](int origin, uint32_t ssrc, PathId path) {
        // Trunk thinning broke a dependency chain: chase the keyframe all
        // the way to the origin publisher.
        if (!t_ptr->live) return;
        if (Uplink* u = LiveUplinkOf(origin)) {
          SendRtcpToSender(u, path, KeyframeRequestOn(path, ssrc));
        }
      });
  for (auto& up : uplinks_) {
    if (up->live && up->hub_feedback != nullptr && up->hub == from_hub) {
      BuildTrunkAgent(t_ptr, up.get());
    }
  }
  return t_ptr;
}

void Conference::BuildTrunkAgent(Trunk* t, Uplink* up) {
  const int origin = up->from;
  auto it = t->agents.find(origin);
  if (it != t->agents.end()) {
    // Defensive replace (a re-homing retires the old uplink's agent via
    // DetachParticipantPipelines first, so this should not trigger).
    it->second->Stop();
    retired_trunk_agents_.push_back(std::move(it->second));
    t->agents.erase(it);
  }
  Trunk* t_ptr = t;
  TraceParticipantScope scope(origin);
  auto agent = std::make_unique<ReceiverEndpoint>(
      &loop_,
      MakeReceiverConfig(config_, origin, up->incarnation,
                         /*subscribe=*/false, &arena_),
      /*metrics=*/nullptr,
      [this, t_ptr, origin](PathId path, const RtcpPacket& packet) {
        if (!t_ptr->live) return;
        t_ptr->network->path(path).backward().Send(
            packet.wire_size(), [t_ptr, origin, path, packet](Timestamp) {
              // The trunk may have been retired while this feedback was in
              // flight. Live or not, trunk feedback terminates HERE — it
              // never reaches the publisher's uplink CC or the remote hub's
              // downlink CC.
              if (!t_ptr->live) return;
              TraceParticipantScope scope(origin);
              t_ptr->engine->OnReceiverRtcp(origin, path, packet);
            });
      });
  if (started_) agent->Start();
  t->agents.emplace(origin, std::move(agent));
}

void Conference::RetireTrunk(Trunk* t) {
  if (!t->live) return;
  t->live = false;
  t->engine->Stop();
  for (auto& [origin, agent] : t->agents) {
    agent->Stop();
    retired_trunk_agents_.push_back(std::move(agent));
  }
  t->agents.clear();
}

int Conference::NextAliveHub(int hub) const {
  for (int step = 1; step < config_.num_hubs; ++step) {
    const int h = (hub + step) % config_.num_hubs;
    if (hub_alive_[static_cast<size_t>(h)]) return h;
  }
  return -1;
}

void Conference::FailHub(int hub) {
  if (!multi_hub() || !hub_alive_[static_cast<size_t>(hub)]) return;
  hub_alive_[static_cast<size_t>(hub)] = 0;
  ++hub_failures_[static_cast<size_t>(hub)];
  if (TraceRecorder* trace = TraceRecorder::Current()) {
    trace->Instant("conference", "hub_fail", loop_.now(),
                   static_cast<double>(hub));
  }
  for (auto& t : trunks_) {
    if (t->live && (t->from_hub == hub || t->to_hub == hub)) {
      RetireTrunk(t.get());
    }
  }
  const int fallback = NextAliveHub(hub);
  CONVERGE_INVARIANT("Conference", loop_.now(), fallback >= 0,
                     "hub " + std::to_string(hub) +
                         " failed with no alive hub to re-home onto");
  if (fallback < 0) return;
  const int n = static_cast<int>(config_.participants.size());
  std::vector<int> affected;
  for (int p = 0; p < n; ++p) {
    if (present_[static_cast<size_t>(p)] &&
        home_hub_[static_cast<size_t>(p)] == hub) {
      affected.push_back(p);
    }
  }
  // Teardown-all first, then rebuild-all: a rebuilt participant's legs must
  // never be wired against a forwarder or uplink that the next teardown in
  // the batch is about to retire. The whole batch is marked absent for the
  // rebuild so each JoinParticipant wires only pairs whose far side is
  // already rebuilt — exactly a batch of simultaneous rejoins; a leg toward
  // a torn-down peer would capture its null downlink slot.
  for (int p : affected) {
    TraceParticipantScope scope(p);
    present_[static_cast<size_t>(p)] = 0;
    DetachParticipantPipelines(p, /*rehomed=*/true);
  }
  for (int p : affected) {
    home_hub_[static_cast<size_t>(p)] = fallback;
    ++extra_incarnations_[static_cast<size_t>(p)];
    ++rehomed_away_[static_cast<size_t>(hub)];
    ++rehomed_onto_[static_cast<size_t>(fallback)];
  }
  for (int p : affected) {
    TraceParticipantScope scope(p);
    JoinParticipant(p);
    if (TraceRecorder* trace = TraceRecorder::Current()) {
      trace->Instant("conference", "rehome", loop_.now(),
                     static_cast<double>(p));
    }
  }
}

void Conference::RecoverHub(int hub) {
  if (!multi_hub() || hub_alive_[static_cast<size_t>(hub)]) return;
  hub_alive_[static_cast<size_t>(hub)] = 1;
  if (TraceRecorder* trace = TraceRecorder::Current()) {
    trace->Instant("conference", "hub_recover", loop_.now(),
                   static_cast<double>(hub));
  }
  // Rebuild the trunks so the hub can serve future re-homings; participants
  // re-homed away do not move back.
  for (int other = 0; other < config_.num_hubs; ++other) {
    if (other == hub || !hub_alive_[static_cast<size_t>(other)]) continue;
    if (LiveTrunk(hub, other) == nullptr) BuildTrunk(hub, other, churn_rng_);
    if (LiveTrunk(other, hub) == nullptr) BuildTrunk(other, hub, churn_rng_);
  }
}

// --- routing: the same hops for mesh, star and cascade ---------------------
//
// Every uplink ends at a far-end endpoint (Uplink::far_end) whose feedback
// rides the uplink's backward link to the sender. A star uplink also fans
// out at its hub, onto the hub's legs and, at the origin's own hub, onto
// the trunks toward other hubs; a trunk arrival is the same hop, with the
// origin's trunk agent as the far end and the trunk's far hub as the hub. A
// mesh uplink has no fan-out, and a single-hub star has no trunks.

void Conference::SendRtcpToSender(Uplink* up, PathId path,
                                  const RtcpPacket& packet) {
  up->network->path(path).backward().Send(
      packet.wire_size(), [up, packet](Timestamp arrival) {
        TraceParticipantScope scope(up->from);
        up->sender->HandleRtcp(packet, arrival);
      });
}

bool Conference::ServesLiveLeg(const Uplink* up, int hub) {
  return std::any_of(up->fanout.begin(), up->fanout.end(),
                     [hub](const Leg* leg) {
                       return leg->live && leg->hub == hub;
                     });
}

void Conference::TransmitRtp(Uplink* up, PathId path, RtpPacket packet) {
  // A retired uplink keeps its pipeline alive for in-flight continuations
  // but puts nothing new on the wire.
  if (!up->live) return;
  SendRtp(up->network->path(path).forward(), std::move(packet),
          [this, up, path](RtpPacket arrived, Timestamp arrival) {
            ArriveRtp(up, up->far_end, up->far_participant(), up->hub, path,
                      std::move(arrived), arrival);
          });
}

void Conference::ArriveRtp(Uplink* up, ReceiverEndpoint* far_end,
                           int participant, int hub, PathId path,
                           RtpPacket packet, Timestamp arrival) {
  const bool fans_out = up != nullptr && !up->fanout.empty();
  if (far_end != nullptr) {
    TraceParticipantScope scope(participant);
    far_end->OnRtpPacket(fans_out ? RtpPacket(packet) : std::move(packet),
                         arrival, path);
  }
  if (fans_out) FanOut(up, hub, path, std::move(packet));
}

void Conference::FanOut(Uplink* up, int hub, PathId path, RtpPacket packet) {
  const bool at_origin = hub == up->hub;
  const bool trunk_copies_follow = at_origin && !trunks_.empty();
  for (size_t k = 0; k < up->fanout.size(); ++k) {
    Leg* leg = up->fanout[k];
    // Retired legs stay listed (in-flight deliveries walk the list) but
    // their receiver, and possibly their forwarder slot, is gone.
    if (!leg->live || leg->hub != hub) continue;
    HubForwarder* fwd = forwarders_[static_cast<size_t>(leg->to)].get();
    if (fwd == nullptr) continue;
    // The last leg takes the packet itself unless trunk copies follow.
    const bool last = k + 1 == up->fanout.size() && !trunk_copies_follow;
    TraceParticipantScope scope(leg->to);
    fwd->OnMediaFromUplink(leg->from, path,
                           last ? std::move(packet) : RtpPacket(packet));
  }
  if (!at_origin) return;
  // Media crosses each trunk at most ONCE per remote hub, the defining
  // economy of a cascaded SFU, and only toward a hub serving a live
  // subscribed leg. A live trunk's hubs are both alive: FailHub retires
  // every trunk touching the failed hub.
  for (auto& t : trunks_) {
    if (!t->live || t->from_hub != hub || !ServesLiveLeg(up, t->to_hub)) {
      continue;
    }
    TraceParticipantScope scope(up->from);
    t->engine->OnMediaFromUplink(up->from, path, RtpPacket(packet));
  }
}

void Conference::TransmitRtcp(Uplink* up, PathId path,
                              const RtcpPacket& packet) {
  if (!up->live) return;
  up->network->path(path).forward().Send(
      packet.wire_size(), [this, up, packet, path](Timestamp arrival) {
        {
          TraceParticipantScope scope(up->far_participant());
          up->far_end->OnRtcpPacket(packet, arrival, path);
        }
        FanOutRtcp(up, up->hub, path, packet);
      });
}

void Conference::FanOutRtcp(Uplink* up, int hub, PathId path,
                            const RtcpPacket& packet) {
  for (Leg* leg : up->fanout) {
    if (!leg->live || leg->hub != hub) continue;
    leg->downlink->path(path).forward().Send(
        packet.wire_size(), [leg, packet, path](Timestamp at) {
          TraceParticipantScope scope(leg->to);
          leg->receiver->OnRtcpPacket(packet, at, path);
        });
  }
  if (hub != up->hub) return;
  for (auto& t : trunks_) {
    Trunk* trunk = t.get();
    if (!trunk->live || trunk->from_hub != hub ||
        !ServesLiveLeg(up, trunk->to_hub)) {
      continue;
    }
    trunk->network->path(path).forward().Send(
        packet.wire_size(), [this, trunk, up, packet, path](Timestamp) {
          if (trunk->live && up->live) {
            FanOutRtcp(up, trunk->to_hub, path, packet);
          }
        });
  }
}

void Conference::SendRtcpToHub(Leg* leg, PathId path,
                               const RtcpPacket& packet) {
  if (!leg->live) return;
  leg->downlink->path(path).backward().Send(
      packet.wire_size(), [this, leg, path, packet](Timestamp) {
        // The leg may have been retired while this feedback was in flight;
        // its forwarder slot may already belong to a rejoin.
        if (!leg->live) return;
        {
          TraceParticipantScope scope(leg->to);
          if (forwarders_[static_cast<size_t>(leg->to)]->OnReceiverRtcp(
                  leg->from, path, packet)) {
            return;
          }
        }
        if (!ForwardsUpstream(packet)) return;
        Uplink* up = leg->uplink;
        if (leg->hub == up->hub) {
          SendRtcpToSender(up, path, packet);
          return;
        }
        // The receiver is served by a remote hub: the end-to-end signal
        // first crosses the trunk that carried the media (its feedback
        // direction) back to the origin's hub, then rides the uplink.
        Trunk* t = LiveTrunk(up->hub, leg->hub);
        if (t == nullptr) return;
        t->network->path(path).backward().Send(
            packet.wire_size(), [t, up, packet, path](Timestamp) {
              if (t->live && up->live) SendRtcpToSender(up, path, packet);
            });
      });
}

Conference::Uplink* Conference::LiveUplinkOf(int p) {
  for (auto& up : uplinks_) {
    if (up->live && up->from == p) return up.get();
  }
  return nullptr;
}

void Conference::RetireLeg(Leg* leg, Timestamp now) {
  if (!leg->live) return;
  leg->live = false;
  leg->left = now;
  leg->receiver->Stop();
  leg->metrics->Stop();
}

void Conference::RetireUplink(Uplink* up) {
  if (!up->live) return;
  up->live = false;
  up->sender->Stop();
  if (up->hub_feedback != nullptr) up->hub_feedback->Stop();
}

void Conference::LeaveParticipant(int p) {
  present_[static_cast<size_t>(p)] = 0;
  DetachParticipantPipelines(p, /*rehomed=*/false);
}

void Conference::DetachParticipantPipelines(int p, bool rehomed) {
  const Timestamp now = loop_.now();
  for (auto& leg : legs_) {
    if (leg->live && (leg->from == p || leg->to == p)) {
      RetireLeg(leg.get(), now);
    }
  }
  // A mesh uplink toward p is paired with p's inbound leg and stops with
  // it; a star uplink's `to` is kHubId, so only p's own uplink retires.
  for (auto& up : uplinks_) {
    if (up->live && (up->from == p || up->to == p)) RetireUplink(up.get());
  }
  if (config_.topology != Topology::kStar) return;

  // Hub-side teardown. The forwarder and downlink network of the leaver are
  // moved to the retired lists (in-flight continuations may still reference
  // them) and their slots cleared so a rejoin rebuilds fresh ones; the
  // remaining receivers' forwarders drop the leaver's queued media and
  // forget its egress/gate/RTX state so a rejoin (fresh incarnation, new
  // SSRCs) never inherits stamp counters from the previous life.
  if (forwarders_[static_cast<size_t>(p)] != nullptr) {
    forwarders_[static_cast<size_t>(p)]->Stop();
    retired_forwarders_.push_back(
        RetiredForwarder{forwarder_hub_[static_cast<size_t>(p)], p, rehomed,
                         std::move(forwarders_[static_cast<size_t>(p)])});
  }
  if (downlinks_[static_cast<size_t>(p)] != nullptr) {
    retired_downlinks_.emplace_back(
        p, std::move(downlinks_[static_cast<size_t>(p)]));
  }
  const int n = static_cast<int>(config_.participants.size());
  for (int q = 0; q < n; ++q) {
    if (forwarders_[static_cast<size_t>(q)] != nullptr) {
      forwarders_[static_cast<size_t>(q)]->ResetOrigin(p);
    }
    star_leg_lookup_[static_cast<size_t>(p)][static_cast<size_t>(q)] =
        nullptr;
    star_leg_lookup_[static_cast<size_t>(q)][static_cast<size_t>(p)] =
        nullptr;
  }
  // Trunk state: p's far-end feedback agents die with its uplink, and the
  // trunk engines drop p's queued media / egress spaces exactly like the
  // per-receiver forwarders above.
  for (auto& t : trunks_) {
    t->engine->ResetOrigin(p);
    auto it = t->agents.find(p);
    if (it == t->agents.end()) continue;
    it->second->Stop();
    retired_trunk_agents_.push_back(std::move(it->second));
    t->agents.erase(it);
  }
}

void Conference::JoinParticipant(int p) {
  const Timestamp now = loop_.now();
  present_[static_cast<size_t>(p)] = 1;
  const int n = static_cast<int>(config_.participants.size());
  const ParticipantSpec& spec = config_.participants[static_cast<size_t>(p)];
  // Incarnation = membership-timeline leave count + re-homing bumps, so
  // every rebuild (rejoin OR re-home) publishes under a fresh, never-reused
  // SSRC bank.
  const int inc = MembershipIncarnationAt(p, now, config_.membership) +
                  extra_incarnations_[static_cast<size_t>(p)];
  const size_t first_leg = legs_.size();
  const size_t first_uplink = uplinks_.size();

  if (config_.topology == Topology::kMesh) {
    // Mesh semantics: every directed pair runs its own encode loop, so the
    // join creates full pipelines both ways — p toward every present
    // receiver, and every present sender toward p (under the *sender's*
    // current incarnation; its other legs keep their own networks, so SSRC
    // spaces never mix).
    if (spec.sends) {
      for (int q = 0; q < n; ++q) {
        if (q == p || !present_[static_cast<size_t>(q)]) continue;
        if (!config_.participants[static_cast<size_t>(q)].receives) continue;
        BuildUplink(p, q, inc, churn_rng_);
      }
    }
    if (spec.receives) {
      for (int q = 0; q < n; ++q) {
        if (q == p || !present_[static_cast<size_t>(q)]) continue;
        if (!config_.participants[static_cast<size_t>(q)].sends) continue;
        const int qinc = MembershipIncarnationAt(q, now, config_.membership) +
                         extra_incarnations_[static_cast<size_t>(q)];
        BuildUplink(q, p, qinc, churn_rng_);
      }
    }
  } else {
    // Star: mirror the constructor's phase order for this one participant —
    // downlink, uplink (path counts re-checked), legs, forwarder.
    if (spec.receives) BuildDownlink(p, churn_rng_);
    if (spec.sends) {
      Uplink* up = BuildUplink(p, kHubId, inc, churn_rng_);
      for (int q = 0; q < n; ++q) {
        if (q == p || !present_[static_cast<size_t>(q)]) continue;
        if (!config_.participants[static_cast<size_t>(q)].receives) continue;
        BuildHubLeg(up, q);
      }
    }
    if (spec.receives) {
      // One inbound leg per live publisher, in uplink construction order.
      for (auto& up : uplinks_) {
        if (!up->live || up->from == p) continue;
        BuildHubLeg(up.get(), p);
      }
      BuildForwarder(p);
    }
  }

  // Arm the fresh pipelines in Start()'s order: receivers, hub feedback
  // endpoints, then senders.
  for (size_t i = first_leg; i < legs_.size(); ++i) {
    Leg* leg = legs_[i].get();
    leg->joined = now;
    TraceParticipantScope scope(leg->to);
    leg->receiver->Start();
  }
  for (size_t i = first_uplink; i < uplinks_.size(); ++i) {
    Uplink* up = uplinks_[i].get();
    if (up->hub_feedback == nullptr) continue;
    TraceParticipantScope scope(up->from);
    up->hub_feedback->Start();
  }
  for (size_t i = first_uplink; i < uplinks_.size(); ++i) {
    Uplink* up = uplinks_[i].get();
    TraceParticipantScope scope(up->from);
    up->sender->Start();
  }
}

void Conference::ApplyMembershipEvent(const MembershipEvent& ev) {
  TraceParticipantScope scope(ev.participant);
  if (ev.kind == MembershipEvent::Kind::kJoin) {
    JoinParticipant(ev.participant);
  } else {
    LeaveParticipant(ev.participant);
  }
  if (TraceRecorder* trace = TraceRecorder::Current()) {
    if (ev.kind == MembershipEvent::Kind::kJoin) {
      trace->Instant("conference", "join", loop_.now(),
                     static_cast<double>(ev.participant));
    } else {
      trace->Instant("conference", "leave", loop_.now(),
                     static_cast<double>(ev.participant));
    }
  }
}

namespace {

CallStats CollectLegStats(int num_streams, MetricsCollector* metrics,
                          const Sender& sender,
                          const ReceiverEndpoint& receiver,
                          Timestamp window_start, Timestamp window_end) {
  CallStats out;
  for (int i = 0; i < num_streams; ++i) {
    const auto rx_stats = receiver.stream(i).GetStats();
    metrics->SetReceiverCounters(i, rx_stats.FrameDrops(),
                                 rx_stats.keyframe_requests);
    out.total_frame_drops += rx_stats.FrameDrops();
    out.total_keyframe_requests += rx_stats.keyframe_requests;
  }
  out.streams = metrics->AllStreams(window_start, window_end);
  out.time_series = metrics->time_series();

  const auto& tx = sender.stats();
  out.media_packets_sent = tx.media_packets_sent;
  out.fec_packets_sent = tx.fec_packets_sent;
  out.rtx_packets_sent = tx.rtx_packets_sent;
  out.frames_encoded = tx.frames_encoded;
  out.fec_overhead =
      tx.media_packets_sent > 0
          ? static_cast<double>(tx.fec_packets_sent) /
                static_cast<double>(tx.media_packets_sent)
          : 0.0;

  int64_t fec_received = 0;
  int64_t fec_used = 0;
  for (int i = 0; i < num_streams; ++i) {
    fec_received += receiver.stream(i).fec().stats().fec_received;
    fec_used += receiver.stream(i).fec().stats().fec_used;
    out.fec_recovered_packets +=
        receiver.stream(i).fec().stats().packets_recovered;
  }
  out.fec_utilization =
      fec_received > 0
          ? static_cast<double>(fec_used) / static_cast<double>(fec_received)
          : 0.0;
  return out;
}

// Seconds participant p spent in the call, from the membership timeline
// (sorted by time), clamped to the call window.
double ActiveSeconds(int p, const ConferenceConfig& config) {
  const Timestamp end = Timestamp::Zero() + config.duration;
  bool present = MembershipPresentAtStart(p, config.membership);
  Timestamp open = Timestamp::Zero();
  double total = 0.0;
  for (const MembershipEvent& ev : config.membership) {
    if (ev.participant != p) continue;
    if (ev.at >= end) break;
    if (ev.kind == MembershipEvent::Kind::kLeave && present) {
      total += (ev.at - open).seconds();
      present = false;
    } else if (ev.kind == MembershipEvent::Kind::kJoin && !present) {
      open = ev.at;
      present = true;
    }
  }
  if (present) total += (end - open).seconds();
  return total;
}

}  // namespace

ConferenceStats Conference::Run() {
  Start();
  AdvanceTo(Timestamp::Zero() + config_.duration);
  return Collect();
}

void Conference::SetInvariantContext() {
  // Label invariant violations with the run that produced them — essential
  // when a parallel multi-seed chaos sweep trips one check in one run. A
  // single-leg conference (the 2-party Call adapter) keeps the historical
  // "<variant> seed=<n>" label.
  if (InvariantRegistry::enabled()) {
    std::string context = ToString(config_.variant) +
                          " seed=" + std::to_string(config_.seed);
    if (legs_.size() > 1) {
      context += " " + ToString(config_.topology) +
                 " n=" + std::to_string(config_.participants.size());
    }
    InvariantRegistry::SetContext(std::move(context));
  }
}

void Conference::Start() {
  SetInvariantContext();
  // Conferences run single-threaded (one per worker in parallel sweeps), so
  // the thread-local recorder covers exactly this conference's components.
  TraceScope trace_scope(trace_.get());
  for (auto& leg : legs_) {
    TraceParticipantScope scope(leg->to);
    leg->receiver->Start();
  }
  for (auto& up : uplinks_) {
    if (up->hub_feedback == nullptr) continue;
    TraceParticipantScope scope(up->from);
    up->hub_feedback->Start();
  }
  for (auto& t : trunks_) {
    if (!t->live) continue;
    for (auto& [origin, agent] : t->agents) {
      TraceParticipantScope scope(origin);
      agent->Start();
    }
  }
  for (auto& up : uplinks_) {
    TraceParticipantScope scope(up->from);
    up->sender->Start();
  }
  // Arm the membership timeline once: events fire inside AdvanceTo (which
  // re-establishes the trace/invariant scopes per slice), and scheduling
  // them all up front keeps their (time, sequence) dispatch order identical
  // however the run is sliced.
  if (!started_) {
    started_ = true;
    for (const MembershipEvent& ev : config_.membership) {
      loop_.ScheduleAt(ev.at, [this, ev] { ApplyMembershipEvent(ev); });
    }
    // Hub outages are scheduled the same way: every kOutage window of hub
    // h's fault plan kills the hub at its start and recovers it at its end.
    if (multi_hub()) {
      for (size_t h = 0; h < config_.hub_fault_plans.size(); ++h) {
        const int hub = static_cast<int>(h);
        for (const auto& [fail_at, recover_at] :
             config_.hub_fault_plans[h].OutageWindows()) {
          loop_.ScheduleAt(fail_at, [this, hub] { FailHub(hub); });
          loop_.ScheduleAt(recover_at, [this, hub] { RecoverHub(hub); });
        }
      }
    }
  }
}

void Conference::AdvanceTo(Timestamp t) {
  // Re-established per slice: a fleet driver interleaves many conferences on
  // one thread, each with its own recorder (usually none) and label.
  SetInvariantContext();
  TraceScope trace_scope(trace_.get());
  loop_.RunUntil(t);
}

ConferenceStats Conference::Collect() {
  ConferenceStats out;
  const Timestamp call_end = Timestamp::Zero() + config_.duration;
  out.legs.reserve(legs_.size());
  for (auto& leg : legs_) {
    ConferenceStats::Leg ls;
    ls.from = leg->from;
    ls.to = leg->to;
    ls.incarnation = leg->incarnation;
    // QoE is normalized over the leg's own membership window, so a
    // churn-created leg's rates are comparable to a whole-call leg's.
    const Timestamp window_start = leg->joined;
    const Timestamp window_end = std::min(leg->left, call_end);
    ls.joined_s = (window_start - Timestamp::Zero()).seconds();
    ls.left_s = (window_end - Timestamp::Zero()).seconds();
    // Star note: the sender-side counters (packets sent, FEC overhead) come
    // from the shared uplink, so they repeat across the uplink's legs; the
    // receive-side QoE is per leg.
    ls.stats = CollectLegStats(
        config_.participants[static_cast<size_t>(leg->from)].num_streams,
        leg->metrics.get(), *leg->uplink->sender, *leg->receiver,
        window_start, window_end);
    out.legs.push_back(std::move(ls));
  }

  const int n = static_cast<int>(config_.participants.size());
  out.participants.reserve(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) {
    ConferenceStats::ParticipantQoe q;
    q.participant = p;
    q.active_s = ActiveSeconds(p, config_);
    std::vector<const StreamQoe*> inbound;
    for (const ConferenceStats::Leg& ls : out.legs) {
      if (ls.to != p) continue;
      for (const StreamQoe& s : ls.stats.streams) inbound.push_back(&s);
      q.frame_drops += ls.stats.total_frame_drops;
      q.keyframe_requests += ls.stats.total_keyframe_requests;
    }
    q.inbound_streams = static_cast<int>(inbound.size());
    q.avg_fps = MeanOverStreams(inbound, &StreamQoe::avg_fps);
    q.avg_freeze_ms = MeanOverStreams(inbound, &StreamQoe::freeze_total_ms);
    q.avg_freeze_ratio = MeanOverStreams(inbound, &StreamQoe::freeze_ratio);
    q.avg_e2e_ms = MeanOverStreams(inbound, &StreamQoe::e2e_mean_ms);
    q.total_tput_mbps = SumOverStreams(inbound, &StreamQoe::tput_mbps);
    q.avg_qp = MeanOverStreams(inbound, &StreamQoe::qp_mean);
    q.avg_psnr_db = MeanOverStreams(inbound, &StreamQoe::psnr_mean_db);
    out.participants.push_back(q);
  }

  // Star only: final per-(hub, receiver, path) downlink state. Live
  // forwarders first, in (receiver, path) order — the historical single-hub
  // row order, unchanged. Forwarders retired by a mid-call leave are
  // intentionally not reported (the slot either belongs to the rejoin or to
  // nobody); forwarders retired by a re-homing ARE reported afterwards,
  // tagged with the hub that ran them, so a failed-over call accounts for
  // both serving hubs.
  out.num_hubs = config_.num_hubs;
  out.simulcast_rungs = config_.simulcast_rungs;
  out.temporal_layers = config_.temporal_layers;
  for (int p = 0; p < n; ++p) {
    const HubForwarder* fwd = hub_forwarder(p);
    if (fwd == nullptr) continue;
    const Network* down = downlinks_[static_cast<size_t>(p)].get();
    for (PathId path : down->path_ids()) {
      ConferenceStats::Downlink d;
      d.hub = forwarder_hub_[static_cast<size_t>(p)];
      d.receiver = p;
      d.path = path;
      d.selected_rung = fwd->max_selected_rung();
      d.target_kbps =
          static_cast<double>(fwd->downlink_target(path).bps()) / 1000.0;
      d.srtt_ms = fwd->downlink_srtt(path).seconds() * 1000.0;
      d.loss = fwd->downlink_loss(path);
      d.forwarder = fwd->stats(path);
      out.downlinks.push_back(d);
    }
  }
  for (const RetiredForwarder& rf : retired_forwarders_) {
    if (!rf.rehomed) continue;
    for (PathId path : rf.forwarder->path_ids()) {
      ConferenceStats::Downlink d;
      d.hub = rf.hub;
      d.receiver = rf.receiver;
      d.path = path;
      d.selected_rung = rf.forwarder->max_selected_rung();
      d.target_kbps =
          static_cast<double>(rf.forwarder->downlink_target(path).bps()) /
          1000.0;
      d.srtt_ms = rf.forwarder->downlink_srtt(path).seconds() * 1000.0;
      d.loss = rf.forwarder->downlink_loss(path);
      d.forwarder = rf.forwarder->stats(path);
      out.downlinks.push_back(d);
    }
  }

  // Multi-hub only: trunk and hub state (both stay empty for single-hub
  // conferences, keeping their stats JSON byte-identical).
  if (multi_hub()) {
    for (const auto& t : trunks_) {
      for (PathId path : t->engine->path_ids()) {
        ConferenceStats::Trunk ts;
        ts.from_hub = t->from_hub;
        ts.to_hub = t->to_hub;
        ts.path = path;
        ts.live = t->live;
        ts.target_kbps =
            static_cast<double>(t->engine->downlink_target(path).bps()) /
            1000.0;
        ts.srtt_ms = t->engine->downlink_srtt(path).seconds() * 1000.0;
        ts.loss = t->engine->downlink_loss(path);
        ts.feedback_batches = t->engine->cc(path).feedback_batches();
        ts.packets_registered = t->engine->cc(path).packets_registered();
        ts.forwarder = t->engine->stats(path);
        out.trunks.push_back(ts);
      }
    }
    for (int h = 0; h < config_.num_hubs; ++h) {
      ConferenceStats::Hub hs;
      hs.hub = h;
      hs.alive = hub_alive_[static_cast<size_t>(h)] != 0;
      hs.failures = hub_failures_[static_cast<size_t>(h)];
      hs.rehomed_away = rehomed_away_[static_cast<size_t>(h)];
      hs.rehomed_onto = rehomed_onto_[static_cast<size_t>(h)];
      for (int p = 0; p < n; ++p) {
        if (present_[static_cast<size_t>(p)] &&
            home_hub_[static_cast<size_t>(p)] == h) {
          ++hs.home_participants;
        }
      }
      out.hubs.push_back(hs);
    }
  }

  // Competing cross-traffic, in deterministic construction order: uplink
  // edges first (mesh pair networks are "uplinks" here too), then live
  // star downlinks by receiver, then downlinks retired by churn.
  auto collect_flows = [&](int from, int to, const Network& net) {
    for (const auto& src : net.cross_traffic()) {
      ConferenceStats::CrossFlow f;
      f.from = from;
      f.to = to;
      f.path = src->path();
      f.name = src->spec().name;
      f.kind = CrossTrafficKindName(src->spec().kind);
      f.packets_sent = src->stats().packets_sent;
      f.packets_delivered = src->stats().packets_delivered;
      f.packets_dropped = src->stats().packets_dropped;
      f.loss_events = src->stats().loss_events;
      f.throughput_mbps = src->ThroughputMbps(call_end);
      f.final_cwnd = src->stats().final_cwnd;
      out.cross_traffic.push_back(std::move(f));
    }
  };
  for (auto& up : uplinks_) collect_flows(up->from, up->to, *up->network);
  for (size_t p = 0; p < downlinks_.size(); ++p) {
    if (downlinks_[p] != nullptr) {
      collect_flows(kHubId, static_cast<int>(p), *downlinks_[p]);
    }
  }
  for (const auto& retired : retired_downlinks_) {
    collect_flows(kHubId, retired.first, *retired.second);
  }
  for (const auto& t : trunks_) collect_flows(kHubId, kHubId, *t->network);
  return out;
}

const HubForwarder* Conference::hub_forwarder(int participant) const {
  if (participant < 0 ||
      static_cast<size_t>(participant) >= forwarders_.size()) {
    return nullptr;
  }
  return forwarders_[static_cast<size_t>(participant)].get();
}

int Conference::home_hub(int participant) const {
  if (participant < 0 ||
      static_cast<size_t>(participant) >= home_hub_.size()) {
    return 0;
  }
  return home_hub_[static_cast<size_t>(participant)];
}

const HubForwarder* Conference::trunk_engine(int from_hub,
                                             int to_hub) const {
  for (const auto& t : trunks_) {
    if (t->live && t->from_hub == from_hub && t->to_hub == to_hub) {
      return t->engine.get();
    }
  }
  return nullptr;
}

int Conference::leg_from(size_t leg) const { return legs_.at(leg)->from; }
int Conference::leg_to(size_t leg) const { return legs_.at(leg)->to; }

const MetricsCollector& Conference::leg_metrics(size_t leg) const {
  return *legs_.at(leg)->metrics;
}

const Sender& Conference::leg_sender(size_t leg) const {
  return *legs_.at(leg)->uplink->sender;
}

const ReceiverEndpoint& Conference::leg_receiver(size_t leg) const {
  return *legs_.at(leg)->receiver;
}

Scheduler& Conference::leg_scheduler(size_t leg) {
  return *legs_.at(leg)->uplink->scheduler;
}

const Network& Conference::leg_network(size_t leg) const {
  return *legs_.at(leg)->uplink->network;
}

double CallStats::AvgFps() const {
  return MeanOverStreams(streams, &StreamQoe::avg_fps);
}

double CallStats::AvgFreezeMs() const {
  return MeanOverStreams(streams, &StreamQoe::freeze_total_ms);
}

double CallStats::AvgE2eMs() const {
  return MeanOverStreams(streams, &StreamQoe::e2e_mean_ms);
}

double CallStats::TotalTputMbps() const {
  return SumOverStreams(streams, &StreamQoe::tput_mbps);
}

double CallStats::AvgQp() const {
  return MeanOverStreams(streams, &StreamQoe::qp_mean);
}

double CallStats::AvgPsnrDb() const {
  return MeanOverStreams(streams, &StreamQoe::psnr_mean_db);
}

std::vector<ConferenceStats> RunConferences(
    const std::vector<ConferenceConfig>& configs, int jobs) {
  std::vector<ConferenceStats> out(configs.size());
  ParallelFor(
      static_cast<int64_t>(configs.size()),
      [&](int64_t i) {
        // Each worker gets its own copy of the config. The copies share
        // the PathSpecs' loss models, and every link takes its own copy of
        // a stateful one (LossModel::PerLinkCopy), so no worker's run
        // touches another's state.
        ConferenceConfig config = configs[static_cast<size_t>(i)];
        Conference conference(config);
        out[static_cast<size_t>(i)] = conference.Run();
      },
      jobs);
  return out;
}

}  // namespace converge
