#include "layers.h"

#include <algorithm>
#include <set>

namespace perfbench {
namespace {

struct Field {
  const char* layer;
  int64_t LayerCounts::*field;
};

constexpr Field kFields[] = {
    {"sim", &LayerCounts::events},
    {"net", &LayerCounts::link_sent},
    {"net", &LayerCounts::link_delivered},
    {"net", &LayerCounts::link_lost},
    {"net", &LayerCounts::link_queue_dropped},
    {"session.sender", &LayerCounts::media_pkts},
    {"session.sender", &LayerCounts::fec_pkts},
    {"session.sender", &LayerCounts::rtx_pkts},
    {"session.sender", &LayerCounts::probe_pkts},
    {"session.sender", &LayerCounts::media_bytes},
    {"session.sender", &LayerCounts::fec_bytes},
    {"session.sender", &LayerCounts::frames_encoded},
    {"receiver", &LayerCounts::rtp_received},
    {"fec", &LayerCounts::fec_received},
    {"fec", &LayerCounts::fec_used},
    {"fec", &LayerCounts::fec_recovered},
    {"receiver", &LayerCounts::nacks_sent},
    {"receiver", &LayerCounts::nack_recovered},
    {"receiver", &LayerCounts::nack_abandoned},
    {"receiver", &LayerCounts::pb_evicted},
    {"receiver", &LayerCounts::frames_dropped},
    {"receiver", &LayerCounts::keyframe_requests},
    {"receiver", &LayerCounts::frames_decoded},
    {"session.hub", &LayerCounts::hub_forwarded},
    {"session.hub", &LayerCounts::hub_thinned},
    {"session.hub", &LayerCounts::hub_evicted},
    {"session.hub", &LayerCounts::hub_rtx_answered},
    {"session.hub", &LayerCounts::hub_plis},
    {"session.hub", &LayerCounts::hub_layer_switches},
    {"session.hub", &LayerCounts::hub_filtered},
    {"session.hub", &LayerCounts::hub_padding},
};

template <typename T>
std::vector<const T*> Distinct(const std::vector<const T*>& in) {
  std::vector<const T*> out;
  std::set<const T*> seen;
  for (const T* p : in) {
    if (p != nullptr && seen.insert(p).second) out.push_back(p);
  }
  return out;
}

template <typename Fn>
void ForEachLink(const converge::Network& network, Fn&& fn) {
  for (converge::PathId id : network.path_ids()) {
    fn(network.path(id).forward());
    fn(network.path(id).backward());
  }
}

}  // namespace

void LayerCounts::Add(const LayerCounts& other) {
  for (const Field& f : kFields) this->*f.field += other.*f.field;
  hub_max_queue_delay_us =
      std::max(hub_max_queue_delay_us, other.hub_max_queue_delay_us);
}

std::vector<std::string> LayerCounts::DifferingLayers(
    const LayerCounts& other) const {
  std::vector<std::string> out;
  auto flag = [&](const std::string& layer) {
    if (std::find(out.begin(), out.end(), layer) == out.end()) {
      out.push_back(layer);
    }
  };
  for (const Field& f : kFields) {
    if (this->*f.field != other.*f.field) flag(f.layer);
  }
  if (hub_max_queue_delay_us != other.hub_max_queue_delay_us) {
    flag("session.hub");
  }
  return out;
}

PipelineView ViewOf(converge::Conference& conference, int num_participants) {
  PipelineView view;
  view.events = conference.loop().executed_events();
  for (size_t leg = 0; leg < conference.num_legs(); ++leg) {
    view.networks.push_back(&conference.leg_network(leg));
    view.senders.push_back(&conference.leg_sender(leg));
    view.receivers.push_back(&conference.leg_receiver(leg));
  }
  for (int p = 0; p < num_participants; ++p) {
    view.forwarders.push_back(conference.hub_forwarder(p));
  }
  return view;
}

LayerCounts Count(const PipelineView& view) {
  LayerCounts c;
  c.events = view.events;
  for (const converge::Network* net : Distinct(view.networks)) {
    ForEachLink(*net, [&](const converge::Link& link) {
      const converge::Link::Stats& s = link.stats();
      c.link_sent += s.packets_sent;
      c.link_delivered += s.packets_delivered;
      c.link_lost += s.packets_lost;
      c.link_queue_dropped += s.packets_queue_dropped;
    });
  }
  for (const converge::Sender* sender : Distinct(view.senders)) {
    const converge::Sender::Stats& s = sender->stats();
    c.media_pkts += s.media_packets_sent;
    c.fec_pkts += s.fec_packets_sent;
    c.rtx_pkts += s.rtx_packets_sent;
    c.probe_pkts += s.probe_packets_sent;
    c.media_bytes += s.media_bytes_sent;
    c.fec_bytes += s.fec_bytes_sent;
    c.frames_encoded += s.frames_encoded;
  }
  for (const converge::ReceiverEndpoint* rx : Distinct(view.receivers)) {
    c.rtp_received += rx->stats().rtp_received;
    const converge::NackGenerator::Stats& nack = rx->nack().stats();
    c.nacks_sent += nack.nacks_sent;
    c.nack_recovered += nack.recovered;
    c.nack_abandoned += nack.abandoned;
    for (size_t i = 0; i < rx->num_streams(); ++i) {
      const converge::VideoReceiveStream& stream =
          rx->stream(static_cast<int>(i));
      const auto st = stream.GetStats();
      c.frames_dropped += st.FrameDrops();
      c.keyframe_requests += st.keyframe_requests;
      c.frames_decoded += st.frames_decoded;
      c.pb_evicted += stream.packet_buffer().stats().evicted;
      c.fec_received += stream.fec().stats().fec_received;
      c.fec_used += stream.fec().stats().fec_used;
      c.fec_recovered += stream.fec().stats().packets_recovered;
    }
  }
  for (const converge::HubForwarder* fwd : Distinct(view.forwarders)) {
    for (converge::PathId path : fwd->path_ids()) {
      const converge::HubForwarder::DownlinkStats& s = fwd->stats(path);
      c.hub_forwarded += s.packets_forwarded;
      c.hub_thinned += s.frames_thinned;
      c.hub_evicted += s.frames_evicted;
      c.hub_rtx_answered += s.rtx_answered;
      c.hub_plis += s.plis_relayed;
      c.hub_layer_switches += s.layer_switches;
      c.hub_filtered += s.layer_packets_filtered;
      c.hub_padding += s.padding_packets;
      c.hub_max_queue_delay_us =
          std::max(c.hub_max_queue_delay_us,
                   static_cast<int64_t>(s.max_queue_delay_ms * 1000.0));
    }
  }
  return c;
}

std::string CheckLinkConservation(const PipelineView& view) {
  // Wire sizes of everything the simulator sends: RTCP is tens of bytes,
  // RTP at most an MTU plus the multipath header extension.
  constexpr int64_t kMaxWireBytes = 2000;
  std::string error;
  for (const converge::Network* net : Distinct(view.networks)) {
    ForEachLink(*net, [&](const converge::Link& link) {
      if (!error.empty()) return;
      const converge::Link::Stats& s = link.stats();
      const int64_t queued = s.packets_sent - s.packets_delivered -
                             s.packets_lost - s.packets_queue_dropped;
      const int64_t bytes = link.queued_bytes();
      const bool ok = queued >= 0 && (queued == 0) == (bytes == 0) &&
                      bytes >= queued && bytes <= queued * kMaxWireBytes;
      if (!ok) {
        error = "link conservation: sent=" + std::to_string(s.packets_sent) +
                " delivered=" + std::to_string(s.packets_delivered) +
                " lost=" + std::to_string(s.packets_lost) +
                " queue_dropped=" + std::to_string(s.packets_queue_dropped) +
                " queued_bytes=" + std::to_string(bytes);
      }
    });
  }
  return error;
}

}  // namespace perfbench
