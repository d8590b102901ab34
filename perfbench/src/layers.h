// Exact per-layer work counters, read from the layers' public stats.
//
// The same counters are taken from a Conference after the untraced run and
// from the benchmark's own assembly after the traced run, over the same set
// of objects: every directed leg's receiver, every distinct sender and
// network behind the legs (mesh: the pair's network; star: the origin's
// uplink network), and every live hub forwarder. A layer whose counters
// differ between the two runs is flagged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "session/conference.h"

namespace perfbench {

struct LayerCounts {
  // sim
  int64_t events = 0;
  // net
  int64_t link_sent = 0;
  int64_t link_delivered = 0;
  int64_t link_lost = 0;
  int64_t link_queue_dropped = 0;
  // session.sender
  int64_t media_pkts = 0;
  int64_t fec_pkts = 0;
  int64_t rtx_pkts = 0;
  int64_t probe_pkts = 0;
  int64_t media_bytes = 0;
  int64_t fec_bytes = 0;
  int64_t frames_encoded = 0;
  // receiver (and the fec recovery inside it)
  int64_t rtp_received = 0;
  int64_t fec_received = 0;
  int64_t fec_used = 0;
  int64_t fec_recovered = 0;
  int64_t nacks_sent = 0;
  int64_t nack_recovered = 0;
  int64_t nack_abandoned = 0;
  int64_t pb_evicted = 0;
  int64_t frames_dropped = 0;
  int64_t keyframe_requests = 0;
  int64_t frames_decoded = 0;
  // session.hub
  int64_t hub_forwarded = 0;
  int64_t hub_thinned = 0;
  int64_t hub_evicted = 0;
  int64_t hub_rtx_answered = 0;
  int64_t hub_plis = 0;
  int64_t hub_layer_switches = 0;
  int64_t hub_filtered = 0;
  int64_t hub_padding = 0;
  int64_t hub_max_queue_delay_us = 0;

  void Add(const LayerCounts& other);
  // Layers ("sim", "net", ...) with at least one differing counter.
  std::vector<std::string> DifferingLayers(const LayerCounts& other) const;
};

// The objects a count covers. Pointers may repeat (a star uplink's sender
// feeds several legs); each distinct object is counted once.
struct PipelineView {
  int64_t events = 0;
  std::vector<const converge::Network*> networks;
  std::vector<const converge::Sender*> senders;
  std::vector<const converge::ReceiverEndpoint*> receivers;
  std::vector<const converge::HubForwarder*> forwarders;
};

PipelineView ViewOf(converge::Conference& conference, int num_participants);
LayerCounts Count(const PipelineView& view);

// Link packet conservation on every link of the view: sent = delivered +
// lost + queue-dropped + still queued, with the queued remainder consistent
// with the link's queued byte count. Returns the first violation, or "".
std::string CheckLinkConservation(const PipelineView& view);

}  // namespace perfbench
