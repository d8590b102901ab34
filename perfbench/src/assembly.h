// The traced run's pipeline assembly.
//
// Builds one conference's pipelines from the layers' public classes
// (EventLoop, Network, Sender, ReceiverEndpoint, MetricsCollector,
// HubForwarder, plus forwarding decorators around Scheduler and
// FecController), the way examples/custom_scheduler.cpp wires a call by
// hand. It mirrors Conference's construction order, RNG forks and routing
// hop for hop, so on the same config it executes the same events, and it
// opens a span (spans.h) around every call it makes into a layer:
//
//   EventLoop::RunUntil                     the root of each slice
//   Link::Send                              every wire hop
//   ReceiverEndpoint::OnRtpPacket/OnRtcp    delivery callbacks
//   Sender::HandleRtcp                      feedback delivery (incl. cc)
//   HubForwarder::OnMediaFromUplink/
//                 OnReceiverRtcp            hub ingress
//   Scheduler::AssignFrame                  decorator
//   FecController::NumFecPackets            decorator
//
// Supported shapes are those the benchmark's workloads use: Converge (with
// or without QoE feedback) meshes without churn, and single-hub stars with or
// without churn. Spans are recorded only while a SpanRecorder is installed
// on the thread.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "session/conference.h"

namespace perfbench {

class Assembly {
 public:
  explicit Assembly(const converge::ConferenceConfig& config);
  ~Assembly();
  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;

  // Empty when the config is one this assembly mirrors; otherwise why not.
  static std::string Unsupported(const converge::ConferenceConfig& config);

  // Starts every endpoint inside one Endpoint::Start root span (senders
  // may emit their first frame here, before the loop runs).
  void Start();
  // Drains the loop up to `t` inside one EventLoop::RunUntil span.
  void RunUntil(converge::Timestamp t);

  PipelineView View() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
