#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local SpanRecorder* current_recorder = nullptr;

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRunUntil:
      return "EventLoop::RunUntil";
    case SpanKind::kLinkSend:
      return "Link::Send";
    case SpanKind::kOnRtp:
      return "ReceiverEndpoint::OnRtpPacket";
    case SpanKind::kOnRtcp:
      return "ReceiverEndpoint::OnRtcpPacket";
    case SpanKind::kHandleRtcp:
      return "Sender::HandleRtcp";
    case SpanKind::kHubMedia:
      return "HubForwarder::OnMediaFromUplink";
    case SpanKind::kHubRtcp:
      return "HubForwarder::OnReceiverRtcp";
    case SpanKind::kAssignFrame:
      return "Scheduler::AssignFrame";
    case SpanKind::kNumFec:
      return "FecController::NumFecPackets";
    case SpanKind::kStart:
      return "Endpoint::Start";
  }
  return "?";
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

KindTotals Aggregate(const std::vector<Span>& spans) {
  KindTotals out{};
  const std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[static_cast<size_t>(spans[i].kind)];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

SpanRecorder::SpanRecorder(size_t keep, Clock clock)
    : keep_(keep), clock_(clock != nullptr ? clock : &SteadyNowNs) {
  records_.reserve(keep_);
  stack_.reserve(64);
}

SpanRecorder* SpanRecorder::Current() { return current_recorder; }

void SpanRecorder::Install(SpanRecorder* recorder) {
  current_recorder = recorder;
}

void SpanRecorder::Open(SpanKind kind) {
  int32_t record = -1;
  if (records_.size() < keep_) {
    record = static_cast<int32_t>(records_.size());
    Span s;
    s.kind = kind;
    s.parent = stack_.empty() ? -1 : stack_.back().record;
    s.call = call_;
    records_.push_back(s);
  } else {
    ++dropped_;
  }
  // Read the clock last, so the record bookkeeping above is charged to the
  // parent rather than to this span.
  stack_.push_back(Frame{kind, record, clock_(), 0});
}

void SpanRecorder::Close() {
  const int64_t end = clock_();
  const Frame f = stack_.back();
  stack_.pop_back();
  const int64_t duration = end - f.start_ns;
  SpanTotals& t = totals_[static_cast<size_t>(f.kind)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - f.child_ns;
  if (stack_.empty()) {
    ++roots_[static_cast<size_t>(f.kind)];
  } else {
    stack_.back().child_ns += duration;
  }
  if (f.record >= 0) {
    Span& s = records_[static_cast<size_t>(f.record)];
    s.start_ns = f.start_ns;
    s.end_ns = end;
  }
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : records_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"call\":%d}\n",
                 SpanName(s.kind), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.call);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
