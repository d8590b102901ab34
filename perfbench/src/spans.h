// In-memory span recorder for the benchmark's traced run.
//
// A span brackets one call the benchmark makes into a library layer (the
// seams are listed in SpanKind). Spans nest: the event-loop drain is the
// root, and every layer call made while it runs is a child of the span that
// was open when it started. All of this is single-threaded (one recorder per
// thread), so a parent's children never overlap and a span's self time is
// its duration minus the summed durations of its direct children.
//
// The recorder folds every span into per-kind totals as it closes, and keeps
// the first `keep` span records (name, start, end, parent, call id) for
// writing out when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t {
  kRunUntil,      // EventLoop::RunUntil (the root)
  kLinkSend,      // Link::Send
  kOnRtp,         // ReceiverEndpoint::OnRtpPacket (delivery callback)
  kOnRtcp,        // ReceiverEndpoint::OnRtcpPacket (delivery callback)
  kHandleRtcp,    // Sender::HandleRtcp (includes the per-path cc)
  kHubMedia,      // HubForwarder::OnMediaFromUplink
  kHubRtcp,       // HubForwarder::OnReceiverRtcp
  kAssignFrame,   // Scheduler::AssignFrame
  kNumFec,        // FecController::NumFecPackets
  kStart,         // Sender/ReceiverEndpoint::Start (a root, before the loop)
};
inline constexpr int kNumSpanKinds = 10;
const char* SpanName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kRunUntil;
  int32_t parent = -1;  // index of the parent record; -1 for a root
  int32_t call = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
using KindTotals = std::array<SpanTotals, kNumSpanKinds>;

// Offline self-time arithmetic over a closed, well-nested span list: entry i
// is spans[i]'s duration minus the durations of the spans whose parent is i.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);
// Per-kind count / duration / self time of a closed span list.
KindTotals Aggregate(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  using Clock = int64_t (*)();
  // `keep`: span records retained for WriteJsonl; totals cover every span.
  explicit SpanRecorder(size_t keep, Clock clock = nullptr);

  // The recorder spans on this thread report to (nullptr: spans are off).
  static SpanRecorder* Current();
  static void Install(SpanRecorder* recorder);

  void set_call(int32_t call) { call_ = call; }
  void Open(SpanKind kind);
  void Close();

  const KindTotals& totals() const { return totals_; }
  const std::vector<Span>& records() const { return records_; }
  // Spans that closed with no parent, by kind. Only kRunUntil and kStart
  // should be roots; anything else ran outside them and is flagged.
  const std::array<int64_t, kNumSpanKinds>& roots() const { return roots_; }
  int64_t dropped_records() const { return dropped_; }
  bool balanced() const { return stack_.empty(); }

  // One JSON object per retained span.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Frame {
    SpanKind kind;
    int32_t record;
    int64_t start_ns;
    int64_t child_ns;
  };

  size_t keep_;
  Clock clock_;
  int32_t call_ = 0;
  std::vector<Frame> stack_;
  std::vector<Span> records_;
  KindTotals totals_{};
  std::array<int64_t, kNumSpanKinds> roots_{};
  int64_t dropped_ = 0;
};

// RAII span on the current thread's recorder; a no-op when none is
// installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) : recorder_(SpanRecorder::Current()) {
    if (recorder_ != nullptr) recorder_->Open(kind);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench
