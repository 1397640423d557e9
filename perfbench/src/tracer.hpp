// In-memory span recorder for the traced benchmark run.
//
// A span is one call from the benchmark into a library layer: its name
// ("<layer>.<call>", the layer being a src/ module), start, end, the span
// that was open on the same thread when it began (its parent), and the trial
// it belongs to. Spans stay in memory until the run ends; then they are
// written as Chrome trace-event JSON and folded into per-layer self times.
// With tracing off, Span costs one branch.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `since`.
inline double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

struct SpanRecord {
  std::string name;
  double startUs = 0.0;
  double endUs = 0.0;
  int parent = -1; ///< index into the span list; -1 for a root span
  int trial = -1;  ///< trial / op id; -1 when the span is not per-trial
  int thread = 0;  ///< small per-thread index, in order of first use

  double ms() const { return (endUs - startUs) * 1e-3; }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
public:
  /// The tracer spans record into; nullptr when tracing is off.
  static Tracer* active() { return active_; }
  static void enable(Tracer* tracer) { active_ = tracer; }

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span; `parent` < 0 means the span open on this thread.
  int open(const char* name, int trial, int parent);
  void close(int id);

  /// Completed spans (call after every traced thread has joined).
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Spans named exactly `name`.
  std::vector<const SpanRecord*> named(const std::string& name) const;
  /// Sum of durations of the spans named `name` [ms].
  double total_ms(const std::string& name) const;
  /// Self time per layer: each span's duration minus the part of it that
  /// its child spans cover [ms].
  std::map<std::string, double> layer_self_ms() const;
  /// Writes the Chrome trace-event JSON file; returns false on I/O error.
  bool write_chrome_json(const std::string& path) const;

private:
  static Tracer* active_;
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  int threads_ = 0;
};

/// RAII span; records nothing when tracing is off.
class Span {
public:
  /// `parent` names a span on another thread (a campaign span for the
  /// trials its workers run); by default it is the span open on this thread.
  explicit Span(const char* name, int trial = -1, int parent = -1)
      : tracer_(Tracer::active()),
        id_(tracer_ ? tracer_->open(name, trial, parent) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

private:
  Tracer* tracer_;
  int id_;
};

} // namespace perfbench
