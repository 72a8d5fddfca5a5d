// Query-lifecycle tracing: hierarchical spans over
// parse → semantics → XNF rewrite → NF rewrite → plan → execute → deliver.
//
// A `Tracer` collects completed spans; a `Span` is an RAII handle that
// measures wall time from construction to End()/destruction and records
// itself into its tracer. Nesting is tracked per thread (a span started
// while another span of the same tracer is open on the same thread becomes
// its child), so the spans of concurrent morsel workers never nest under
// one another.
//
// The collected trace renders as Chrome `trace_event` JSON (load via
// chrome://tracing or https://ui.perfetto.dev). Setting the environment
// variable `XNFDB_TRACE` turns tracing on for every `Database` constructed
// afterwards; when its value looks like a path (anything but "0"/"1"), the
// Database dumps the trace there on destruction.

#ifndef XNFDB_OBS_TRACE_H_
#define XNFDB_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace xnfdb {
namespace obs {

// One completed span.
struct SpanRecord {
  std::string name;
  int64_t id = 0;
  int64_t parent_id = 0;  // 0 = root
  int64_t start_us = 0;   // relative to the tracer's epoch
  int64_t dur_us = 0;
  uint64_t thread_id = 0;
};

class Tracer;

// RAII span. Movable, not copyable. A span created from a disabled (or
// null) tracer is a no-op with near-zero cost.
class Span {
 public:
  Span() = default;
  Span(Tracer* tracer, std::string name);
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  // Completes the span (idempotent).
  void End();
  bool active() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_ = nullptr;
  std::string name_;
  int64_t id_ = 0;
  int64_t parent_id_ = 0;
  int64_t start_us_ = 0;
};

class Tracer {
 public:
  // A tracer starts enabled or disabled; a disabled tracer hands out no-op
  // spans. `Tracer(FromEnv{})` follows XNFDB_TRACE.
  struct FromEnv {};
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}
  explicit Tracer(FromEnv) : Tracer(EnvEnabled()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // True when XNFDB_TRACE is set to anything but "" or "0".
  static bool EnvEnabled();
  // The dump path implied by XNFDB_TRACE: its value when it names a file,
  // "xnfdb_trace.json" when it is just a truthy flag, "" when unset.
  static std::string EnvDumpPath();

  Span StartSpan(std::string name) { return Span(this, std::move(name)); }

  // Completed spans so far, in completion order.
  std::vector<SpanRecord> Spans() const;
  void Clear();

  // Chrome trace_event JSON ("X" complete events; span hierarchy is
  // recoverable from the args.parent ids and the timestamps).
  std::string ChromeTraceJson() const;

 private:
  friend class Span;

  // Microseconds since this tracer's construction.
  int64_t NowUs() const;
  // Span bookkeeping used by the Span handle.
  int64_t OpenSpan(int64_t* parent_out);
  void CloseSpan(SpanRecord record);

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  bool enabled_ = true;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::atomic<int64_t> next_id_{1};
};

}  // namespace obs
}  // namespace xnfdb

#endif  // XNFDB_OBS_TRACE_H_
