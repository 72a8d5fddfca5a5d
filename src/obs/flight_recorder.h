// Incident flight recorder: a bounded, lock-light ring of structured
// events — the engine's black box. Subsystems that already detect trouble
// (warn+ log lines, query start/end, governor admissions/rejections/kills,
// watchdog stall flags, plan-change flips, writeback retries/failures, Env
// I/O errors) each record one event; the ring keeps the last N in sequence
// order so a crash report or `SELECT * FROM SYS$EVENTS` can answer "what
// was the engine doing just before this?".
//
// Design constraints, in order:
//  * the crash path must be able to read the ring from a signal handler —
//    no locks, no allocation. Slots are fixed-size POD published under a
//    per-slot seqlock: a reader that observes the same sequence number
//    before and after copying the slot has a consistent event; anything
//    else is skipped. `DumpTailUnsafe` is the async-signal-safe reader.
//  * recording must be cheap enough to leave on (events are rare — tens
//    per second at the very worst — so writers share one short mutex; the
//    disabled check is a single relaxed atomic load, which is what the CI
//    forensics-overhead gate measures via XNFDB_EVENTS=0 vs 1).
//  * repeated identical events coalesce in place: a run of byte-identical
//    (category, severity, message, detail) events bumps the newest event's
//    `repeated` count instead of flooding the ring — a wedged retry loop
//    leaves one event saying "xN", not N copies of itself.
//
// The process-wide instance (`Default()`) holds kDefaultCapacity (1024)
// events and starts disabled when XNFDB_EVENTS=0. That knob is read with
// plain getenv here — obs sits below common, so the checked ParseEnvBool
// re-resolution (with its warn-once behavior) happens in the Database
// constructor.

#ifndef XNFDB_OBS_FLIGHT_RECORDER_H_
#define XNFDB_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xnfdb {
namespace obs {

class Counter;

class FlightRecorder {
 public:
  // Detached copy of one recorded event (Snapshot / SYS$EVENTS).
  struct Event {
    int64_t seq = 0;    // monotonic, 1-based; gaps never occur
    int64_t ts_us = 0;  // wall-clock microseconds (same clock as log lines)
    int64_t repeated = 1;  // identical consecutive occurrences folded in
    std::string category;  // feeding subsystem / log channel
    std::string severity;  // "info" | "warn" | "error"
    std::string message;
    std::string detail;  // free-form "k=v ..." context, may be empty
  };

  // Field capacities (bytes, including the NUL); longer inputs truncate.
  static constexpr size_t kCategoryBytes = 16;
  static constexpr size_t kSeverityBytes = 8;
  static constexpr size_t kMessageBytes = 96;
  static constexpr size_t kDetailBytes = 240;

  static constexpr size_t kDefaultCapacity = 1024;

  // The process-wide recorder every subsystem feeds (kDefaultCapacity
  // events; XNFDB_EVENTS=0 starts it disabled). Never destroyed:
  // event sites may run during process teardown.
  static FlightRecorder& Default();

  explicit FlightRecorder(size_t capacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Records one event (no-op while disabled). When category, severity,
  // message and detail are all byte-identical (after truncation) to the
  // newest recorded event, that event's `repeated` count and timestamp are
  // bumped instead of consuming a new slot — callers control coalescing
  // granularity by what they put in `detail`.
  void Record(std::string_view category, std::string_view severity,
              std::string_view message, std::string_view detail = {});

  // Every retained event, oldest first. Consistent: taken under the
  // writer mutex.
  std::vector<Event> Snapshot() const;

  // Async-signal-safe tail dump: renders up to `max_events` of the newest
  // events (oldest of them first) into `buf` as text lines, NUL-terminates,
  // and returns the byte length written (excluding the NUL). Reads slots
  // via the seqlock protocol only — no locks, no allocation — so a crash
  // handler may call it while a writer holds the mutex.
  size_t DumpTailUnsafe(char* buf, size_t buf_size, size_t max_events) const;

  size_t capacity() const { return capacity_; }
  // Sequence number of the newest event (0 when empty).
  int64_t last_seq() const {
    return next_seq_.load(std::memory_order_acquire);
  }
  // Events accepted / folded into a predecessor, over the recorder's life.
  int64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  int64_t coalesced() const {
    return coalesced_.load(std::memory_order_relaxed);
  }

 private:
  // One ring slot. `seq` is the publication word: 0 = never written,
  // -1 = mid-write, otherwise the event's sequence number. Event `s` lives
  // in slot `s % capacity`, so a reader can address any live sequence
  // number directly and validate it against the slot's published `seq`.
  struct Slot {
    std::atomic<int64_t> seq{0};
    int64_t ts_us = 0;
    int64_t repeated = 1;
    char category[kCategoryBytes] = {};
    char severity[kSeverityBytes] = {};
    char message[kMessageBytes] = {};
    char detail[kDetailBytes] = {};
  };

  const size_t capacity_;
  std::vector<Slot> slots_;
  std::atomic<bool> enabled_{true};
  std::atomic<int64_t> next_seq_{0};  // newest published seq; writers hold mu_
  std::atomic<int64_t> recorded_{0};
  std::atomic<int64_t> coalesced_{0};
  mutable std::mutex mu_;  // serializes writers and Snapshot
  // Process-wide activity counters (events.recorded / events.coalesced);
  // null until first Record so construction order stays trivial.
  Counter* recorded_counter_ = nullptr;
  Counter* coalesced_counter_ = nullptr;
};

}  // namespace obs
}  // namespace xnfdb

#endif  // XNFDB_OBS_FLIGHT_RECORDER_H_
