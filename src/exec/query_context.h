// Per-query resource governance (cooperative cancellation, deadlines,
// row/memory budgets).
//
// One QueryContext is shared by everything that runs on behalf of a single
// query: the executor's output passes, morsel workers, the recursive
// fixpoint evaluator, and plan-time spool/materialization builds. All state
// is atomic, so any thread may flip the cancellation flag (Database::Cancel,
// shell `.kill`) while worker threads are mid-pipeline; workers observe it
// at the next batch boundary and unwind by returning a typed Status
// (kCancelled / kDeadlineExceeded / kResourceExhausted) up the operator
// tree. No thread is ever interrupted preemptively — a governed query can
// therefore never leave a batch pool, spool, or bucket in a torn state.
//
// Check-point placement rules (DESIGN.md §11): the non-virtual
// Operator::Open/Next/NextBatch wrappers check automatically, so a new
// operator inherits governance for free; code that *materializes* rows
// outside the operator tree (spools, join build sides, sort buffers,
// fixpoint candidates, executor output buffers) must additionally charge
// ReserveBytes, and code that *emits* result rows must charge
// ChargeOutputRows.

#ifndef XNFDB_EXEC_QUERY_CONTEXT_H_
#define XNFDB_EXEC_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/value.h"
#include "obs/flight_recorder.h"

namespace xnfdb {

// Limits applied to one query. Zero means "no limit" throughout.
struct QueryLimits {
  int64_t deadline_us = 0;         // absolute steady-clock microseconds
  int64_t max_result_rows = 0;     // cap on rows produced into the answer
  int64_t mem_budget_bytes = 0;    // cap on bytes materialized server-side
};

// Rough heap footprint of one tuple: the Value slots plus owned string
// payloads. An estimate, not an allocator audit — budgets bound runaway
// materialization, they do not meter malloc.
inline int64_t ApproxTupleBytes(const Tuple& row) {
  int64_t bytes = static_cast<int64_t>(row.size() * sizeof(Value));
  for (const Value& v : row) {
    if (v.type() == DataType::kString) {
      bytes += static_cast<int64_t>(v.AsString().size());
    }
  }
  return bytes;
}

class QueryContext {
 public:
  QueryContext() : start_us_(NowUs()) {}
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  static int64_t NowUs() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Set once before execution starts (not thread-safe against checks).
  void SetLimits(const QueryLimits& limits) { limits_ = limits; }
  const QueryLimits& limits() const { return limits_; }

  // Requests cooperative termination; safe from any thread, idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  int64_t rows_produced() const {
    return rows_produced_.load(std::memory_order_relaxed);
  }
  int64_t bytes_reserved() const {
    return bytes_reserved_.load(std::memory_order_relaxed);
  }
  int64_t elapsed_us() const { return NowUs() - start_us_; }

  // Liveness heartbeat for the stuck-query watchdog: operator wrappers
  // tick at batch boundaries (every Open/NextBatch). A running query whose
  // tick count stops advancing is stalled — wedged inside one call, not
  // merely slow between rows.
  void Tick() { progress_ticks_.fetch_add(1, std::memory_order_relaxed); }
  int64_t progress_ticks() const {
    return progress_ticks_.load(std::memory_order_relaxed);
  }

  // Admission wait, recorded by Governor::Admit before execution starts
  // (profile capture reads it at query end).
  void set_queue_wait_us(int64_t us) {
    queue_wait_us_.store(us, std::memory_order_relaxed);
  }
  int64_t queue_wait_us() const {
    return queue_wait_us_.load(std::memory_order_relaxed);
  }

  // Cancellation only: one relaxed-ish atomic load, cheap enough for
  // per-row call sites.
  Status CheckCancelled() const {
    if (cancelled()) return TerminationStatus(StatusCode::kCancelled);
    return Status::Ok();
  }

  // Full cooperative check: cancellation plus deadline (one clock read,
  // skipped when no deadline is set). Called at batch boundaries.
  Status Check() const {
    if (cancelled()) return TerminationStatus(StatusCode::kCancelled);
    if (limits_.deadline_us != 0 && NowUs() > limits_.deadline_us) {
      return TerminationStatus(StatusCode::kDeadlineExceeded);
    }
    return Status::Ok();
  }

  // Accounts `n` rows produced toward the answer set; fails when the row
  // budget is exceeded.
  Status ChargeOutputRows(int64_t n) {
    int64_t total = rows_produced_.fetch_add(n, std::memory_order_relaxed) + n;
    if (limits_.max_result_rows != 0 && total > limits_.max_result_rows) {
      return TerminationStatus(StatusCode::kResourceExhausted,
                               "row budget of " +
                                   std::to_string(limits_.max_result_rows) +
                                   " rows exceeded");
    }
    return Status::Ok();
  }

  // Accounts `n` bytes materialized server-side (spools, build sides,
  // output buffers); fails when the memory budget is exceeded.
  Status ReserveBytes(int64_t n) {
    int64_t total =
        bytes_reserved_.fetch_add(n, std::memory_order_relaxed) + n;
    if (limits_.mem_budget_bytes != 0 && total > limits_.mem_budget_bytes) {
      return TerminationStatus(StatusCode::kResourceExhausted,
                               "memory budget of " +
                                   std::to_string(limits_.mem_budget_bytes) +
                                   " bytes exceeded");
    }
    return Status::Ok();
  }

 private:
  // Every termination reports how far execution got, so a client knows what
  // was discarded ("never a partial silent result").
  Status TerminationStatus(StatusCode code, std::string detail = "") const {
    // Detail is the code keyword only: every morsel worker of a cancelled
    // query lands here, and byte-identical events coalesce into one.
    obs::FlightRecorder::Default().Record(
        "governor", "warn", "query terminated",
        code == StatusCode::kCancelled          ? "reason=cancelled"
        : code == StatusCode::kDeadlineExceeded ? "reason=deadline"
                                                : "reason=budget");
    std::string m = detail.empty()
                        ? (code == StatusCode::kCancelled
                               ? std::string("query cancelled")
                               : std::string("query deadline exceeded"))
                        : std::move(detail);
    m += " after " + std::to_string(elapsed_us()) + "us, " +
         std::to_string(rows_produced()) + " rows produced, " +
         std::to_string(bytes_reserved()) + " bytes reserved";
    return Status(code, std::move(m));
  }

  std::atomic<bool> cancelled_{false};
  QueryLimits limits_;
  std::atomic<int64_t> rows_produced_{0};
  std::atomic<int64_t> bytes_reserved_{0};
  std::atomic<int64_t> progress_ticks_{0};
  std::atomic<int64_t> queue_wait_us_{0};
  int64_t start_us_ = 0;
};

}  // namespace xnfdb

#endif  // XNFDB_EXEC_QUERY_CONTEXT_H_
