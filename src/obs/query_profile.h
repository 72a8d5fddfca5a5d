// Always-on per-query execution profiles.
//
// EXPLAIN ANALYZE gives exact per-operator actuals, but only when a human
// re-runs the query under instrumentation. The profiler keeps a cheap
// profile of *every* query as a side effect of normal execution: the
// per-operator row/batch/loop counters the operator wrappers maintain
// anyway, plus batch-granularity inclusive wall time (two clock reads per
// ~1k-row batch, not per row — the overhead budget is <= 5% of the execute
// phase), the morsel-worker breakdown, the query's memory high-water and
// its governor queue wait. The executor aggregates the finished operator
// trees by operator class into a QueryProfile; the Database captures it
// into the statement fingerprint's DigestStore record
// (obs/digest_store.h).
//
// Contents surface through `SYS$QUERY_PROFILES` (one row per operator class
// of the most recent capture, plus one row per morsel worker), and the
// per-class *self* times roll up into `SYS$STATEMENTS` — which is exactly
// the frequency-and-cost-over-time substrate server-side CO-view
// materialization needs to choose what to materialize.

#ifndef XNFDB_OBS_QUERY_PROFILE_H_
#define XNFDB_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xnfdb {
namespace obs {

// Totals of one operator class within one query execution. `incl_us` is
// inclusive of children; `self_us` subtracts the children's inclusive time
// (clamped at zero). Wall times are batch-granularity: every operator
// produces batches, so every operator reports time (the input scans of
// sorts, aggregates and join builds included).
struct OpProfile {
  std::string op;  // operator class ("scan", "hash_join", ...)
  int64_t loops = 0;
  int64_t rows = 0;
  int64_t batches = 0;
  int64_t incl_us = 0;
  int64_t self_us = 0;
};

// One morsel worker's share of a query (stable worker id = index in the
// worker pool, matching the "morsel-worker #<id>" trace spans).
struct WorkerProfile {
  int64_t worker = 0;
  int64_t rows = 0;     // rows the worker produced into morsel buckets
  int64_t morsels = 0;  // morsels it claimed
  int64_t wall_us = 0;  // the worker thread's wall time
};

// One captured execution.
struct QueryProfile {
  std::vector<OpProfile> ops;          // aggregated by class, sorted by op
  std::vector<WorkerProfile> workers;  // morsel workers, by id
  int64_t wall_us = 0;        // execute-phase wall time
  int64_t queue_wait_us = 0;  // governor admission wait
  int64_t peak_bytes = 0;     // QueryContext memory high-water
  int64_t rows_out = 0;
};

// Maps an operator class to the broad bucket SYS$STATEMENTS rolls self-time
// up into: "scan" | "join" | "filter" | "other".
const char* ClassifyOp(const std::string& op);

}  // namespace obs
}  // namespace xnfdb

#endif  // XNFDB_OBS_QUERY_PROFILE_H_
