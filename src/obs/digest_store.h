// One record per statement digest, in the spirit of pg_stat_statements.
//
// Every statement the Database runs is fingerprinted (literals normalized
// to `?`, shape hashed to a 64-bit digest, parser/fingerprint.h). All that
// the engine learns about a statement shape as a side effect of running it
// lands in the one DigestStore record kept under that digest:
//
//  - Statement outcomes: calls, errors, rows, min/max/total latency and a
//    full latency histogram, so p50/p99 can be reported per shape
//    (`SYS$STATEMENTS`, and `SYS$HISTOGRAMS` under `stmt.<digest>.us`).
//  - Execution profiles: the number of captures, the most recent
//    QueryProfile (obs/query_profile.h) and cumulative per-operator-class
//    self times (`SYS$QUERY_PROFILES`, the SYS$STATEMENTS *_SELF_US
//    rollup).
//  - Plan quality (obs/plan_feedback.h): the most recent compile's rewrite
//    trace (`SYS$REWRITES`), the worst q-error offenders
//    (`SYS$PLAN_FEEDBACK`) and a bounded history of distinct physical plans
//    with plan-change detection (`SYS$PLAN_HISTORY`).
//
// Those six system views (storage/sysview.h) are projections over one
// Snapshot(), and matview auto-selection reads calls and mean latency from
// the same record (Stats).
//
// The store is bounded: once `capacity` distinct digests exist, records for
// new digests are counted in dropped() instead of allocating — a
// plan-cache-style cap that keeps a hostile or ad-hoc workload from growing
// the store without bound. Per-record vectors are truncated to kMaxOps
// offenders and kMaxPlans plans. It is thread-safe: one mutex, taken a few
// times per statement, far off the per-tuple hot path.

#ifndef XNFDB_OBS_DIGEST_STORE_H_
#define XNFDB_OBS_DIGEST_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/plan_feedback.h"
#include "obs/query_profile.h"

namespace xnfdb {
namespace obs {

// Renders a statement digest the way it is surfaced everywhere (16 hex
// digits, zero padded).
std::string DigestHex(uint64_t digest);

// Point-in-time copy of one digest's record.
struct DigestRecord {
  uint64_t digest = 0;
  std::string digest_hex;
  std::string text;  // normalized statement text (literals are `?`)
  std::string kind;  // "query" | "dml" | "ddl"; empty until a statement ends

  // Statement outcomes (RecordStatement). A record with calls == 0 has only
  // been compiled or executed so far and is not listed in SYS$STATEMENTS.
  int64_t calls = 0;
  int64_t errors = 0;
  int64_t rows = 0;  // rows returned (queries) or affected (DML)
  int64_t total_us = 0;
  int64_t min_us = 0;
  int64_t max_us = 0;
  HistogramSnapshot latency;

  // Execution profiles (RecordExecution with a profile).
  int64_t captures = 0;
  QueryProfile last_profile;  // most recent capture
  // Cumulative self time per ClassifyOp bucket across all captures.
  int64_t scan_self_us = 0;
  int64_t join_self_us = 0;
  int64_t filter_self_us = 0;
  int64_t other_self_us = 0;

  // Plan quality (RecordCompile, RecordExecution with a plan shape).
  RewriteTrace trace;        // most recent compile's rule log
  int64_t executions = 0;    // executions with a recorded plan
  int64_t plan_changes = 0;  // executions whose plan differed from the last
  std::vector<OpFeedback> worst;  // worst q-error first
  std::vector<PlanRecord> plans;  // distinct plans, first-seen order
  uint64_t current_plan = 0;      // plan hash of the most recent execution

  int64_t avg_us() const { return calls > 0 ? total_us / calls : 0; }
};

class DigestStore {
 public:
  // Worst q-error offenders and distinct plans kept per digest.
  static constexpr size_t kMaxOps = 8;
  static constexpr size_t kMaxPlans = 8;

  explicit DigestStore(size_t capacity = 512) : capacity_(capacity) {}
  DigestStore(const DigestStore&) = delete;
  DigestStore& operator=(const DigestStore&) = delete;

  // One compile of the statement shape `digest`: replaces the stored
  // rewrite trace with this compile's. `text` is stored on first sight of
  // the digest (by any Record call).
  void RecordCompile(uint64_t digest, const std::string& text,
                     const RewriteTrace& trace);

  // What RecordExecution observed about plan stability.
  struct PlanChange {
    bool changed = false;  // plan hash differs from the previous execution
    uint64_t from = 0;
    uint64_t to = 0;
    int64_t executions = 0;  // executions of the digest with a plan so far
  };

  // One successful execution that took `execute_us`. A non-null `profile`
  // is captured as the digest's last profile and its per-operator self
  // times are rolled up by class. A non-empty `plan_shape` folds `feedback`
  // into the worst-offender list (sorted by q-error, truncated to kMaxOps)
  // and accounts `plan_hash` in the plan history (evicting the plan least
  // recently seen past kMaxPlans); the result then says whether the plan
  // flipped relative to the previous execution.
  PlanChange RecordExecution(uint64_t digest, const std::string& text,
                             int64_t execute_us, const QueryProfile* profile,
                             uint64_t plan_hash, const std::string& plan_shape,
                             std::vector<OpFeedback> feedback);

  // One finished statement: accumulates its outcome and latency. `kind` is
  // stored with the first outcome.
  void RecordStatement(uint64_t digest, const std::string& text,
                       const std::string& kind, bool ok, int64_t rows,
                       int64_t elapsed_us);

  // Cheap per-digest lookup for policy decisions (the matview store's
  // auto-materialization threshold): fills `*calls` / `*avg_us` and returns
  // true when the digest has a record. Either out pointer may be null.
  bool Stats(uint64_t digest, int64_t* calls, int64_t* avg_us) const;

  // The worst misestimate recorded for `digest` (empty-op OpFeedback when
  // none) — the slow-query-log annotation.
  OpFeedback TopMisestimate(uint64_t digest) const;

  // All records, in digest order.
  std::vector<DigestRecord> Snapshot() const;

  size_t size() const;
  // Record calls whose (new) digest did not fit under `capacity`.
  int64_t dropped() const;

  void Reset();

 private:
  struct Entry {
    DigestRecord record;  // everything but `latency`
    Histogram latency{Histogram::DefaultLatencyBoundsUs()};
  };

  // Looks up (or creates, capacity permitting) the digest's entry; requires
  // mu_. Null when the store is full.
  Entry* Find(uint64_t digest, const std::string& text);

  mutable std::mutex mu_;
  size_t capacity_;
  std::map<uint64_t, Entry> entries_;
  int64_t dropped_ = 0;
};

}  // namespace obs
}  // namespace xnfdb

#endif  // XNFDB_OBS_DIGEST_STORE_H_
