// Plan-quality observability: the value types of rewrite-rule traces,
// cardinality feedback and plan-change history.
//
// All three are captured as a side effect of normal compile/execute,
// always on, and kept per statement digest in the DigestStore
// (obs/digest_store.h):
//
//  1. Rewrite traces. The QGM rule engine records one RewriteEvent per rule
//     application attempt — fired or not, how many candidate matches the
//     rule rejected, wall time, live box count before/after. The trace of
//     the most recent compile per digest surfaces as `SYS$REWRITES` and as
//     EXPLAIN REWRITE's ordered rule log.
//
//  2. Cardinality feedback. The planner stamps its estimated row count on
//     every physical operator; at query end the executor joins estimates
//     against the actuals the operator wrappers already maintain and
//     computes the per-operator q-error max(est/actual, actual/est). The
//     worst offenders per digest surface as `SYS$PLAN_FEEDBACK` and
//     annotate slow-query-log lines.
//
//  3. Plan-change detection. Each execution hashes its physical plan shape
//     (operator kinds + access paths, no literals); per digest the store
//     keeps a bounded history of distinct plan hashes with first/last seen,
//     execution counts and mean execute time (`SYS$PLAN_HISTORY`). A flip —
//     an execution whose plan hash differs from the previous one — is
//     reported to the caller so it can log one structured warn line.
//
// Everything here is plain strings and integers: obs sits below qgm and
// exec in the library order, so the rewrite engine, planner, executor and
// sysview providers can all depend on these types.

#ifndef XNFDB_OBS_PLAN_FEEDBACK_H_
#define XNFDB_OBS_PLAN_FEEDBACK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xnfdb {
namespace obs {

// One rewrite-rule application attempt (one Apply call, or one monolithic
// semantic-rewrite phase reported as a pseudo-rule).
struct RewriteEvent {
  std::string rule;
  int pass = 0;          // 1-based rule-engine pass; 0 = pre-engine phase
  bool fired = false;    // did the rule change the graph
  int64_t rejected = 0;  // candidate matches inspected and declined
  int64_t wall_us = 0;
  int boxes_before = 0;  // live (non-dead) QGM boxes before the attempt
  int boxes_after = 0;
};

// The ordered rule log of one compile. Bounded: events beyond `capacity`
// are counted in `dropped` instead of stored.
struct RewriteTrace {
  size_t capacity = 256;
  std::vector<RewriteEvent> events;
  int64_t dropped = 0;

  void Add(RewriteEvent event) {
    if (events.size() >= capacity) {
      ++dropped;
      return;
    }
    events.push_back(std::move(event));
  }

  // The EXPLAIN REWRITE rendering: one line per event, in order.
  std::string ToString() const;
};

// The q-error of an estimate: max(est/actual, actual/est), both clamped to
// >= 1 row first so the zero edges stay finite (QError(0, 0) == 1,
// QError(0, n) == n). Always >= 1; 1 means exact.
double QError(double est, double actual);

// One operator's estimated-vs-actual comparison within one execution.
struct OpFeedback {
  std::string output;  // output stream the operator belongs to
  std::string op;      // operator class ("scan", "hash_join", ...)
  double est_rows = -1.0;  // < 0: planner provided no estimate
  int64_t actual_rows = 0;
  int64_t loops = 0;
  double q_error = 0.0;
};

// One distinct physical plan of a statement shape.
struct PlanRecord {
  uint64_t plan_hash = 0;
  std::string shape;  // "OUT=op(op(scan:T));..." — no literals
  int64_t first_seen_us = 0;  // unix micros
  int64_t last_seen_us = 0;
  int64_t executions = 0;
  int64_t total_execute_us = 0;

  int64_t mean_execute_us() const {
    return executions > 0 ? total_execute_us / executions : 0;
  }
};

}  // namespace obs
}  // namespace xnfdb

#endif  // XNFDB_OBS_PLAN_FEEDBACK_H_
