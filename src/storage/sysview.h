// Virtual system tables ("sys$" views): engine state exposed as relations,
// queryable through the ordinary SQL/XNF machinery. Following the paper's
// thesis that structured data belongs behind the relational interface
// (Sect. 2) — and Litwin's stored/inherited relations — internal state is
// not a side-channel JSON dump but a set of tables the planner treats like
// any base table, so CO views can be built over them.
//
// A VirtualTableProvider is registered with the Catalog under its name;
// name resolution (semantics::Builder) falls back to providers when no
// base table matches, and the planner compiles such boxes into a
// VirtualScanOp that materializes Generate() at Open time. Providers are
// never persisted: SaveTo/LoadFrom ignore them, and each Database
// re-registers its own at construction.
//
// Built-in system views (all names upper-case; `$` is an identifier
// character):
//   SYS$METRICS(NAME, KIND, VALUE)            counter/gauge snapshot
//   SYS$HISTOGRAMS(NAME, LE, BUCKET_COUNT, CUM_COUNT)
//       one row per bucket; LE is NULL for the +Inf overflow bucket;
//       includes per-statement latency histograms named `stmt.<digest>.us`
//   SYS$STATEMENTS(DIGEST, KIND, TEXT, HIST, CALLS, ERRORS, ROWS_OUT,
//                  TOTAL_US, MIN_US, MAX_US, AVG_US, P50_US, P99_US,
//                  SCAN_SELF_US, JOIN_SELF_US, FILTER_SELF_US, OTHER_SELF_US)
//       one row per distinct statement shape; HIST names this statement's
//       latency histogram in SYS$HISTOGRAMS (the natural RELATE join key);
//       the *_SELF_US columns are cumulative per-operator-class self time
//   SYS$CACHE(NAME, VALUE)                    cache.* / writeback.* metrics
//   SYS$TABLES(NAME, KIND, ROW_COUNT, COLUMN_COUNT)
//       catalog contents: base tables, views, and virtual tables
//   SYS$METRICS_HISTORY(SAMPLE_TS, NAME, KIND, VALUE, DELTA, RATE_PER_S)
//       the metrics sampler's time-series ring (api-registered)
//   SYS$QUERY_PROFILES(DIGEST, CAPTURES, WALL_US, QUEUE_WAIT_US, PEAK_BYTES,
//                  ROWS_OUT, OP, WORKER, OP_LOOPS, OP_ROWS, OP_BATCHES,
//                  OP_SELF_US, OP_INCL_US)
//       the always-on profiles: per-operator-class rows (WORKER NULL)
//       plus one 'morsel_worker' row per worker of the last capture
//   SYS$REWRITES(DIGEST, SEQ, PASS, RULE, FIRED, REJECTED, US,
//                  BOXES_BEFORE, BOXES_AFTER)
//       the per-statement rewrite-rule trace: one row per rule application
//       in firing order (SEQ); PASS 0 is the XNF semantic rewrite phase
//   SYS$PLAN_FEEDBACK(DIGEST, RANK, OUTPUT, OP, EST_ROWS, ACTUAL_ROWS,
//                  LOOPS, Q_ERROR)
//       cardinality feedback: each statement's worst estimate-vs-actual
//       offenders, ranked by q-error (RANK 1 = worst)
//   SYS$PLAN_HISTORY(DIGEST, PLAN_HASH, PLAN_SHAPE, FIRST_SEEN_US,
//                  LAST_SEEN_US, EXECUTIONS, MEAN_EXECUTE_US, CURRENT)
//       plan-change detection: every physical plan shape a statement has
//       executed with; CURRENT = 1 marks the most recent plan
//   SYS$EVENTS(SEQ, TS_US, CATEGORY, SEVERITY, MESSAGE, DETAIL, REPEATED)
//       the flight recorder's event ring, oldest-first (api-registered)
//   SYS$HEALTH(RULE, SERIES, FIELD, CMP, BOUND, STATE, LAST_VALUE,
//                  SINCE_US, BREACHES, TRANSITIONS, DESCRIPTION)
//       one row per health rule with its current OK/FIRING state
//   SYS$ALERTS(SEQ, TS_US, RULE, SERIES, FROM_STATE, TO_STATE, VALUE, BOUND)
//       the health engine's alert-transition ring, oldest-first
//   SYS$MATVIEWS(NAME, DIGEST, STATE, PINNED, ROWS, BYTES, HITS,
//                  DELTA_APPLIES, DELTA_ROWS, FULL_REFRESHES, FALLBACKS,
//                  CREATED_US, REFRESHED_US)
//       the materialized-view store (matview/matview.h): one row per
//       stored CO-view answer set with its freshness state and
//       maintenance counters (api-registered)
//
// SYS$STATEMENTS, the `stmt.<digest>.us` rows of SYS$HISTOGRAMS,
// SYS$QUERY_PROFILES, SYS$REWRITES, SYS$PLAN_FEEDBACK and SYS$PLAN_HISTORY
// are projections over one obs::DigestStore (obs/digest_store.h): each scan
// reads one Snapshot() of its per-digest records.

#ifndef XNFDB_STORAGE_SYSVIEW_H_
#define XNFDB_STORAGE_SYSVIEW_H_

#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace xnfdb {

class Catalog;

namespace obs {
class DigestStore;
class FlightRecorder;
class HealthEngine;
class MetricsRegistry;
class MetricsSampler;
}  // namespace obs

// A generator-backed table: fixed schema, rows produced on demand.
class VirtualTableProvider {
 public:
  virtual ~VirtualTableProvider() = default;

  // Upper-case identifier the provider is addressed by.
  virtual const std::string& name() const = 0;
  virtual const Schema& schema() const = 0;

  // Produces the current rows. Called once per scan Open; the result is a
  // point-in-time snapshot (virtual tables have no transactional state).
  virtual Result<std::vector<Tuple>> Generate() const = 0;

  // Planner cardinality hint (virtual tables carry no column statistics).
  virtual double EstimatedRows() const { return 64.0; }
};

// Registers the built-in sys$ views against `catalog`. `metrics` and
// `digests` must outlive the catalog; `catalog` itself backs SYS$TABLES.
Status RegisterSystemViews(Catalog* catalog, obs::MetricsRegistry* metrics,
                           const obs::DigestStore* digests);

// SYS$METRICS_HISTORY over one sampler's ring. Registered by the Database
// (the sampler is api-owned state, like the governor's SYS$QUERIES).
std::unique_ptr<VirtualTableProvider> MakeMetricsHistoryProvider(
    const obs::MetricsSampler* sampler);

// SYS$EVENTS over one flight recorder's ring, oldest-first. Registered by
// the Database (the recorder is process-wide, but its SQL surface is
// per-database like SYS$QUERIES).
std::unique_ptr<VirtualTableProvider> MakeEventsProvider(
    const obs::FlightRecorder* recorder);

// SYS$HEALTH: one row per health rule with its live state.
std::unique_ptr<VirtualTableProvider> MakeHealthProvider(
    const obs::HealthEngine* health);

// SYS$ALERTS: the health engine's recorded OK<->FIRING transitions.
std::unique_ptr<VirtualTableProvider> MakeAlertsProvider(
    const obs::HealthEngine* health);

}  // namespace xnfdb

#endif  // XNFDB_STORAGE_SYSVIEW_H_
