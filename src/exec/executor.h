// Top-level query execution: runs a (rewritten, NF) QGM graph and produces
// the answer set.
//
// For plain SQL the result is a single table. For XNF queries it is the
// heterogeneous collection of tuples of Sect. 5: each item is either a
// component row carrying a system-generated tuple identifier and a component
// number, or a connection tuple carrying the identifiers of the rows it
// connects ("A connection tuple contains the identifiers of the connected
// rows").

#ifndef XNFDB_EXEC_EXECUTOR_H_
#define XNFDB_EXEC_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "exec/operators.h"
#include "exec/query_context.h"
#include "obs/metrics.h"
#include "obs/plan_feedback.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "optimizer/planner.h"
#include "qgm/qgm.h"
#include "storage/catalog.h"

namespace xnfdb {

// Tuple identifier within one component stream.
using TupleId = int64_t;

// Description of one output stream of the answer set.
struct OutputDesc {
  std::string name;
  bool is_connection = false;
  Schema schema;                          // component row schema (projected)
  std::vector<std::string> partner_names;  // connection streams only
};

// One element of the heterogeneous answer stream.
struct StreamItem {
  enum class Kind { kRow, kConnection };

  Kind kind = Kind::kRow;
  int output = -1;            // index into QueryResult::outputs
  TupleId tid = -1;           // kRow
  Tuple values;               // kRow
  std::vector<TupleId> tids;  // kConnection: partner tids, parent first
};

struct QueryResult {
  std::vector<OutputDesc> outputs;
  std::vector<StreamItem> stream;
  // A consistent post-execution snapshot: the executor accumulates into a
  // private ExecStats while morsel workers run and copies it here only
  // after every worker has joined, so morsel runs report exact counters.
  ExecStats stats;
  // EXPLAIN ANALYZE (ExecOptions::analyze): one rendered plan tree per
  // output, annotated with actual rows/loops/wall time per operator.
  std::vector<std::string> plan_texts;
  // Always-on execution profile (ExecOptions::collect_profile): per-operator
  // -class totals aggregated over every output's finished plan tree, plus
  // the morsel-worker breakdown. The executor fills ops/workers/rows_out;
  // the Database adds wall time, queue wait and the memory high-water before
  // capturing it into its DigestStore.
  obs::QueryProfile profile;
  // Plan-quality feedback (ExecOptions::collect_feedback): the canonical
  // plan-shape text over every output ("NAME=op(op(scan:T));..."), its hash,
  // and the per-operator estimated-vs-actual comparison. The Database folds
  // these into its DigestStore (SYS$PLAN_FEEDBACK / SYS$PLAN_HISTORY).
  uint64_t plan_hash = 0;
  std::string plan_shape;
  std::vector<obs::OpFeedback> feedback;
  // Pre-dedup derivation counts (ExecOptions::collect_dedup_counts), keyed
  // by output index: for an XNF component output, tid -> how many produced
  // rows interned to that tid; for a connection output, partner-tid tuple ->
  // how many produced rows resolved to it. The matview store's counting
  // algorithm (src/matview/) consumes these for incremental delete
  // maintenance; plain multiset outputs need none (every row counts once).
  std::map<int, std::map<TupleId, int64_t>> component_counts;
  std::map<int, std::map<std::vector<TupleId>, int64_t>> connection_counts;

  // Index of the output named `name`, or -1.
  int FindOutput(const std::string& name) const;
  // All rows of output `idx`, in stream order.
  std::vector<Tuple> RowsOf(int idx) const;
  // Convenience for single-table SQL results.
  std::vector<Tuple> rows() const { return RowsOf(0); }
  size_t RowCount(int idx) const;
  size_t ConnectionCount(int idx) const;
};

struct ExecOptions {
  PlanOptions plan;
  // Rows per batch, for every pull in the query: output plan roots, spool
  // and group materialization, join builds, sort and aggregate inputs. 0 =
  // XNFDB_BATCH_SIZE env var or 1024; 1 runs one-row batches.
  int batch_size = 0;
  // Morsel-driven intra-plan parallelism (paper Sect. 5.1/6: applying
  // parallelism to set-oriented CO extraction); morsel workers are the
  // executor's only threads, and outputs run one after another. When > 1
  // and an output's plan is a streaming scan pipeline (filters/projections/
  // join probe sides over a base-table scan), up to this many workers claim
  // row-range morsels of the driving scan. Output order stays identical to
  // sequential execution (per-morsel buckets are reassembled in morsel
  // order). 0 = XNFDB_MORSEL_WORKERS env var or 1. Disabled in analyze
  // mode.
  int morsel_workers = 0;
  // Rows per claimed morsel. 0 = XNFDB_MORSEL_ROWS env var or 2048.
  int64_t morsel_rows = 0;
  // EXPLAIN ANALYZE: instrument operators with wall-time measurement and
  // fill QueryResult::plan_texts with annotated plan trees.
  bool analyze = false;
  // Always-on profiling: aggregate every finished plan tree's actuals into
  // QueryResult::profile, with batch-granularity wall time (measured around
  // Open/NextBatch/Close, never per row). Cheap enough to leave on;
  // XNFDB_QUERY_PROFILES=0 turns it off via Database.
  bool collect_profile = true;
  // Cardinality feedback + plan-shape hashing: fill QueryResult::plan_hash,
  // plan_shape and feedback at query end (one tree walk per finished plan,
  // no per-row work). XNFDB_PLAN_FEEDBACK=0 turns it off via Database.
  bool collect_feedback = true;
  // Fill QueryResult::component_counts / connection_counts with pre-dedup
  // derivation counts. Off by default (one map bump per produced row); the
  // Database enables it only on executions whose result it is about to
  // materialize, so the counts can seed incremental delta maintenance.
  bool collect_dedup_counts = false;
  // Per-query resource limits, consumed by Database (api/governor.h) when
  // it builds the query's context: -1 = use the governor's env-derived
  // default, 0 = explicitly unlimited, > 0 = this limit. Ignored by
  // ExecuteGraph itself (it only honours `context`).
  int64_t timeout_ms = -1;
  int64_t max_result_rows = -1;
  int64_t mem_budget_bytes = -1;
  // Observability sinks; both optional. When set, the executor records
  // plan/execute/deliver spans and phase-latency histograms, and publishes
  // the run's ExecStats into `metrics` under `exec.*`. Database::Query
  // fills these with its own tracer/registry when left null.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Resource-governance context (exec/query_context.h). When set, every
  // operator, morsel worker, spool build, and output pass checks it
  // cooperatively and charges produced rows / materialized bytes against
  // its limits. Shared so Database::Cancel can flip the flag while the
  // executor owns it. Null = ungoverned (no per-row overhead beyond one
  // null check).
  std::shared_ptr<QueryContext> context;
};

// Adds one finished operator tree's actuals into `agg` (the always-on
// profile), keyed by operator class (Kind). Inclusive time is the node's
// own measurement; self time subtracts the children's inclusive time, and
// the spool build a reader ran, clamped at zero.
void AccumulateTree(Operator* op, std::map<std::string, obs::OpProfile>* agg);

// Readies a planned tree to run under `options`: analyze or profile timing
// and the governance context. A spool reader hands them on to the build
// tree it runs.
void PrepareTree(Operator* op, const ExecOptions& options);

// Executes a graph whose XNF box (if any) has already been rewritten away.
Result<QueryResult> ExecuteGraph(const Catalog& catalog,
                                 const qgm::QueryGraph& graph,
                                 const ExecOptions& options = {});

}  // namespace xnfdb

#endif  // XNFDB_EXEC_EXECUTOR_H_
