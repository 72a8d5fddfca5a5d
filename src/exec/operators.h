// Physical operators of the Query Evaluation System (paper Sect. 3.1).
//
// Execution follows the Starburst "table queue" style: demand-driven,
// pipelined iterators (Open / NextBatch / Close). Each QEP operator consumes
// one or more input streams and produces an output stream of tuple batches
// (exec/batch.h); NextBatch is the only way rows leave an operator. Shared
// common subexpressions are realized by Spool buffers: a producer is run
// once and any number of readers iterate the materialized result.
//
// The public Open/NextBatch/Close entry points are non-virtual wrappers
// that check the query's governance context once per call and maintain
// per-operator actuals (loop, row and batch counts always; inclusive wall
// time in analyze and profile mode) for EXPLAIN ANALYZE and the always-on
// profile; subclasses implement the protected *Impl hooks.

#ifndef XNFDB_EXEC_OPERATORS_H_
#define XNFDB_EXEC_OPERATORS_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/batch.h"
#include "exec/expr_eval.h"
#include "exec/query_context.h"
#include "qgm/qgm.h"
#include "storage/table.h"

namespace xnfdb {

class VirtualTableProvider;

namespace obs {
class MetricsRegistry;
}  // namespace obs

// A copyable atomic counter, so ExecStats can be both shared between
// morsel workers (paper Sect. 5.1/6: parallel CO extraction) and returned
// by value in QueryResult.
class StatCounter {
 public:
  StatCounter(int64_t v = 0) : value_(v) {}  // NOLINT
  StatCounter(const StatCounter& other) : value_(other.load()) {}
  StatCounter& operator=(const StatCounter& other) {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator=(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator++() {
    value_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator+=(int64_t v) {
    value_.fetch_add(v, std::memory_order_relaxed);
    return *this;
  }
  int64_t load() const { return value_.load(std::memory_order_relaxed); }
  operator int64_t() const { return load(); }  // NOLINT

 private:
  std::atomic<int64_t> value_;
};

// Execution counters, reported by benches and asserted on by tests.
struct ExecStats {
  StatCounter rows_scanned;       // base-table rows read
  StatCounter index_lookups;      // index probe operations
  StatCounter join_probes;        // hash/NL join probe rows
  StatCounter exists_probes;      // existential checks performed
  StatCounter spool_builds;       // common subexpressions materialized
  StatCounter spool_read_rows;    // rows served from spools
  StatCounter rows_output;        // rows leaving Top
  StatCounter operators_created;
  StatCounter batches_emitted;    // batches delivered into output streams
  StatCounter morsels_claimed;    // scan morsels claimed by workers
  StatCounter fixpoint_rounds;    // semi-naive rounds of recursive COs

  std::string ToString() const;
  // Adds every counter into `registry` under `exec.<counter>` (the unified
  // observability snapshot exposed by Database::MetricsJson).
  void PublishTo(obs::MetricsRegistry* registry) const;
};

class ScanOp;

// Shared morsel dispenser for one morsel-parallel scan (HyPer-style):
// worker threads claim fixed-size row ranges [m * rows_per_morsel,
// (m+1) * rows_per_morsel) from the atomic cursor. `bound` is the scan's
// rid bound, captured when the dispenser is created.
struct ScanMorsels {
  Rid bound = 0;
  Rid rows_per_morsel = 2048;
  std::atomic<uint64_t> next{0};

  uint64_t MorselCount() const {
    if (bound == 0 || rows_per_morsel == 0) return 0;
    return (bound + rows_per_morsel - 1) / rows_per_morsel;
  }
};

class Operator {
 public:
  virtual ~Operator() = default;

  // Non-virtual lifecycle entry points: delegate to the *Impl hooks while
  // maintaining this operator's actuals.
  Status Open();
  // Produces the next batch into `*out` (cleared first), appending up to
  // out->capacity() rows; returns false at end of stream. A true return
  // with ActiveCount() == 0 is a fully filtered batch — keep pulling.
  Result<bool> NextBatch(TupleBatch* out);
  void Close();

  // Appends a one-line-per-operator rendering of this plan subtree to
  // `out`, indented by `depth` (EXPLAIN support). After an analyze-mode
  // execution each line carries "(actual rows=.. loops=.. time=..ms)".
  void Explain(int depth, std::string* out) const { ExplainImpl(depth, out); }

  // Per-operator execution totals. `ns` is inclusive of children (time is
  // measured around this operator's Open/NextBatch/Close calls, which pull
  // from children), and is only collected in analyze or profile mode;
  // rows/loops/batches are always counted.
  struct Actuals {
    int64_t loops = 0;    // Open calls
    int64_t rows = 0;     // rows produced, across all loops
    int64_t batches = 0;  // NextBatch calls that produced a batch
    int64_t ns = 0;       // inclusive wall time (analyze mode only)
  };
  const Actuals& actuals() const { return actuals_; }

  // Enables wall-time measurement for this operator and its subtree
  // (EXPLAIN ANALYZE).
  void EnableAnalyze();
  bool analyze_enabled() const { return analyze_; }

  // Always-on profiling (SYS$QUERY_PROFILES): the same batch-granularity
  // wall time as analyze mode (two clock reads per ~1k-row batch).
  void EnableProfile();
  bool profile_enabled() const { return profile_; }

  // Stable operator-class name ("scan", "hash_join", ...) used to aggregate
  // profiles and to roll self-time up into SYS$STATEMENTS broad classes.
  virtual const char* Kind() const { return "op"; }

  // The planner's estimated output cardinality for this operator (rows per
  // loop), stamped at plan build time; < 0 when no estimate was provided.
  // EXPLAIN prints it and the executor joins it against actuals for the
  // cardinality-feedback store (SYS$PLAN_FEEDBACK).
  void SetEstimatedRows(double est) { est_rows_ = est; }
  double estimated_rows() const { return est_rows_; }

  // Appends this operator's plan-shape token: the operator class plus its
  // access path (table/index), but never literals — so the token is stable
  // across parameter values and the shape hash detects genuine plan flips.
  virtual void ShapeToken(std::string* out) const { *out += Kind(); }

  // Attaches the query's resource-governance context to this operator and
  // its subtree. The non-virtual wrappers then check it cooperatively: a
  // full Check() (cancel + deadline) at every Open/NextBatch. `ctx` must
  // outlive execution; null detaches.
  void AttachContext(QueryContext* ctx);

  // Direct children of this operator in the plan tree.
  virtual std::vector<Operator*> Children() { return {}; }

  // Morsel-driven scan support: returns the base-table scan that drives
  // this pipeline by descending through order-preserving streaming
  // operators (filters, projections, existential filters, join probe
  // sides), or null when the pipeline has an order/dedup/aggregation
  // -sensitive breaker (sort, distinct, aggregate, limit, union) or a
  // non-scan source. Only that driver scan may be morselized — splitting a
  // join build side or a union branch across workers would compute wrong
  // results.
  virtual ScanOp* MorselDriver() { return nullptr; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextBatchImpl(TupleBatch* out) = 0;
  virtual void CloseImpl() = 0;
  virtual void ExplainImpl(int depth, std::string* out) const = 0;

  // Appends this operator's own EXPLAIN line, annotated with actuals when
  // analyze mode is on.
  void SelfLine(int depth, const std::string& text, std::string* out) const;

  // Governance context, for *Impl hooks that materialize rows internally
  // (join build sides, sort buffers) and must charge ReserveBytes / observe
  // cancellation inside their own loops. Null when the query is ungoverned.
  QueryContext* context() const { return ctx_; }

 private:
  bool analyze_ = false;
  bool profile_ = false;
  Actuals actuals_;
  double est_rows_ = -1.0;  // planner estimate; < 0 = none
  QueryContext* ctx_ = nullptr;
};

// Explain helper: indented line.
void ExplainLine(int depth, const std::string& text, std::string* out);

// The canonical plan-shape text of the tree under `root`: pre-order,
// parenthesized, built from ShapeToken — e.g. "project(filter(scan:EMP))".
// Contains access paths but no literals, so it is stable across parameter
// values, batch sizes and worker counts. (Non-const: Children() is.)
std::string PlanShapeText(Operator* root);

// FNV-1a hash of `shape` — the plan hash SYS$PLAN_HISTORY keys on.
uint64_t PlanShapeHash(const std::string& shape);

using OperatorPtr = std::unique_ptr<Operator>;

// Opens `op`, pulls it to end of stream through `*batch` and closes it,
// handing every active row to `fn` (Tuple& -> Status), which may move from
// it. Returns the number of batches pulled. This is the one loop that
// consumes a whole operator: executor outputs, spool and group builds,
// join builds, sort and aggregate inputs, fixpoint rounds, matview serves
// and deltas.
template <typename Fn>
Result<int64_t> DrainRows(Operator* op, TupleBatch* batch, const Fn& fn) {
  XNFDB_RETURN_IF_ERROR(op->Open());
  int64_t batches = 0;
  while (true) {
    XNFDB_ASSIGN_OR_RETURN(bool more, op->NextBatch(batch));
    if (!more) break;
    ++batches;
    for (size_t i = 0; i < batch->ActiveCount(); ++i) {
      XNFDB_RETURN_IF_ERROR(fn(batch->Active(i)));
    }
  }
  op->Close();
  return batches;
}

// Drains `op` completely into a vector, `batch_size` rows per pull. When
// `ctx` is set, every drained row's bytes are charged against its memory
// budget (drains materialize: spools, existential group builds, sort and
// nested-loop inner sides).
Result<std::vector<Tuple>> DrainOperator(Operator* op,
                                         int batch_size = kDefaultBatchSize,
                                         QueryContext* ctx = nullptr);

// --- sources ---------------------------------------------------------------

// Full scan of a base table. Optionally driven by a shared ScanMorsels
// dispenser, in which case this instance only reads the row ranges it
// claims (several plan clones over the same dispenser cover the table
// exactly once, in parallel).
class ScanOp : public Operator {
 public:
  ScanOp(const Table* table, ExecStats* stats)
      : table_(table), stats_(stats) {}

  const Table* table() const { return table_; }

  // Attaches a shared morsel dispenser; call before Open.
  void ShareMorsels(std::shared_ptr<ScanMorsels> morsels) {
    morsels_ = std::move(morsels);
  }

  // Morsel id the most recently returned row/batch came from (-1 before
  // the first claim). Under morsel execution a batch never spans morsels.
  int64_t current_morsel() const { return current_morsel_; }

  // Morsels this instance claimed since Open (per-worker share of the scan;
  // the morsel-worker profile rows report it).
  int64_t claimed_morsels() const { return claimed_; }

  ScanOp* MorselDriver() override { return this; }
  const char* Kind() const override { return "scan"; }
  void ShapeToken(std::string* out) const override;

 protected:
  Status OpenImpl() override {
    rid_ = 0;
    morsel_end_ = 0;
    current_morsel_ = -1;
    claimed_ = 0;
    return Status::Ok();
  }
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {}

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  // Claims the next morsel; false when the table is exhausted.
  bool ClaimMorsel();

  const Table* table_;
  ExecStats* stats_;
  Rid rid_ = 0;
  std::shared_ptr<ScanMorsels> morsels_;
  Rid morsel_end_ = 0;  // exclusive end of the claimed range (morsel mode)
  int64_t current_morsel_ = -1;
  int64_t claimed_ = 0;
};

// Scan over a virtual system table (storage/sysview.h): the provider's
// Generate() is materialized at Open, so one scan sees one consistent
// point-in-time snapshot of the engine state it exposes.
class VirtualScanOp : public Operator {
 public:
  VirtualScanOp(const VirtualTableProvider* provider, ExecStats* stats)
      : provider_(provider), stats_(stats) {}

  const char* Kind() const override { return "virtual_scan"; }
  void ShapeToken(std::string* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { rows_.clear(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  const VirtualTableProvider* provider_;
  ExecStats* stats_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

// Hash-index equality lookup `column = key` on a base table.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(const Table* table, int column, Value key, ExecStats* stats)
      : table_(table), column_(column), key_(std::move(key)), stats_(stats) {}

  const char* Kind() const override { return "index_scan"; }
  void ShapeToken(std::string* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {}

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  const Table* table_;
  int column_;
  Value key_;
  ExecStats* stats_;
  const std::vector<Rid>* rids_ = nullptr;
  size_t pos_ = 0;
};

// Ordered-index range scan: rows with lo <=(=) column <=(=) hi.
class RangeScanOp : public Operator {
 public:
  RangeScanOp(const Table* table, int column, std::optional<Value> lo,
              bool lo_inclusive, std::optional<Value> hi, bool hi_inclusive,
              ExecStats* stats)
      : table_(table),
        column_(column),
        lo_(std::move(lo)),
        lo_inclusive_(lo_inclusive),
        hi_(std::move(hi)),
        hi_inclusive_(hi_inclusive),
        stats_(stats) {}

  const char* Kind() const override { return "range_scan"; }
  void ShapeToken(std::string* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {}

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  const Table* table_;
  int column_;
  std::optional<Value> lo_;
  bool lo_inclusive_;
  std::optional<Value> hi_;
  bool hi_inclusive_;
  ExecStats* stats_;
  std::vector<Rid> rids_;
  size_t pos_ = 0;
};

// Reader over a materialized (spooled) buffer. `build_plan`, when given, is
// the EXPLAIN rendering (at depth 0) of the plan that filled the buffer;
// EXPLAIN prints it beneath the reader's own line.
class MaterializedOp : public Operator {
 public:
  MaterializedOp(std::shared_ptr<const std::vector<Tuple>> rows,
                 ExecStats* stats, std::string build_plan = "")
      : rows_(std::move(rows)),
        stats_(stats),
        build_plan_(std::move(build_plan)) {}

  const char* Kind() const override { return "spool_read"; }

 protected:
  Status OpenImpl() override {
    pos_ = 0;
    return Status::Ok();
  }
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {}

  void ExplainImpl(int depth, std::string* out) const override;

  const std::vector<Tuple>& rows() const { return *rows_; }

 private:
  std::shared_ptr<const std::vector<Tuple>> rows_;
  ExecStats* stats_;
  std::string build_plan_;
  size_t pos_ = 0;
};

// Reader over the frontier of a recursive-CO delta plan (xnf/fixpoint.cc):
// the rows of `component` reached in the previous round. The owner refills
// the buffer between rounds and re-opens the plan; Open rewinds.
class FrontierOp : public MaterializedOp {
 public:
  FrontierOp(std::shared_ptr<const std::vector<Tuple>> rows,
             std::string component)
      : MaterializedOp(std::move(rows), nullptr),
        component_(std::move(component)) {}

  const char* Kind() const override { return "frontier"; }

 protected:
  void ExplainImpl(int depth, std::string* out) const override {
    SelfLine(depth, "Frontier(" + component_ + ")", out);
  }

 private:
  std::string component_;
};

// Reader over a server-side materialized view (src/matview/): serves the
// stored rows of one output stream without re-running the join tree. A
// spool reader with matview provenance: Kind/ShapeToken carry the view
// name, so SYS$PLAN_HISTORY witnesses the plan flip and EXPLAIN shows
// `matview=<name>`.
class MatViewScanOp : public MaterializedOp {
 public:
  MatViewScanOp(std::string view_name,
                std::shared_ptr<const std::vector<Tuple>> rows,
                ExecStats* stats)
      : MaterializedOp(std::move(rows), stats),
        view_name_(std::move(view_name)) {}

  const char* Kind() const override { return "matview_scan"; }
  void ShapeToken(std::string* out) const override {
    *out += "matview_scan:" + view_name_;
  }

 protected:
  void ExplainImpl(int depth, std::string* out) const override;

 private:
  std::string view_name_;
};

// --- row transforms ----------------------------------------------------------

class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, std::vector<const qgm::Expr*> preds,
           Layout layout)
      : child_(std::move(child)),
        preds_(std::move(preds)),
        layout_(std::move(layout)) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  ScanOp* MorselDriver() override { return child_->MorselDriver(); }
  const char* Kind() const override { return "filter"; }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  // Pulls the child's batch into `out` and deselects failing rows in the
  // selection vector — no row copies.
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { child_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr child_;
  std::vector<const qgm::Expr*> preds_;
  Layout layout_;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<const qgm::Expr*> exprs,
            Layout layout)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        layout_(std::move(layout)) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  ScanOp* MorselDriver() override { return child_->MorselDriver(); }
  const char* Kind() const override { return "project"; }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { child_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr child_;
  std::vector<const qgm::Expr*> exprs_;
  Layout layout_;
  TupleBatch in_;  // child-side batch
};

class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child) : child_(std::move(child)) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  const char* Kind() const override { return "distinct"; }

 protected:
  Status OpenImpl() override {
    seen_.clear();
    return child_->Open();
  }
  // Deselects the rows of the child's batch seen before.
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { child_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr child_;
  std::unordered_map<Tuple, bool, TupleHash, TupleEq> seen_;
};

// Drains its child at Open (`batch_size` rows per pull) and sorts stably.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<std::pair<int, bool>> keys,
         int batch_size = kDefaultBatchSize)
      : child_(std::move(child)),
        keys_(std::move(keys)),
        batch_size_(batch_size) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  const char* Kind() const override { return "sort"; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {}  // the drain at Open closed the child

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr child_;
  std::vector<std::pair<int, bool>> keys_;  // (column, descending)
  int batch_size_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

// Emits at most `limit` rows (-1 = unlimited) after skipping `offset`. It
// asks its child for no larger a batch than it still needs, so a scan,
// filter or projection below reads exactly offset + limit rows.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit, int64_t offset)
      : child_(std::move(child)), limit_(limit), offset_(offset) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  const char* Kind() const override { return "limit"; }

 protected:
  Status OpenImpl() override {
    emitted_ = 0;
    skipped_ = 0;
    return child_->Open();
  }
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { child_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr child_;
  int64_t limit_;
  int64_t offset_;
  int64_t emitted_ = 0;
  int64_t skipped_ = 0;
};

// --- joins -------------------------------------------------------------------

// Hash equi-join; residual predicates evaluated over the combined row
// (left columns then right columns).
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<const qgm::Expr*> left_keys,
             std::vector<const qgm::Expr*> right_keys,
             std::vector<const qgm::Expr*> residual, Layout left_layout,
             Layout right_layout, Layout combined_layout, ExecStats* stats,
             int batch_size = kDefaultBatchSize)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(std::move(residual)),
        left_layout_(std::move(left_layout)),
        right_layout_(std::move(right_layout)),
        combined_layout_(std::move(combined_layout)),
        stats_(stats),
        batch_size_(batch_size) {}

  std::vector<Operator*> Children() override {
    return {left_.get(), right_.get()};
  }
  // Probe (left) side only: the build side must be fully built by every
  // worker, so it is never morselized.
  ScanOp* MorselDriver() override { return left_->MorselDriver(); }
  const char* Kind() const override { return "hash_join"; }

  // The build side does not depend on what the probe side reads: every
  // re-open after the first keeps the hash table instead of re-reading the
  // right input (delta plans re-opened on each fixpoint round).
  void KeepBuild() { keep_build_ = true; }

 protected:
  // Drains the right input into the hash table (`batch_size` rows per
  // pull), then opens the probe side.
  Status OpenImpl() override;
  // Probes one whole left batch per call, emitting every match (output may
  // exceed the nominal capacity — no probe state is carried across calls).
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { left_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  // Evaluates the probe-side key exprs against `row`; true result means a
  // usable (NULL-free) key in `*key`.
  Result<bool> ProbeKey(const Tuple& row, Tuple* key) const;
  // Emits all surviving build matches of left row `left` into `out`.
  Status ProbeInto(const Tuple& left, TupleBatch* out);

  OperatorPtr left_;
  OperatorPtr right_;  // build side
  std::vector<const qgm::Expr*> left_keys_;
  std::vector<const qgm::Expr*> right_keys_;
  std::vector<const qgm::Expr*> residual_;
  Layout left_layout_;
  Layout right_layout_;
  Layout combined_layout_;
  ExecStats* stats_;
  int batch_size_;
  bool keep_build_ = false;
  bool built_ = false;  // build_ holds the right input (keep_build_ only)

  std::unordered_map<Tuple, std::vector<Tuple>, TupleHash, TupleEq> build_;
  // All-ColRef probe keys resolve to flat column offsets once at Open.
  std::vector<size_t> left_key_cols_;
  bool left_keys_flat_ = false;
  TupleBatch left_batch_;  // probe-side batch
};

// Index nested-loop join: for each left row, evaluates `outer_key` and
// fetches the matching rows of `table` through its hash index on `column`.
// `inner_cols` lists the table column behind each of the inner quantifier's
// columns (the head of a pass-through box, or every column in order).
// `residual` (the inner's pushed predicates and the remaining join
// predicates) runs over the combined row. NULL keys never match; per left
// row, matches come out in ascending RID order — the order a hash join over
// a scan emits them.
class IndexJoinOp : public Operator {
 public:
  IndexJoinOp(OperatorPtr left, const Table* table, int column,
              std::vector<int> inner_cols, const qgm::Expr* outer_key,
              std::vector<const qgm::Expr*> residual, Layout left_layout,
              Layout combined_layout, ExecStats* stats)
      : left_(std::move(left)),
        table_(table),
        column_(column),
        inner_cols_(std::move(inner_cols)),
        outer_key_(outer_key),
        residual_(std::move(residual)),
        left_layout_(std::move(left_layout)),
        combined_layout_(std::move(combined_layout)),
        stats_(stats) {}

  std::vector<Operator*> Children() override { return {left_.get()}; }
  ScanOp* MorselDriver() override { return left_->MorselDriver(); }
  const char* Kind() const override { return "index_join"; }
  void ShapeToken(std::string* out) const override;

 protected:
  Status OpenImpl() override;
  // Probes one whole left batch per call, emitting every match (output may
  // exceed the nominal capacity, as in HashJoinOp).
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { left_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  // The index bucket matching `left`'s key; null when the key is NULL or
  // has no match.
  Result<const std::vector<Rid>*> Probe(const Tuple& left);
  // Appends `left` + the inner image of table row `rid` to `*combined` and
  // applies the residual; false when the row is dead or filtered out.
  Result<bool> Combine(const Tuple& left, Rid rid, Tuple* combined);

  OperatorPtr left_;
  const Table* table_;
  int column_;
  std::vector<int> inner_cols_;
  const qgm::Expr* outer_key_;
  std::vector<const qgm::Expr*> residual_;
  Layout left_layout_;
  Layout combined_layout_;
  ExecStats* stats_;

  const HashIndex* index_ = nullptr;
  TupleBatch left_batch_;  // probe-side batch
};

// Nested-loop join for non-equi predicates: the inner side is drained at
// Open (`batch_size` rows per pull); output batches stop at capacity, and
// the position within the current left batch carries across calls, since
// one left batch times the inner side can be far larger than a batch.
class NLJoinOp : public Operator {
 public:
  NLJoinOp(OperatorPtr left, OperatorPtr right,
           std::vector<const qgm::Expr*> preds, Layout combined_layout,
           ExecStats* stats, int batch_size = kDefaultBatchSize)
      : left_(std::move(left)),
        right_(std::move(right)),
        preds_(std::move(preds)),
        combined_layout_(std::move(combined_layout)),
        stats_(stats),
        batch_size_(batch_size) {}

  std::vector<Operator*> Children() override {
    return {left_.get(), right_.get()};
  }
  const char* Kind() const override { return "nl_join"; }

  // As HashJoinOp::KeepBuild: re-opens keep the materialized inner side.
  void KeepBuild() { keep_build_ = true; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { left_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<const qgm::Expr*> preds_;
  Layout combined_layout_;
  ExecStats* stats_;
  int batch_size_;
  bool keep_build_ = false;
  bool built_ = false;  // inner_ holds the right input (keep_build_ only)

  std::vector<Tuple> inner_;
  TupleBatch left_batch_;  // probe-side batch
  size_t left_pos_ = 0;   // active row of left_batch_ being joined
  size_t inner_pos_ = 0;  // next inner row to pair with it
  bool left_done_ = false;
};

// --- existential checks --------------------------------------------------------

// One alternative of a disjunctive existential predicate, pre-materialized.
struct GroupCheck {
  bool negated = false;  // NOT EXISTS / NOT IN semantics

  std::shared_ptr<const std::vector<Tuple>> rows;  // group-side joined rows
  Layout group_layout;    // offsets within a group row (unshifted)
  Layout combined_layout; // outer layout + group layout shifted

  // Extracted equi-correlation: outer keys (over the outer layout) matched
  // against inner keys (over the group layout). Empty => scan.
  std::vector<const qgm::Expr*> equi_outer;
  std::vector<const qgm::Expr*> equi_inner;
  // Remaining correlated predicates over the combined layout.
  std::vector<const qgm::Expr*> residual;

  // Hash over `rows` keyed by equi_inner, built lazily by the first probe
  // that reaches this group (morsel workers each own a full plan clone, so
  // a group is only ever probed — and built — by one thread).
  std::unordered_map<Tuple, std::vector<size_t>, TupleHash, TupleEq> index;
  bool index_built = false;
};

// Existential filtering. In disjunctive mode an outer row qualifies when at
// least one group admits a matching group row (OR — XNF reachability via
// any relationship); in conjunctive mode every group must match (ordinary
// top-level EXISTS conjuncts). With `naive` set, hash indexes are disabled
// and each check scans the materialized group rows — the "straightforward
// execution strategy used in many DBMSs" of Sect. 3.2, kept for
// benchmarking the rewrite win.
class ExistsFilterOp : public Operator {
 public:
  ExistsFilterOp(OperatorPtr child, std::vector<GroupCheck> groups,
                 Layout outer_layout, bool disjunctive, bool naive,
                 ExecStats* stats)
      : child_(std::move(child)),
        groups_(std::move(groups)),
        outer_layout_(std::move(outer_layout)),
        disjunctive_(disjunctive),
        naive_(naive),
        stats_(stats) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  ScanOp* MorselDriver() override { return child_->MorselDriver(); }
  const char* Kind() const override { return "exists"; }

 protected:
  // Opens only the child: group hash indexes are built lazily by the first
  // probe that needs them (EnsureIndex), so an empty probe side — or a
  // governor deadline/cancel that fires before the first row — never pays
  // the build cost.
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { child_->Close(); }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  // Builds `g`'s hash index if not yet built; checks the governor before
  // and during the build so budget terminations fire first.
  Status EnsureIndex(GroupCheck* g);
  Result<bool> GroupMatches(GroupCheck* g, const Tuple& outer);
  Result<bool> RowPasses(const Tuple& row);

  OperatorPtr child_;
  std::vector<GroupCheck> groups_;
  Layout outer_layout_;
  bool disjunctive_;
  bool naive_;
  ExecStats* stats_;
};

// --- set operations ------------------------------------------------------------

class UnionOp : public Operator {
 public:
  explicit UnionOp(std::vector<OperatorPtr> children)
      : children_(std::move(children)) {}

  std::vector<Operator*> Children() override {
    std::vector<Operator*> out;
    out.reserve(children_.size());
    for (const OperatorPtr& c : children_) out.push_back(c.get());
    return out;
  }
  const char* Kind() const override { return "union"; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {
    for (auto& c : children_) c->Close();
  }

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

// --- aggregation ----------------------------------------------------------------

// Output column of an aggregation: either a grouping expression or a bare
// aggregate over an argument expression.
struct AggSpec {
  bool is_agg = false;
  std::string func;            // COUNT/SUM/MIN/MAX/AVG
  const qgm::Expr* arg = nullptr;  // null => COUNT(*)
  const qgm::Expr* group_expr = nullptr;
};

// Hash aggregation: drains its child at Open (`batch_size` rows per pull),
// grouping rows by the values of the GROUP BY expressions under value
// equality (TupleHash/TupleEq: INT 2 and DOUBLE 2.0 are one group, NULLs
// group together). Groups come out in ascending key order.
class AggOp : public Operator {
 public:
  AggOp(OperatorPtr child, std::vector<const qgm::Expr*> group_by,
        std::vector<AggSpec> specs, Layout layout,
        int batch_size = kDefaultBatchSize)
      : child_(std::move(child)),
        group_by_(std::move(group_by)),
        specs_(std::move(specs)),
        layout_(std::move(layout)),
        batch_size_(batch_size) {}

  std::vector<Operator*> Children() override { return {child_.get()}; }
  const char* Kind() const override { return "agg"; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {}  // the drain at Open closed the child

  void ExplainImpl(int depth, std::string* out) const override;

 private:
  OperatorPtr child_;
  std::vector<const qgm::Expr*> group_by_;
  std::vector<AggSpec> specs_;
  Layout layout_;
  int batch_size_;
  std::vector<Tuple> results_;
  size_t pos_ = 0;
};

}  // namespace xnfdb

#endif  // XNFDB_EXEC_OPERATORS_H_
