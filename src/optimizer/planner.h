// Plan optimization and refinement (paper Sect. 3.1, 4.3): compiles QGM
// boxes into physical operator trees.
//
// The planner performs the classic relational choices the paper leans on:
//  * access-path selection — hash-index lookups for `col = literal`
//    predicates on base tables (never for `col = NULL`), ordered-index
//    range scans for comparisons, scans otherwise;
//  * join-method selection — an index nested-loop join when the next
//    quantifier ranges over a base table (directly or through pass-through
//    boxes), an equi-predicate binds one of its hash-indexed columns to the
//    joined prefix, and the estimated fetched rows (prefix rows × table rows
//    / distinct keys) stay under half the table; otherwise a hash join for
//    equi-predicates, nested loops for the rest;
//  * join ordering — greedy smallest-cardinality-first with connectivity
//    preference, driven by table statistics;
//  * common-subexpression sharing — boxes with more than one consumer are
//    spooled (materialized once, read many times), which realizes the
//    multi-query optimization the XNF rewrite sets up (Sect. 4.2, 5.1).
//    Base tables and pass-through boxes over them are never spooled: each
//    consumer reads the table itself, through its indexes where a join can.
//
// The planner only plans, from the graph, the catalog and table statistics:
// spools and existential groups are built by the operators that read them.

#ifndef XNFDB_OPTIMIZER_PLANNER_H_
#define XNFDB_OPTIMIZER_PLANNER_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/status.h"
#include "exec/operators.h"
#include "qgm/qgm.h"
#include "storage/catalog.h"

namespace xnfdb {

// A quantifier-level source substitution (PlanOptions::quant_overrides).
struct QuantOverride {
  // Read by the quantifier in place of the box it ranges over; the owner
  // may refill it between re-opens of the compiled plan.
  std::shared_ptr<const std::vector<Tuple>> rows;
  std::string component;  // EXPLAIN label: Frontier(<component>)
  double est_rows = 1.0;  // the planner's cardinality for the quantifier
};

struct PlanOptions {
  bool use_indexes = true;    // false => no index scans or index joins
  bool use_hash_join = true;  // false => nested-loop joins only
  bool naive_exists = false;  // per-outer-row subquery scans (Sect. 3.2 naive)
  bool spool_shared = true;   // false => recompute shared boxes per consumer
  // Rows per batch for the input drains of the operators it builds (spool
  // and existential group builds, join builds, sort and aggregate inputs).
  // The executor passes its resolved ExecOptions::batch_size through here.
  int batch_size = kDefaultBatchSize;
  // Base-table substitution (matview delta propagation): a box referencing
  // table `name` scans the mapped transient table instead of the catalog
  // one. Overridden tables never take index access paths — delta tables
  // carry no indexes. Not owned; must outlive the planner.
  const std::map<std::string, Table*>* table_overrides = nullptr;
  // Quantifier substitution (recursive-CO delta plans, xnf/fixpoint.cc),
  // keyed by quantifier id: the quantifier reads the mapped rows instead of
  // its box. A table override cannot express this — a self-relationship
  // ranges over one box from both sides. A substituted quantifier is
  // joined first, and every hash/nested-loop join above it builds its
  // (substitution-free) inner side once and keeps it across re-opens. Not
  // owned; must outlive the planner.
  const std::map<int, QuantOverride>* quant_overrides = nullptr;
};

// Compiles boxes of one QueryGraph into operators. The graph and catalog
// must outlive the planner and its operators.
//
// Thread safety: a planner is used by one thread, the query's; it takes no
// lock. The operator trees it returned may run concurrently (the executor
// plans every morsel clone on the query thread before any worker starts):
// a spool is built under its own mutex and immutable once built, and base
// tables are read-only during query execution.
class Planner {
 public:
  Planner(const Catalog* catalog, const qgm::QueryGraph* graph,
          PlanOptions options, ExecStats* stats)
      : catalog_(catalog), graph_(graph), options_(options), stats_(stats) {}

  // An iterator producing the head rows of `box_id`. Shared boxes read from
  // a spool that its first reader to open builds.
  Result<OperatorPtr> BoxIterator(int box_id);

  // Estimated output cardinality of `box_id`.
  double EstimateCard(int box_id);

  // The spools planned so far, by box. Their build trees run inside the
  // trees BoxIterator returned, built by a reader; callers profile them.
  const std::map<int, std::shared_ptr<Spool>>& spools() const {
    return spools_;
  }

 private:
  // BoxIterator; `top_level` when called for a caller, not for a consumer.
  Result<OperatorPtr> Iterator(int box_id, bool top_level);
  // True when `box_id` is an output of the graph's Top box.
  bool IsOutputBox(int box_id) const;

  Result<OperatorPtr> CompileBox(int box_id);
  Result<OperatorPtr> CompileSelect(const qgm::Box& box);
  Result<OperatorPtr> CompileUnion(const qgm::Box& box);

  // Builds the join tree over `quants` applying `preds` as early as
  // possible. Returns the root operator and fills `layout`.
  Result<OperatorPtr> BuildJoinTree(
      const std::vector<const qgm::Quantifier*>& quants,
      const std::vector<const qgm::Expr*>& preds, Layout* layout);

  // Index nested-loop join of `*outer` (the joined prefix: quantifiers
  // `joined`, estimated `outer_card` rows, laid out by `outer_layout`) with
  // `q`, when q ranges over a catalog base table — directly or through
  // pass-through boxes — and a `ready` equi-predicate binds a hash-indexed
  // column of it to the prefix with few enough estimated fetches. Consumes
  // `*outer` and returns the join; returns null (leaving `*outer` alone)
  // otherwise.
  Result<OperatorPtr> IndexJoin(const qgm::Quantifier& q,
                                const std::vector<const qgm::Expr*>& ready,
                                const std::vector<const qgm::Expr*>& pushed,
                                const std::set<int>& joined, double outer_card,
                                OperatorPtr* outer, const Layout& outer_layout,
                                const Layout& combined);

  // The base-table box under `box_id` when `box_id` is one or reaches one
  // through pass-through SELECT boxes (one F-quantifier; no predicates,
  // exists groups, grouping, distinct, ordering or limit; a head of plain
  // column references); null otherwise. `*cols` receives the base column
  // behind each head column of `box_id`.
  const qgm::Box* PassThroughBase(int box_id, std::vector<int>* cols) const;

  // Source for one quantifier with its single-quantifier predicates pushed
  // down (index lookup when possible).
  Result<OperatorPtr> QuantSource(const qgm::Quantifier& q,
                                  std::vector<const qgm::Expr*> pushed);

  double QuantCard(const qgm::Quantifier& q,
                   const std::vector<const qgm::Expr*>& pushed);
  double PredSelectivity(const qgm::Expr& pred);

  // The override table for `name`, or nullptr (options_.table_overrides).
  Table* OverrideFor(const std::string& name) const;
  // The substitution for quantifier `quant_id`, or nullptr
  // (options_.quant_overrides).
  const QuantOverride* QuantOverrideFor(int quant_id) const;
  // The table whose statistics cost the stream `quant_id` ranges over: the
  // delta override when one is installed, else the catalog base table;
  // nullptr when the quantifier does not range over a base table.
  const Table* StatsTableFor(int quant_id) const;

  const Catalog* catalog_;
  const qgm::QueryGraph* graph_;
  PlanOptions options_;
  ExecStats* stats_;

  std::map<int, std::shared_ptr<Spool>> spools_;
  std::map<int, double> card_cache_;
};

}  // namespace xnfdb

#endif  // XNFDB_OPTIMIZER_PLANNER_H_
