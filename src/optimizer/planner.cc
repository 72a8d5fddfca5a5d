#include "optimizer/planner.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <set>

namespace xnfdb {

namespace {

using qgm::Box;
using qgm::BoxKind;
using qgm::Expr;
using qgm::QuantKind;
using qgm::Quantifier;

// True if `e` references only quantifiers from `allowed`.
bool BoundBy(const Expr& e, const std::set<int>& allowed) {
  std::vector<int> used;
  e.CollectQuants(&used);
  for (int q : used) {
    if (allowed.count(q) == 0) return false;
  }
  return used.empty() || true;
}

bool ReferencesAny(const Expr& e, const std::set<int>& quants) {
  std::vector<int> used;
  e.CollectQuants(&used);
  for (int q : used) {
    if (quants.count(q) != 0) return true;
  }
  return false;
}

bool ContainsAgg(const Expr& e) {
  if (e.kind == Expr::Kind::kAgg) return true;
  if (e.lhs && ContainsAgg(*e.lhs)) return true;
  if (e.rhs && ContainsAgg(*e.rhs)) return true;
  return false;
}

// An index nested-loop join is chosen when its estimated fetched rows stay
// under this fraction of the table — the rows a hash join's build reads.
constexpr double kIndexJoinMaxFetchFraction = 0.5;

// A single-empty-tuple source for quantifier-free boxes (SELECT 1).
class OneRowOp : public Operator {
 protected:
  Status OpenImpl() override {
    done_ = false;
    return Status::Ok();
  }
  Result<bool> NextBatchImpl(TupleBatch* out) override {
    if (done_) return false;
    out->AppendRow().clear();
    done_ = true;
    return true;
  }

 public:
  OneRowOp() { SetEstimatedRows(1.0); }
  void CloseImpl() override {}
  void ExplainImpl(int depth, std::string* out) const override {
    SelfLine(depth, "OneRow", out);
  }

 private:
  bool done_ = false;
};

}  // namespace

Result<OperatorPtr> Planner::BoxIterator(int box_id) {
  // Base tables, and pass-through boxes over them, are re-read per
  // consumer: a spool would only copy the table, and hide its indexes.
  std::vector<int> cols;
  bool shared = options_.spool_shared &&
                graph_->ConsumerRefCount(box_id) > 1 &&
                PassThroughBase(box_id, &cols) == nullptr;
  if (shared) {
    XNFDB_ASSIGN_OR_RETURN(auto rows, MaterializeBox(box_id));
    // The first reader of a spool carries its build plan for EXPLAIN.
    std::string build_plan;
    if (auto it = spool_plans_.find(box_id); it != spool_plans_.end()) {
      build_plan = std::move(it->second);
      spool_plans_.erase(it);
    }
    OperatorPtr op =
        std::make_unique<MaterializedOp>(rows, stats_, std::move(build_plan));
    // The spool is already materialized: the "estimate" is exact.
    op->SetEstimatedRows(static_cast<double>(rows->size()));
    if (options_.analyze) op->EnableAnalyze();
    if (options_.context != nullptr) op->AttachContext(options_.context);
    return op;
  }
  XNFDB_ASSIGN_OR_RETURN(OperatorPtr op, CompileBox(box_id));
  if (options_.analyze) op->EnableAnalyze();
  if (options_.context != nullptr) op->AttachContext(options_.context);
  return op;
}

Result<std::shared_ptr<const std::vector<Tuple>>> Planner::MaterializeBox(
    int box_id) {
  auto it = spools_.find(box_id);
  if (it != spools_.end()) return it->second;
  XNFDB_ASSIGN_OR_RETURN(OperatorPtr op, CompileBox(box_id));
  // Spool builds run plan-time: attach governance so a cancel/deadline/
  // budget cuts the drain short, and charge the spooled rows.
  if (options_.context != nullptr) op->AttachContext(options_.context);
  if (options_.analyze) op->EnableAnalyze();
  XNFDB_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      DrainOperator(op.get(), options_.batch_size, options_.context));
  if (stats_ != nullptr) ++stats_->spool_builds;
  if (options_.analyze) op->Explain(0, &spool_plans_[box_id]);
  auto shared = std::make_shared<const std::vector<Tuple>>(std::move(rows));
  spools_[box_id] = shared;
  return shared;
}

Table* Planner::OverrideFor(const std::string& name) const {
  if (options_.table_overrides == nullptr) return nullptr;
  auto it = options_.table_overrides->find(name);
  return it == options_.table_overrides->end() ? nullptr : it->second;
}

const QuantOverride* Planner::QuantOverrideFor(int quant_id) const {
  if (options_.quant_overrides == nullptr) return nullptr;
  auto it = options_.quant_overrides->find(quant_id);
  return it == options_.quant_overrides->end() ? nullptr : &it->second;
}

const Box* Planner::PassThroughBase(int box_id, std::vector<int>* cols) const {
  const Box* box = graph_->box(box_id);
  cols->clear();
  for (size_t i = 0; i < box->HeadArity(); ++i) {
    cols->push_back(static_cast<int>(i));
  }
  while (box->kind == BoxKind::kSelect) {
    if (box->quants.size() != 1 ||
        box->quants[0].kind != QuantKind::kForeach || !box->preds.empty() ||
        !box->exists_groups.empty() || !box->group_by.empty() ||
        box->distinct || !box->order_by.empty() || box->limit >= 0 ||
        box->offset > 0) {
      return nullptr;
    }
    for (const qgm::HeadColumn& h : box->head) {
      if (h.expr == nullptr || h.expr->kind != Expr::Kind::kColRef ||
          h.expr->quant_id != box->quants[0].id) {
        return nullptr;
      }
    }
    for (int& c : *cols) c = box->head[c].expr->column;
    box = graph_->box(box->quants[0].box_id);
  }
  return box->kind == BoxKind::kBaseTable ? box : nullptr;
}

Result<OperatorPtr> Planner::CompileBox(int box_id) {
  const Box* box = graph_->box(box_id);
  if (graph_->IsDead(box_id)) {
    return Status::Internal("compiling dead box " + std::to_string(box_id));
  }
  if (stats_ != nullptr) ++stats_->operators_created;
  OperatorPtr op;
  switch (box->kind) {
    case BoxKind::kBaseTable: {
      if (Table* delta = OverrideFor(box->table_name)) {
        op = std::make_unique<ScanOp>(delta, stats_);
        break;
      }
      if (const VirtualTableProvider* v =
              catalog_->GetVirtualTable(box->table_name)) {
        op = std::make_unique<VirtualScanOp>(v, stats_);
        break;
      }
      XNFDB_ASSIGN_OR_RETURN(Table * table,
                             catalog_->GetTable(box->table_name));
      op = std::make_unique<ScanOp>(table, stats_);
      break;
    }
    case BoxKind::kSelect: {
      XNFDB_ASSIGN_OR_RETURN(op, CompileSelect(*box));
      break;
    }
    case BoxKind::kUnion: {
      XNFDB_ASSIGN_OR_RETURN(op, CompileUnion(*box));
      break;
    }
    case BoxKind::kXnf:
    case BoxKind::kTop:
      return Status::Internal(std::string("cannot compile ") +
                              qgm::BoxKindName(box->kind) + " box directly");
  }
  if (op == nullptr) return Status::Internal("unknown box kind");
  if (op->estimated_rows() < 0) op->SetEstimatedRows(EstimateCard(box_id));
  return op;
}

Result<OperatorPtr> Planner::CompileUnion(const Box& box) {
  std::vector<OperatorPtr> children;
  double est = 0;
  for (int in : box.union_inputs) {
    XNFDB_ASSIGN_OR_RETURN(OperatorPtr c, BoxIterator(in));
    est += EstimateCard(in);
    children.push_back(std::move(c));
  }
  OperatorPtr u = std::make_unique<UnionOp>(std::move(children));
  u->SetEstimatedRows(std::max(est, 1.0));
  if (box.distinct) {
    u = std::make_unique<DistinctOp>(std::move(u));
    u->SetEstimatedRows(std::max(est, 1.0));
  }
  return u;
}

Result<OperatorPtr> Planner::QuantSource(const Quantifier& q,
                                         std::vector<const Expr*> pushed) {
  const Box* source = graph_->box(q.box_id);
  // The stream's estimated cardinality with every pushed predicate applied
  // — computed up front, before access-path selection consumes predicates.
  const double total = QuantCard(q, pushed);
  OperatorPtr op;
  if (const QuantOverride* sub = QuantOverrideFor(q.id)) {
    op = std::make_unique<FrontierOp>(sub->rows, sub->component);
    op->SetEstimatedRows(sub->est_rows);
  }
  // Access-path selection: `col = literal` on an indexed base-table column.
  // Virtual tables (sys$ views) have no indexes: HasTable excludes them.
  // Overridden (delta) tables have no indexes either: OverrideFor excludes.
  if (op == nullptr && options_.use_indexes &&
      source->kind == BoxKind::kBaseTable &&
      OverrideFor(source->table_name) == nullptr &&
      catalog_->HasTable(source->table_name)) {
    XNFDB_ASSIGN_OR_RETURN(Table * table,
                           catalog_->GetTable(source->table_name));
    for (size_t i = 0; i < pushed.size(); ++i) {
      const Expr* p = pushed[i];
      if (p->kind != Expr::Kind::kBinary || p->op != "=") continue;
      const Expr* col = nullptr;
      const Expr* lit = nullptr;
      if (p->lhs->kind == Expr::Kind::kColRef &&
          p->rhs->kind == Expr::Kind::kLiteral) {
        col = p->lhs.get();
        lit = p->rhs.get();
      } else if (p->rhs->kind == Expr::Kind::kColRef &&
                 p->lhs->kind == Expr::Kind::kLiteral) {
        col = p->rhs.get();
        lit = p->lhs.get();
      } else {
        continue;
      }
      if (lit->literal.is_null()) continue;  // col = NULL matches no row
      if (table->GetIndex(col->column) == nullptr) continue;
      op = std::make_unique<IndexScanOp>(table, col->column, lit->literal,
                                         stats_);
      op->SetEstimatedRows(
          std::max(EstimateCard(q.box_id) * PredSelectivity(*p), 1.0));
      pushed.erase(pushed.begin() + i);
      break;
    }
  }
  // Range access path: comparison predicates against literals on an
  // ordered-indexed column (col < lit, col >= lit, ..., col = lit).
  if (op == nullptr && options_.use_indexes &&
      source->kind == BoxKind::kBaseTable &&
      OverrideFor(source->table_name) == nullptr &&
      catalog_->HasTable(source->table_name)) {
    XNFDB_ASSIGN_OR_RETURN(Table * table,
                           catalog_->GetTable(source->table_name));
    // Find the first ordered-indexed column with at least one usable bound.
    int best_col = -1;
    std::optional<Value> lo, hi;
    bool lo_inc = true, hi_inc = true;
    std::vector<size_t> used;
    for (size_t i = 0; i < pushed.size(); ++i) {
      const Expr* p = pushed[i];
      if (p->kind != Expr::Kind::kBinary) continue;
      std::string op_name = p->op;
      const Expr* col = nullptr;
      const Expr* lit = nullptr;
      if (p->lhs->kind == Expr::Kind::kColRef &&
          p->rhs->kind == Expr::Kind::kLiteral) {
        col = p->lhs.get();
        lit = p->rhs.get();
      } else if (p->rhs->kind == Expr::Kind::kColRef &&
                 p->lhs->kind == Expr::Kind::kLiteral) {
        col = p->rhs.get();
        lit = p->lhs.get();
        // Flip the comparison: lit OP col == col flipped(OP) lit.
        if (op_name == "<") op_name = ">";
        else if (op_name == "<=") op_name = ">=";
        else if (op_name == ">") op_name = "<";
        else if (op_name == ">=") op_name = "<=";
      } else {
        continue;
      }
      if (op_name != "=" && op_name != "<" && op_name != "<=" &&
          op_name != ">" && op_name != ">=") {
        continue;
      }
      if (lit->literal.is_null()) continue;
      if (best_col >= 0 && col->column != best_col) continue;
      if (table->GetOrderedIndex(col->column) == nullptr) continue;
      best_col = col->column;
      const Value& v = lit->literal;
      auto tighten_lo = [&](const Value& b, bool inc) {
        if (!lo.has_value() || *lo < b || (*lo == b && !inc)) {
          lo = b;
          lo_inc = inc;
        }
      };
      auto tighten_hi = [&](const Value& b, bool inc) {
        if (!hi.has_value() || b < *hi || (*hi == b && !inc)) {
          hi = b;
          hi_inc = inc;
        }
      };
      if (op_name == "=") {
        tighten_lo(v, true);
        tighten_hi(v, true);
      } else if (op_name == ">") {
        tighten_lo(v, false);
      } else if (op_name == ">=") {
        tighten_lo(v, true);
      } else if (op_name == "<") {
        tighten_hi(v, false);
      } else {
        tighten_hi(v, true);
      }
      used.push_back(i);
    }
    if (best_col >= 0) {
      double sel = 1.0;
      for (size_t i : used) sel *= PredSelectivity(*pushed[i]);
      op = std::make_unique<RangeScanOp>(table, best_col, std::move(lo),
                                         lo_inc, std::move(hi), hi_inc,
                                         stats_);
      op->SetEstimatedRows(std::max(EstimateCard(q.box_id) * sel, 1.0));
      for (auto it = used.rbegin(); it != used.rend(); ++it) {
        pushed.erase(pushed.begin() + *it);
      }
    }
  }
  if (op == nullptr) {
    XNFDB_ASSIGN_OR_RETURN(op, BoxIterator(q.box_id));
  }
  if (!pushed.empty()) {
    Layout layout;
    layout.Add(q.id, 0, source->HeadArity());
    op = std::make_unique<FilterOp>(std::move(op), std::move(pushed), layout);
    op->SetEstimatedRows(total);
  }
  // Sources estimated at creation (scans, spools) keep their own numbers.
  if (op->estimated_rows() < 0) op->SetEstimatedRows(total);
  return op;
}

const Table* Planner::StatsTableFor(int quant_id) const {
  const Box* ranged = graph_->RangedBox(quant_id);
  if (ranged == nullptr || ranged->kind != BoxKind::kBaseTable) return nullptr;
  // Delta-overridden scans cost by the override's stats: the real table is
  // not read by the plan, and touching it here would recompute full column
  // statistics (O(rows)) on every delta-maintenance re-plan.
  if (Table* delta = OverrideFor(ranged->table_name)) return delta;
  Result<Table*> table = catalog_->GetTable(ranged->table_name);
  return table.ok() ? table.value() : nullptr;
}

double Planner::PredSelectivity(const Expr& pred) {
  if (pred.kind == Expr::Kind::kBinary) {
    if (pred.op == "=") {
      // col = literal against a base column: 1/distinct.
      const Expr* col = nullptr;
      if (pred.lhs->kind == Expr::Kind::kColRef &&
          pred.rhs->kind == Expr::Kind::kLiteral) {
        col = pred.lhs.get();
      } else if (pred.rhs->kind == Expr::Kind::kColRef &&
                 pred.lhs->kind == Expr::Kind::kLiteral) {
        col = pred.rhs.get();
      }
      if (col != nullptr) {
        if (const Table* t = StatsTableFor(col->quant_id)) {
          size_t d = t->GetColumnStats(col->column).distinct;
          if (d > 0) return 1.0 / static_cast<double>(d);
        }
        return 0.05;
      }
      // join predicate col = col
      if (pred.lhs->kind == Expr::Kind::kColRef &&
          pred.rhs->kind == Expr::Kind::kColRef) {
        double d = 10.0;
        for (const Expr* side : {pred.lhs.get(), pred.rhs.get()}) {
          if (const Table* t = StatsTableFor(side->quant_id)) {
            size_t dd = t->GetColumnStats(side->column).distinct;
            d = std::max(d, static_cast<double>(dd));
          }
        }
        return 1.0 / d;
      }
      return 0.1;
    }
    if (pred.op == "<" || pred.op == "<=" || pred.op == ">" ||
        pred.op == ">=") {
      return 0.3;
    }
    if (pred.op == "<>") return 0.9;
    if (pred.op == "AND") {
      return PredSelectivity(*pred.lhs) * PredSelectivity(*pred.rhs);
    }
    if (pred.op == "OR") {
      double a = PredSelectivity(*pred.lhs), b = PredSelectivity(*pred.rhs);
      return std::min(1.0, a + b);
    }
  }
  if (pred.kind == Expr::Kind::kLike) return 0.25;
  return 0.5;
}

double Planner::EstimateCard(int box_id) {
  auto it = card_cache_.find(box_id);
  if (it != card_cache_.end()) return it->second;
  card_cache_[box_id] = 1000.0;  // cycle guard
  const Box* box = graph_->box(box_id);
  double card = 1.0;
  switch (box->kind) {
    case BoxKind::kBaseTable: {
      if (Table* delta = OverrideFor(box->table_name)) {
        card = static_cast<double>(delta->row_count());
        break;
      }
      Result<Table*> table = catalog_->GetTable(box->table_name);
      if (table.ok()) {
        card = static_cast<double>(table.value()->row_count());
      } else if (const VirtualTableProvider* v =
                     catalog_->GetVirtualTable(box->table_name)) {
        card = v->EstimatedRows();
      } else {
        card = 0;
      }
      break;
    }
    case BoxKind::kSelect: {
      for (const Quantifier& q : box->quants) {
        if (q.kind == QuantKind::kForeach) card *= EstimateCard(q.box_id);
      }
      for (const qgm::ExprPtr& p : box->preds) {
        card *= PredSelectivity(*p);
      }
      for (const qgm::ExistsGroup& g : box->exists_groups) {
        (void)g;
        card *= 0.5;
      }
      if (!box->group_by.empty()) card *= 0.1;
      break;
    }
    case BoxKind::kUnion: {
      card = 0;
      for (int in : box->union_inputs) card += EstimateCard(in);
      break;
    }
    default:
      card = 0;
  }
  card = std::max(card, 1.0);
  card_cache_[box_id] = card;
  return card;
}

double Planner::QuantCard(const Quantifier& q,
                          const std::vector<const Expr*>& pushed) {
  const QuantOverride* sub = QuantOverrideFor(q.id);
  double card = sub != nullptr ? sub->est_rows : EstimateCard(q.box_id);
  for (const Expr* p : pushed) card *= PredSelectivity(*p);
  return std::max(card, 1.0);
}

Result<OperatorPtr> Planner::BuildJoinTree(
    const std::vector<const Quantifier*>& quants,
    const std::vector<const Expr*>& preds, Layout* layout) {
  if (quants.empty()) {
    return OperatorPtr(std::make_unique<OneRowOp>());
  }

  // Partition predicates: single-quant predicates are pushed to sources,
  // others applied once all their quantifiers joined.
  std::map<int, std::vector<const Expr*>> pushed;
  std::vector<const Expr*> join_preds;
  for (const Expr* p : preds) {
    std::vector<int> used;
    p->CollectQuants(&used);
    if (used.size() == 1) {
      pushed[used[0]].push_back(p);
    } else {
      join_preds.push_back(p);
    }
  }

  // Greedy join order: cheapest source first, then prefer quantifiers that
  // are equi-connected to the joined set, cheapest among them.
  std::vector<const Quantifier*> remaining = quants;
  auto cheapest = [&](bool connected_only,
                      const std::set<int>& joined) -> int {
    int best = -1;
    double best_card = 0;
    for (size_t i = 0; i < remaining.size(); ++i) {
      const Quantifier* q = remaining[i];
      if (connected_only) {
        bool connected = false;
        for (const Expr* p : join_preds) {
          std::vector<int> used;
          p->CollectQuants(&used);
          bool uses_q = false, uses_joined = false, uses_other = false;
          for (int u : used) {
            if (u == q->id) {
              uses_q = true;
            } else if (joined.count(u)) {
              uses_joined = true;
            } else {
              uses_other = true;
            }
          }
          if (uses_q && uses_joined && !uses_other) connected = true;
        }
        if (!connected) continue;
      }
      double card = QuantCard(*q, pushed[q->id]);
      if (best < 0 || card < best_card) {
        best = static_cast<int>(i);
        best_card = card;
      }
    }
    return best;
  };

  std::set<int> joined;
  // A substituted quantifier (a delta plan's frontier) drives the tree.
  int first = -1;
  for (size_t i = 0; i < remaining.size() && first < 0; ++i) {
    if (QuantOverrideFor(remaining[i]->id) != nullptr) {
      first = static_cast<int>(i);
    }
  }
  if (first < 0) first = cheapest(false, joined);
  const Quantifier* q0 = remaining[first];
  remaining.erase(remaining.begin() + first);
  XNFDB_ASSIGN_OR_RETURN(OperatorPtr current, QuantSource(*q0, pushed[q0->id]));
  Layout current_layout;
  size_t width = graph_->box(q0->box_id)->HeadArity();
  current_layout.Add(q0->id, 0, width);
  joined.insert(q0->id);
  std::vector<bool> pred_used(join_preds.size(), false);
  // Running cardinality estimate of the joined prefix, stamped on each
  // join operator as it is built.
  double card = QuantCard(*q0, pushed[q0->id]);

  while (!remaining.empty()) {
    int pick = cheapest(true, joined);
    if (pick < 0) pick = cheapest(false, joined);
    const Quantifier* q = remaining[pick];
    remaining.erase(remaining.begin() + pick);
    size_t inner_width = graph_->box(q->box_id)->HeadArity();
    Layout inner_layout;
    inner_layout.Add(q->id, 0, inner_width);
    Layout combined = current_layout;
    combined.Add(q->id, width, inner_width);

    // Predicates becoming fully bound with q joined in.
    std::set<int> now_joined = joined;
    now_joined.insert(q->id);
    std::vector<const Expr*> ready;
    for (size_t i = 0; i < join_preds.size(); ++i) {
      if (pred_used[i]) continue;
      if (BoundBy(*join_preds[i], now_joined) &&
          ReferencesAny(*join_preds[i], {q->id})) {
        ready.push_back(join_preds[i]);
        pred_used[i] = true;
      }
    }
    const double outer_card = card;
    card *= QuantCard(*q, pushed[q->id]);
    for (const Expr* p : ready) card *= PredSelectivity(*p);
    card = std::max(card, 1.0);

    XNFDB_ASSIGN_OR_RETURN(OperatorPtr index_join,
                           IndexJoin(*q, ready, pushed[q->id], joined,
                                     outer_card, &current, current_layout,
                                     combined));
    if (index_join != nullptr) {
      current = std::move(index_join);
      current->SetEstimatedRows(card);
      current_layout = combined;
      width += inner_width;
      joined.insert(q->id);
      continue;
    }

    XNFDB_ASSIGN_OR_RETURN(OperatorPtr inner, QuantSource(*q, pushed[q->id]));
    // Extract hash keys: `left = right` with left bound by joined set and
    // right by {q} (or vice versa).
    std::vector<const Expr*> left_keys, right_keys, residual;
    std::set<int> only_q{q->id};
    for (const Expr* p : ready) {
      bool is_equi = false;
      if (options_.use_hash_join && p->kind == Expr::Kind::kBinary &&
          p->op == "=") {
        const Expr* a = p->lhs.get();
        const Expr* b = p->rhs.get();
        if (BoundBy(*a, joined) && BoundBy(*b, only_q) &&
            ReferencesAny(*a, joined) && ReferencesAny(*b, only_q)) {
          left_keys.push_back(a);
          right_keys.push_back(b);
          is_equi = true;
        } else if (BoundBy(*b, joined) && BoundBy(*a, only_q) &&
                   ReferencesAny(*b, joined) && ReferencesAny(*a, only_q)) {
          left_keys.push_back(b);
          right_keys.push_back(a);
          is_equi = true;
        }
      }
      if (!is_equi) residual.push_back(p);
    }
    // Delta plans are re-opened per fixpoint round; their inner sides never
    // read the frontier (it is joined first), so each is built once.
    const bool keep_build = options_.quant_overrides != nullptr &&
                            QuantOverrideFor(q->id) == nullptr;
    if (!left_keys.empty()) {
      auto join = std::make_unique<HashJoinOp>(
          std::move(current), std::move(inner), std::move(left_keys),
          std::move(right_keys), std::move(residual), current_layout,
          inner_layout, combined, stats_, options_.batch_size);
      if (keep_build) join->KeepBuild();
      current = std::move(join);
    } else {
      auto join = std::make_unique<NLJoinOp>(
          std::move(current), std::move(inner), std::move(residual), combined,
          stats_, options_.batch_size);
      if (keep_build) join->KeepBuild();
      current = std::move(join);
    }
    current->SetEstimatedRows(card);
    current_layout = combined;
    width += inner_width;
    joined.insert(q->id);
  }

  // Any predicate not yet applied (e.g. referencing a single repeated
  // quantifier set oddly) is applied as a final filter.
  std::vector<const Expr*> leftover;
  for (size_t i = 0; i < join_preds.size(); ++i) {
    if (!pred_used[i]) leftover.push_back(join_preds[i]);
  }
  if (!leftover.empty()) {
    for (const Expr* p : leftover) card *= PredSelectivity(*p);
    current = std::make_unique<FilterOp>(std::move(current),
                                         std::move(leftover), current_layout);
    current->SetEstimatedRows(std::max(card, 1.0));
  }
  *layout = current_layout;
  return current;
}

Result<OperatorPtr> Planner::IndexJoin(
    const Quantifier& q, const std::vector<const Expr*>& ready,
    const std::vector<const Expr*>& pushed, const std::set<int>& joined,
    double outer_card, OperatorPtr* outer, const Layout& outer_layout,
    const Layout& combined) {
  if (!options_.use_indexes) return OperatorPtr();
  std::vector<int> cols;
  const Box* base = PassThroughBase(q.box_id, &cols);
  if (base == nullptr || OverrideFor(base->table_name) != nullptr ||
      !catalog_->HasTable(base->table_name)) {
    return OperatorPtr();
  }
  XNFDB_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(base->table_name));
  const double rows = static_cast<double>(table->row_count());
  // The cheapest ready `outer expr = q.col` on a hash-indexed column.
  int best = -1;
  int best_col = -1;
  const Expr* best_key = nullptr;
  double best_fetched = rows * kIndexJoinMaxFetchFraction;
  for (size_t i = 0; i < ready.size(); ++i) {
    const Expr* p = ready[i];
    if (p->kind != Expr::Kind::kBinary || p->op != "=") continue;
    for (auto [key, col] : {std::pair(p->lhs.get(), p->rhs.get()),
                            std::pair(p->rhs.get(), p->lhs.get())}) {
      if (col->kind != Expr::Kind::kColRef || col->quant_id != q.id ||
          !BoundBy(*key, joined) || !ReferencesAny(*key, joined)) {
        continue;
      }
      const HashIndex* index = table->GetIndex(cols[col->column]);
      if (index == nullptr) continue;
      const double fetched =
          outer_card * rows /
          static_cast<double>(std::max<size_t>(index->DistinctKeys(), 1));
      if (fetched < best_fetched) {
        best = static_cast<int>(i);
        best_col = cols[col->column];
        best_key = key;
        best_fetched = fetched;
      }
    }
  }
  if (best < 0) return OperatorPtr();
  std::vector<const Expr*> residual = pushed;
  for (size_t i = 0; i < ready.size(); ++i) {
    if (static_cast<int>(i) != best) residual.push_back(ready[i]);
  }
  return OperatorPtr(std::make_unique<IndexJoinOp>(
      std::move(*outer), table, best_col, std::move(cols), best_key,
      std::move(residual), outer_layout, combined, stats_));
}

Result<OperatorPtr> Planner::CompileSelect(const Box& box) {
  // F-quantifiers and the conjunctive predicates drive the join tree.
  std::vector<const Quantifier*> fquants = box.ForeachQuants();
  std::vector<const Expr*> preds;
  for (const qgm::ExprPtr& p : box.preds) preds.push_back(p.get());

  Layout layout;
  XNFDB_ASSIGN_OR_RETURN(OperatorPtr current,
                         BuildJoinTree(fquants, preds, &layout));

  // Existential groups (disjunctive reachability / unconverted subqueries).
  if (!box.exists_groups.empty()) {
    std::set<int> outer_ids;
    for (const Quantifier* q : fquants) outer_ids.insert(q->id);
    std::vector<GroupCheck> checks;
    for (const qgm::ExistsGroup& group : box.exists_groups) {
      GroupCheck check;
      check.negated = group.negated;
      std::set<int> group_ids(group.quant_ids.begin(), group.quant_ids.end());
      // Split group predicates: internal (group-only) drive the group-side
      // join; the rest correlate with the outer row.
      std::vector<const Expr*> internal;
      std::vector<const Expr*> correlated;
      for (const qgm::ExprPtr& p : group.preds) {
        if (BoundBy(*p, group_ids)) {
          internal.push_back(p.get());
        } else {
          correlated.push_back(p.get());
        }
      }
      std::vector<const Quantifier*> gquants;
      for (int qid : group.quant_ids) {
        gquants.push_back(box.FindQuant(qid));
      }
      Layout group_layout;
      XNFDB_ASSIGN_OR_RETURN(OperatorPtr gop,
                             BuildJoinTree(gquants, internal, &group_layout));
      if (options_.context != nullptr) gop->AttachContext(options_.context);
      XNFDB_ASSIGN_OR_RETURN(
          std::vector<Tuple> rows,
          DrainOperator(gop.get(), options_.batch_size, options_.context));
      check.rows =
          std::make_shared<const std::vector<Tuple>>(std::move(rows));
      check.group_layout = group_layout;
      check.combined_layout = layout;
      check.combined_layout.Append(group_layout, layout.TotalWidth());
      // Extract equi-correlation pairs.
      for (const Expr* p : correlated) {
        bool is_equi = false;
        if (p->kind == Expr::Kind::kBinary && p->op == "=") {
          const Expr* a = p->lhs.get();
          const Expr* b = p->rhs.get();
          if (BoundBy(*a, outer_ids) && BoundBy(*b, group_ids)) {
            check.equi_outer.push_back(a);
            check.equi_inner.push_back(b);
            is_equi = true;
          } else if (BoundBy(*b, outer_ids) && BoundBy(*a, group_ids)) {
            check.equi_outer.push_back(b);
            check.equi_inner.push_back(a);
            is_equi = true;
          }
        }
        if (!is_equi) check.residual.push_back(p);
      }
      checks.push_back(std::move(check));
    }
    const double child_est = current->estimated_rows();
    current = std::make_unique<ExistsFilterOp>(
        std::move(current), std::move(checks), layout,
        box.groups_disjunctive, options_.naive_exists, stats_);
    if (child_est >= 0) {
      double est = child_est;
      for (size_t i = 0; i < box.exists_groups.size(); ++i) est *= 0.5;
      current->SetEstimatedRows(std::max(est, 1.0));
    }
  }

  // Aggregation or plain projection to the head.
  bool has_agg = !box.group_by.empty();
  for (const qgm::HeadColumn& h : box.head) {
    if (h.expr && ContainsAgg(*h.expr)) has_agg = true;
  }
  if (has_agg) {
    std::vector<const Expr*> group_by;
    for (const qgm::ExprPtr& g : box.group_by) group_by.push_back(g.get());
    std::vector<AggSpec> specs;
    for (const qgm::HeadColumn& h : box.head) {
      AggSpec spec;
      if (h.expr->kind == Expr::Kind::kAgg) {
        spec.is_agg = true;
        spec.func = h.expr->op;
        spec.arg = h.expr->lhs.get();
      } else {
        spec.group_expr = h.expr.get();
      }
      specs.push_back(spec);
    }
    const double child_est = current->estimated_rows();
    current = std::make_unique<AggOp>(std::move(current), std::move(group_by),
                                      std::move(specs), layout,
                                      options_.batch_size);
    // Scalar aggregation collapses to one row; grouped keeps ~10% of input.
    current->SetEstimatedRows(
        box.group_by.empty()
            ? 1.0
            : std::max(child_est >= 0 ? child_est * 0.1 : 1.0, 1.0));
  } else {
    const double child_est = current->estimated_rows();
    std::vector<const Expr*> exprs;
    for (const qgm::HeadColumn& h : box.head) exprs.push_back(h.expr.get());
    current = std::make_unique<ProjectOp>(std::move(current),
                                          std::move(exprs), layout);
    if (child_est >= 0) current->SetEstimatedRows(child_est);
  }

  if (box.distinct) {
    const double child_est = current->estimated_rows();
    current = std::make_unique<DistinctOp>(std::move(current));
    if (child_est >= 0) current->SetEstimatedRows(child_est);
  }
  if (!box.order_by.empty()) {
    const double child_est = current->estimated_rows();
    current = std::make_unique<SortOp>(std::move(current), box.order_by,
                                       options_.batch_size);
    if (child_est >= 0) current->SetEstimatedRows(child_est);
  }
  if (box.limit >= 0 || box.offset > 0) {
    const double child_est = current->estimated_rows();
    current =
        std::make_unique<LimitOp>(std::move(current), box.limit, box.offset);
    if (child_est >= 0) {
      current->SetEstimatedRows(
          box.limit >= 0
              ? std::max(std::min(static_cast<double>(box.limit), child_est),
                         1.0)
              : child_est);
    }
  }
  return current;
}

}  // namespace xnfdb
