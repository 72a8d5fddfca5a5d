#include "rewrite/nf_rules.h"

#include <algorithm>
#include <set>

namespace xnfdb {

namespace {

using qgm::Box;
using qgm::BoxKind;
using qgm::Expr;
using qgm::ExprPtr;
using qgm::HeadColumn;
using qgm::QuantKind;
using qgm::Quantifier;
using qgm::QueryGraph;

// Replaces colrefs to quantifier `q` by clones of the head expressions of
// the box `q` ranged over. Used when inlining that box.
void SubstituteQuant(ExprPtr* e, int q, const std::vector<HeadColumn>& head) {
  Expr* raw = e->get();
  if (raw->kind == Expr::Kind::kColRef && raw->quant_id == q) {
    *e = head[raw->column].expr->Clone();
    return;
  }
  if (raw->lhs) SubstituteQuant(&raw->lhs, q, head);
  if (raw->rhs) SubstituteQuant(&raw->rhs, q, head);
}

// --- E to F quantifier conversion -----------------------------------------

// True when head column `col` of `box_id` holds no value twice: a declared
// key of a base table, reached through SELECT boxes over one F-quantifier
// that only filter and project it.
bool KeyColumn(const QueryGraph& graph, int box_id, int col) {
  const Box* box = graph.box(box_id);
  while (box->kind == BoxKind::kSelect) {
    std::vector<const Quantifier*> fquants = box->ForeachQuants();
    const Expr* h = box->head[col].expr.get();
    if (fquants.size() != 1 || !box->group_by.empty() || h == nullptr ||
        h->kind != Expr::Kind::kColRef || h->quant_id != fquants[0]->id) {
      return false;
    }
    col = h->column;
    box = graph.box(fquants[0]->box_id);
  }
  return box->kind == BoxKind::kBaseTable && col == box->key_column;
}

// True when `group` admits at most one binding per outer row: it has one
// quantifier, and an equality binds a key column of it to an expression
// of other quantifiers.
bool AtMostOneWitness(const QueryGraph& graph, const Box& b,
                      const qgm::ExistsGroup& group) {
  if (group.quant_ids.size() != 1) return false;
  const Quantifier* q = b.FindQuant(group.quant_ids[0]);
  for (const ExprPtr& p : group.preds) {
    if (p->kind != Expr::Kind::kBinary || p->op != "=") continue;
    for (auto [col, other] : {std::pair(p->lhs.get(), p->rhs.get()),
                              std::pair(p->rhs.get(), p->lhs.get())}) {
      std::vector<int> used;
      other->CollectQuants(&used);
      if (col->kind == Expr::Kind::kColRef && col->quant_id == q->id &&
          std::find(used.begin(), used.end(), q->id) == used.end() &&
          KeyColumn(graph, q->box_id, col->column)) {
        return true;
      }
    }
  }
  return false;
}

class ExistsToJoinRule : public RewriteRule {
 public:
  const char* name() const override { return "ExistsToJoin"; }

  Result<bool> Apply(QueryGraph* graph) override {
    for (size_t i = 0; i < graph->box_count(); ++i) {
      Box* b = graph->box(static_cast<int>(i));
      if (graph->IsDead(b->id) || b->kind != BoxKind::kSelect) continue;
      // Conjunctive groups convert one at a time (each is an independent
      // existential predicate); a disjunctive set converts only when it has
      // a single alternative. Negated (anti-join) groups stay existential.
      // Aggregating boxes are excluded: the join would change group
      // cardinalities. A join emits an outer row once per binding, so a
      // group converts only where that keeps the box's answer, as in [39]:
      // the box eliminates duplicates anyway, or the group binds at most
      // one row. Any other group stays a semi-join (ExistsFilterOp).
      if (b->exists_groups.empty()) continue;
      if (b->groups_disjunctive && b->exists_groups.size() != 1) {
        CountRejected();
        continue;
      }
      if (!b->group_by.empty()) {
        CountRejected();
        continue;
      }
      size_t gi = 0;
      while (gi < b->exists_groups.size() &&
             (b->exists_groups[gi].negated ||
              !(b->distinct ||
                AtMostOneWitness(*graph, *b, b->exists_groups[gi])))) {
        ++gi;
      }
      if (gi == b->exists_groups.size()) {
        CountRejected();
        continue;
      }
      bool has_agg = false;
      for (const HeadColumn& h : b->head) {
        if (h.expr && ContainsAgg(*h.expr)) has_agg = true;
      }
      if (has_agg) {
        CountRejected();
        continue;
      }

      qgm::ExistsGroup group = std::move(b->exists_groups[gi]);
      b->exists_groups.erase(b->exists_groups.begin() + gi);
      for (int qid : group.quant_ids) {
        Quantifier* q = b->FindQuant(qid);
        q->kind = QuantKind::kForeach;
      }
      for (ExprPtr& p : group.preds) b->preds.push_back(std::move(p));
      return true;
    }
    return false;
  }

 private:
  static bool ContainsAgg(const Expr& e) {
    if (e.kind == Expr::Kind::kAgg) return true;
    if (e.lhs && ContainsAgg(*e.lhs)) return true;
    if (e.rhs && ContainsAgg(*e.rhs)) return true;
    return false;
  }
};

// --- SELECT merge -----------------------------------------------------------

class SelectMergeRule : public RewriteRule {
 public:
  const char* name() const override { return "SelectMerge"; }

  Result<bool> Apply(QueryGraph* graph) override {
    for (size_t i = 0; i < graph->box_count(); ++i) {
      Box* b = graph->box(static_cast<int>(i));
      if (graph->IsDead(b->id) || b->kind != BoxKind::kSelect) continue;
      for (size_t qi = 0; qi < b->quants.size(); ++qi) {
        if (b->quants[qi].kind != QuantKind::kForeach) continue;
        Box* child = graph->box(b->quants[qi].box_id);
        if (child->kind != BoxKind::kSelect) continue;
        if (!Mergeable(*graph, *b, *child)) {
          // A kSelect child the conditions decline is a real candidate the
          // rule saw and skipped — worth counting in the trace.
          CountRejected();
          continue;
        }
        XNFDB_RETURN_IF_ERROR(Merge(graph, b, qi));
        return true;
      }
    }
    return false;
  }

 private:
  static bool Mergeable(const QueryGraph& graph, const Box& consumer,
                        const Box& child) {
    if (child.kind != BoxKind::kSelect) return false;
    if (child.distinct || !child.group_by.empty() ||
        !child.exists_groups.empty() || !child.order_by.empty()) {
      return false;
    }
    for (const HeadColumn& h : child.head) {
      if (h.expr == nullptr) return false;
      if (ContainsAggStatic(*h.expr)) return false;
    }
    // Merging a multi-consumer box would duplicate its computation —
    // exactly the common subexpression the XNF rewrite works to share.
    std::vector<int> consumers = graph.Consumers(child.id);
    if (consumers.size() != 1 || consumers[0] != consumer.id) return false;
    // A self-join over the child (two quantifiers of the consumer ranging
    // over it) keeps the box alive after merging one side; skip.
    int quants_over_child = 0;
    for (const Quantifier& q : consumer.quants) {
      if (q.box_id == child.id) ++quants_over_child;
    }
    if (quants_over_child != 1) return false;
    // A consumer whose DISTINCT head would collapse differently is fine:
    // merge preserves the head expressions.
    return true;
  }

  static bool ContainsAggStatic(const Expr& e) {
    if (e.kind == Expr::Kind::kAgg) return true;
    if (e.lhs && ContainsAggStatic(*e.lhs)) return true;
    if (e.rhs && ContainsAggStatic(*e.rhs)) return true;
    return false;
  }

  static Status Merge(QueryGraph* graph, Box* b, size_t qi) {
    int merged_quant = b->quants[qi].id;
    Box* child = graph->box(b->quants[qi].box_id);

    // Substitute the merged quantifier's column references by the child's
    // head expressions throughout the consumer.
    for (HeadColumn& h : b->head) {
      if (h.expr) SubstituteQuant(&h.expr, merged_quant, child->head);
    }
    for (ExprPtr& p : b->preds) {
      SubstituteQuant(&p, merged_quant, child->head);
    }
    for (qgm::ExistsGroup& g : b->exists_groups) {
      for (ExprPtr& p : g.preds) {
        SubstituteQuant(&p, merged_quant, child->head);
      }
    }
    for (ExprPtr& g : b->group_by) {
      SubstituteQuant(&g, merged_quant, child->head);
    }

    // Adopt the child's quantifiers and predicates.
    b->quants.erase(b->quants.begin() + qi);
    for (Quantifier& q : child->quants) {
      b->quants.push_back(q);
      graph->RegisterQuant(q.id, b->id);
    }
    for (ExprPtr& p : child->preds) b->preds.push_back(std::move(p));

    child->quants.clear();
    child->preds.clear();
    graph->MarkDead(child->id);
    return Status::Ok();
  }
};

// --- clean-up ---------------------------------------------------------------

class RemoveUnusedBoxesRule : public RewriteRule {
 public:
  const char* name() const override { return "RemoveUnusedBoxes"; }

  Result<bool> Apply(QueryGraph* graph) override {
    if (graph->top_box_id() < 0) return false;
    std::set<int> live;
    std::vector<int> work{graph->top_box_id()};
    while (!work.empty()) {
      int id = work.back();
      work.pop_back();
      if (!live.insert(id).second) continue;
      const Box* b = graph->box(id);
      for (const Quantifier& q : b->quants) work.push_back(q.box_id);
      for (int in : b->union_inputs) work.push_back(in);
      for (const qgm::TopOutput& o : b->outputs) work.push_back(o.box_id);
      for (const qgm::XnfComponent& c : b->components) {
        work.push_back(c.box_id);
      }
    }
    bool changed = false;
    for (size_t i = 0; i < graph->box_count(); ++i) {
      int id = static_cast<int>(i);
      if (!graph->IsDead(id) && live.count(id) == 0) {
        graph->MarkDead(id);
        changed = true;
      }
    }
    return changed;
  }
};

}  // namespace

std::unique_ptr<RewriteRule> MakeExistsToJoinRule() {
  return std::make_unique<ExistsToJoinRule>();
}
std::unique_ptr<RewriteRule> MakeSelectMergeRule() {
  return std::make_unique<SelectMergeRule>();
}
std::unique_ptr<RewriteRule> MakeRemoveUnusedBoxesRule() {
  return std::make_unique<RemoveUnusedBoxesRule>();
}

std::vector<std::unique_ptr<RewriteRule>> MakeDefaultNfRules() {
  return MakeNfRules(NfRewriteOptions{});
}

std::vector<std::unique_ptr<RewriteRule>> MakeNfRules(
    const NfRewriteOptions& options) {
  std::vector<std::unique_ptr<RewriteRule>> rules;
  if (options.exists_to_join) rules.push_back(MakeExistsToJoinRule());
  if (options.select_merge) rules.push_back(MakeSelectMergeRule());
  if (options.remove_unused) rules.push_back(MakeRemoveUnusedBoxesRule());
  return rules;
}

}  // namespace xnfdb
