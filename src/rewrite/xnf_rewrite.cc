#include "rewrite/xnf_rewrite.h"

#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

namespace xnfdb {

namespace {

using qgm::AddQuant;
using qgm::Box;
using qgm::BoxKind;
using qgm::ExistsGroup;
using qgm::Expr;
using qgm::ExprPtr;
using qgm::HeadColumn;
using qgm::QuantKind;
using qgm::Quantifier;
using qgm::QueryGraph;
using qgm::TopOutput;
using qgm::XnfComponent;

// Topologically sorts the component tables along parent->child relationship
// edges. Returns false on a cycle.
bool TopoSortTables(Box& xnf, std::vector<XnfComponent*>* order) {
  std::map<std::string, int> indegree;
  std::map<std::string, std::vector<std::string>> succ;
  for (const XnfComponent& c : xnf.components) {
    if (!c.is_relationship) indegree[c.name] = 0;
  }
  for (const XnfComponent& r : xnf.components) {
    if (!r.is_relationship) continue;
    for (const std::string& child : r.children) {
      succ[r.parent].push_back(child);
      ++indegree[child];
    }
  }
  std::vector<std::string> ready;
  for (const auto& [name, deg] : indegree) {
    if (deg == 0) ready.push_back(name);
  }
  std::vector<std::string> sorted;
  while (!ready.empty()) {
    std::string name = ready.back();
    ready.pop_back();
    sorted.push_back(name);
    for (const std::string& s : succ[name]) {
      if (--indegree[s] == 0) ready.push_back(s);
    }
  }
  if (sorted.size() != indegree.size()) return false;
  for (const std::string& name : sorted) {
    order->push_back(xnf.FindComponent(name));
  }
  return true;
}

// Resolves TAKE column names into head indexes of `box`; empty take list
// means all columns.
Result<std::vector<int>> TakeProjection(const Box& box,
                                        const std::vector<std::string>& cols) {
  std::vector<int> out;
  if (cols.empty()) {
    out.resize(box.HeadArity());
    std::iota(out.begin(), out.end(), 0);
    return out;
  }
  for (const std::string& name : cols) {
    int idx = -1;
    for (size_t i = 0; i < box.HeadArity(); ++i) {
      if (IdentEquals(box.HeadName(i), name)) {
        idx = static_cast<int>(i);
        break;
      }
    }
    if (idx < 0) {
      return Status::SemanticError("TAKE column '" + name +
                                   "' not found in component " + box.label);
    }
    out.push_back(idx);
  }
  return out;
}

// The rewrite proper; one instance per invocation.
class XnfRewriter {
 public:
  XnfRewriter(QueryGraph* graph, Box* xnf, const XnfRewriteOptions& options)
      : graph_(graph), xnf_(xnf), options_(options) {}

  Status Run();

 private:
  // The column offset of partner `pi` within relationship `r`'s head.
  size_t PartnerOffset(const XnfComponent& r, size_t pi) const;
  // Partner names of `r` in head order (parent first).
  std::vector<std::string> Partners(const XnfComponent& r) const;

  // Shared mode: turns the relationship's semantic box into the connection
  // box by re-pointing its parent quantifier at the parent's final box.
  Result<int> ConnectionBox(const XnfComponent& rel);

  // Builds `DISTINCT SELECT <child cols> FROM CB_rel` for child `comp`.
  Result<int> ProjectionOfConnection(const XnfComponent& rel,
                                     const XnfComponent& comp);

  // Unshared mode: child derivation via existential reachability groups.
  Result<int> ExistsDerivation(const XnfComponent& comp);
  // Unshared mode: an independent join box deriving relationship `rel`
  // over the partners' final boxes.
  Result<int> IndependentRelationshipBox(const XnfComponent& rel);

  Status BuildTopOutputs();

  // Relationships having `name` among their children.
  std::vector<const XnfComponent*> IncomingRels(const std::string& name) const;

  QueryGraph* graph_;
  Box* xnf_;
  XnfRewriteOptions options_;
  std::map<std::string, int> final_box_;      // component -> final box id
  std::map<std::string, int> connection_box_; // relationship -> CB id
};

std::vector<std::string> XnfRewriter::Partners(const XnfComponent& r) const {
  std::vector<std::string> partners;
  partners.push_back(r.parent);
  for (const std::string& c : r.children) partners.push_back(c);
  return partners;
}

size_t XnfRewriter::PartnerOffset(const XnfComponent& r, size_t pi) const {
  std::vector<std::string> partners = Partners(r);
  size_t offset = 0;
  for (size_t i = 0; i < pi; ++i) {
    const XnfComponent* pc = xnf_->FindComponent(partners[i]);
    offset += graph_->box(pc->box_id)->HeadArity();
  }
  return offset;
}

std::vector<const XnfComponent*> XnfRewriter::IncomingRels(
    const std::string& name) const {
  std::vector<const XnfComponent*> rels;
  for (const XnfComponent& r : xnf_->components) {
    if (!r.is_relationship) continue;
    for (const std::string& child : r.children) {
      if (IdentEquals(child, name)) {
        rels.push_back(&r);
        break;
      }
    }
  }
  return rels;
}

Result<int> XnfRewriter::ConnectionBox(const XnfComponent& rel) {
  auto it = connection_box_.find(rel.name);
  if (it != connection_box_.end()) return it->second;
  Box* rb = graph_->box(rel.box_id);
  // The semantic box already ranges over the partners' candidate boxes and
  // the USING tables with the relationship predicate in place. The parent
  // side must range over the parent's *final* (reachability-filtered) box;
  // children stay on their candidate boxes — their filtering is exactly
  // what this box defines.
  auto fit = final_box_.find(rel.parent);
  if (fit == final_box_.end()) {
    return Status::Internal("parent " + rel.parent +
                            " has no final box yet (topological order bug)");
  }
  const XnfComponent* parent_comp = xnf_->FindComponent(rel.parent);
  if (!rb->quants.empty() &&
      rb->quants[0].box_id == parent_comp->box_id) {
    rb->quants[0].box_id = fit->second;
  } else {
    return Status::Internal("relationship box of " + rel.name +
                            " does not start with its parent quantifier");
  }
  connection_box_[rel.name] = rb->id;
  return rb->id;
}

Result<int> XnfRewriter::ProjectionOfConnection(const XnfComponent& rel,
                                                const XnfComponent& comp) {
  XNFDB_ASSIGN_OR_RETURN(int cb_id, ConnectionBox(rel));
  Box* proj = graph_->NewBox(BoxKind::kSelect, comp.name);
  int q = AddQuant(graph_, proj, QuantKind::kForeach, cb_id, rel.name);
  // Locate this child's column range. For self-relationships or repeated
  // children the FIRST occurrence as a child (index >= 1) is used.
  std::vector<std::string> partners = Partners(rel);
  size_t pi = 1;
  while (pi < partners.size() && !IdentEquals(partners[pi], comp.name)) ++pi;
  if (pi >= partners.size()) {
    return Status::Internal("component " + comp.name +
                            " not a child of relationship " + rel.name);
  }
  size_t offset = PartnerOffset(rel, pi);
  const Box* cand = graph_->box(comp.box_id);
  for (size_t i = 0; i < cand->HeadArity(); ++i) {
    HeadColumn h;
    h.name = cand->HeadName(i);
    h.expr = Expr::MakeColRef(q, static_cast<int>(offset + i));
    proj->head.push_back(std::move(h));
  }
  proj->distinct = true;
  return proj->id;
}

Result<int> XnfRewriter::ExistsDerivation(const XnfComponent& comp) {
  Box* box = graph_->NewBox(BoxKind::kSelect, comp.name);
  int self_q =
      AddQuant(graph_, box, QuantKind::kForeach, comp.box_id, comp.name);
  const Box* cand = graph_->box(comp.box_id);
  for (size_t i = 0; i < cand->HeadArity(); ++i) {
    HeadColumn h;
    h.name = cand->HeadName(i);
    h.expr = Expr::MakeColRef(self_q, static_cast<int>(i));
    box->head.push_back(std::move(h));
  }
  // One exists group per incoming relationship (disjunctive reachability).
  for (const XnfComponent* rel : IncomingRels(comp.name)) {
    const Box* rb = graph_->box(rel->box_id);
    ExistsGroup group;
    // Map each quantifier of the relationship's semantic box: the child
    // occurrence of `comp` maps onto self_q; every other partner / USING
    // quantifier becomes an E-quantifier.
    std::vector<std::string> partners = Partners(*rel);
    std::map<int, int> quant_map;  // old quant id -> new quant id
    bool mapped_self = false;
    for (size_t qi = 0; qi < rb->quants.size(); ++qi) {
      const Quantifier& q = rb->quants[qi];
      bool is_self = false;
      if (!mapped_self && qi >= 1 && qi < partners.size() &&
          IdentEquals(partners[qi], comp.name)) {
        is_self = true;
        mapped_self = true;
      }
      if (is_self) {
        quant_map[q.id] = self_q;
        continue;
      }
      // Parent quantifier ranges over the parent's final box; everything
      // else over its original (candidate / base) box.
      int ranged = q.box_id;
      if (qi == 0) {
        auto fit = final_box_.find(rel->parent);
        if (fit == final_box_.end()) {
          return Status::Internal("parent " + rel->parent +
                                  " has no final box yet");
        }
        ranged = fit->second;
      }
      int eq = AddQuant(graph_, box, QuantKind::kExists, ranged, q.name);
      group.quant_ids.push_back(eq);
      quant_map[q.id] = eq;
    }
    if (!mapped_self) {
      return Status::Internal("child " + comp.name +
                              " not found among partners of " + rel->name);
    }
    for (const ExprPtr& p : rb->preds) {
      ExprPtr clone = p->Clone();
      for (const auto& [from, to] : quant_map) {
        const Box* ranged = graph_->RangedBox(to);
        std::vector<int> identity(ranged->HeadArity());
        std::iota(identity.begin(), identity.end(), 0);
        XNFDB_RETURN_IF_ERROR(RemapQuant(clone.get(), from, to, identity));
      }
      group.preds.push_back(std::move(clone));
    }
    box->exists_groups.push_back(std::move(group));
  }
  // Reachability through *any* incoming relationship suffices (Sect. 2).
  box->groups_disjunctive = true;
  // A component is a set (object sharing, Sect. 2), as the shared form's
  // projections are: its groups may then become joins (Fig. 5a -> 5b).
  box->distinct = true;
  return box->id;
}

Result<int> XnfRewriter::IndependentRelationshipBox(const XnfComponent& rel) {
  const Box* rb = graph_->box(rel.box_id);
  Box* jb = graph_->NewBox(BoxKind::kSelect, rel.name + "_pairs");
  std::vector<std::string> partners = Partners(rel);
  std::map<int, int> quant_map;
  for (size_t qi = 0; qi < rb->quants.size(); ++qi) {
    const Quantifier& q = rb->quants[qi];
    int ranged = q.box_id;
    if (qi < partners.size()) {
      auto fit = final_box_.find(partners[qi]);
      if (fit == final_box_.end()) {
        return Status::Internal("partner " + partners[qi] +
                                " has no final box");
      }
      ranged = fit->second;
    }
    int nq = AddQuant(graph_, jb, QuantKind::kForeach, ranged, q.name);
    quant_map[q.id] = nq;
  }
  for (const ExprPtr& p : rb->preds) {
    ExprPtr clone = p->Clone();
    for (const auto& [from, to] : quant_map) {
      const Box* ranged = graph_->RangedBox(to);
      std::vector<int> identity(ranged->HeadArity());
      std::iota(identity.begin(), identity.end(), 0);
      XNFDB_RETURN_IF_ERROR(RemapQuant(clone.get(), from, to, identity));
    }
    jb->preds.push_back(std::move(clone));
  }
  // Head: clone the semantic head (partner columns), remapped.
  for (const HeadColumn& h : rb->head) {
    HeadColumn nh;
    nh.name = h.name;
    nh.expr = h.expr->Clone();
    for (const auto& [from, to] : quant_map) {
      const Box* ranged = graph_->RangedBox(to);
      std::vector<int> identity(ranged->HeadArity());
      std::iota(identity.begin(), identity.end(), 0);
      XNFDB_RETURN_IF_ERROR(RemapQuant(nh.expr.get(), from, to, identity));
    }
    jb->head.push_back(std::move(nh));
  }
  return jb->id;
}

Status XnfRewriter::BuildTopOutputs() {
  Box* top = graph_->box(graph_->top_box_id());
  for (const XnfComponent& c : xnf_->components) {
    if (!c.taken) continue;
    TopOutput out;
    out.name = c.name;
    if (!c.is_relationship) {
      out.xnf_component = true;
      out.box_id = final_box_[c.name];
      const Box* fb = graph_->box(out.box_id);
      XNFDB_ASSIGN_OR_RETURN(out.cols, TakeProjection(*fb, c.take_columns));
      top->outputs.push_back(std::move(out));
      continue;
    }
    // Relationship output.
    out.is_connection = true;
    int box_id;
    if (options_.share_connection_boxes) {
      XNFDB_ASSIGN_OR_RETURN(box_id, ConnectionBox(c));
    } else {
      XNFDB_ASSIGN_OR_RETURN(box_id, IndependentRelationshipBox(c));
    }
    out.box_id = box_id;
    std::vector<std::string> partners = Partners(c);
    for (size_t pi = 0; pi < partners.size(); ++pi) {
      const XnfComponent* pc = xnf_->FindComponent(partners[pi]);
      const Box* cand = graph_->box(pc->box_id);
      size_t offset = PartnerOffset(c, pi);
      // Apply the partner's own TAKE projection so connection halves line
      // up with the component streams for tuple-id resolution.
      XNFDB_ASSIGN_OR_RETURN(std::vector<int> proj,
                             TakeProjection(*cand, pc->take_columns));
      std::vector<int> cols;
      for (int idx : proj) cols.push_back(static_cast<int>(offset) + idx);
      out.partner_names.push_back(partners[pi]);
      out.partner_arity.push_back(static_cast<int>(cols.size()));
      out.partner_cols.push_back(std::move(cols));
    }
    top->outputs.push_back(std::move(out));
  }
  return Status::Ok();
}

Status XnfRewriter::Run() {
  std::vector<XnfComponent*> order;
  if (!TopoSortTables(*xnf_, &order)) {
    return Status::Unsupported(
        "recursive XNF query (cyclic schema graph); use the fixpoint "
        "evaluator");
  }
  // CO composition: re-point import wrappers at the imports' final
  // derivations (imports are rewritten before their consumers).
  for (XnfComponent* comp : order) {
    if (comp->import_xnf_box < 0) continue;
    const Box* import_xnf = graph_->box(comp->import_xnf_box);
    const XnfComponent* imported =
        import_xnf->FindComponent(comp->import_component);
    if (imported == nullptr || imported->final_box_id < 0) {
      return Status::Internal("imported component " + comp->import_component +
                              " has no final derivation yet");
    }
    Box* wrapper = graph_->box(comp->box_id);
    if (wrapper->quants.size() != 1) {
      return Status::Internal("import wrapper of " + comp->name +
                              " is not an identity box");
    }
    wrapper->quants[0].box_id = imported->final_box_id;
  }
  for (XnfComponent* comp : order) {
    if (comp->is_root || !comp->reachable) {
      final_box_[comp->name] = comp->box_id;
      comp->final_box_id = comp->box_id;
      continue;
    }
    std::vector<const XnfComponent*> incoming = IncomingRels(comp->name);
    if (incoming.empty()) {
      // Marked reachable but no incoming relationship: empty by definition;
      // treat as its own candidates (validated earlier as roots anyway).
      final_box_[comp->name] = comp->box_id;
      comp->final_box_id = comp->box_id;
      continue;
    }
    if (!options_.share_connection_boxes) {
      XNFDB_ASSIGN_OR_RETURN(int fb, ExistsDerivation(*comp));
      final_box_[comp->name] = fb;
      comp->final_box_id = fb;
      continue;
    }
    if (incoming.size() == 1) {
      XNFDB_ASSIGN_OR_RETURN(int fb,
                             ProjectionOfConnection(*incoming[0], *comp));
      final_box_[comp->name] = fb;
      comp->final_box_id = fb;
      continue;
    }
    // Disjunctive reachability: union of per-relationship projections.
    Box* u = graph_->NewBox(BoxKind::kUnion, comp->name);
    u->distinct = true;
    for (const XnfComponent* rel : incoming) {
      XNFDB_ASSIGN_OR_RETURN(int proj, ProjectionOfConnection(*rel, *comp));
      u->union_inputs.push_back(proj);
    }
    // Union boxes carry named (expression-less) head columns mirroring the
    // component's candidate head, so consumers can resolve names and arity.
    const Box* cand = graph_->box(comp->box_id);
    for (size_t i = 0; i < cand->HeadArity(); ++i) {
      HeadColumn h;
      h.name = cand->HeadName(i);
      u->head.push_back(std::move(h));
    }
    final_box_[comp->name] = u->id;
    comp->final_box_id = u->id;
  }
  XNFDB_RETURN_IF_ERROR(BuildTopOutputs());
  graph_->MarkDead(xnf_->id);
  return graph_->Validate();
}

}  // namespace

bool IsXnfGraph(const qgm::QueryGraph& graph) {
  for (size_t i = 0; i < graph.box_count(); ++i) {
    const Box* b = graph.box(static_cast<int>(i));
    if (!graph.IsDead(b->id) && b->kind == BoxKind::kXnf) return true;
  }
  return false;
}

bool XnfHasCycle(const qgm::QueryGraph& graph) {
  for (size_t i = 0; i < graph.box_count(); ++i) {
    const Box* b = graph.box(static_cast<int>(i));
    if (graph.IsDead(b->id) || b->kind != BoxKind::kXnf) continue;
    std::vector<XnfComponent*> order;
    if (!TopoSortTables(*const_cast<Box*>(b), &order)) return true;
  }
  return false;
}

Status XnfSemanticRewrite(qgm::QueryGraph* graph,
                          const XnfRewriteOptions& options) {
  // Imported sub-views (CO composition) were built after the boxes that
  // reference them; processing XNF boxes newest-first guarantees every
  // import has its final derivations before its consumers need them.
  std::vector<Box*> xnf_boxes;
  for (size_t i = 0; i < graph->box_count(); ++i) {
    Box* b = graph->box(static_cast<int>(i));
    if (!graph->IsDead(b->id) && b->kind == BoxKind::kXnf) {
      xnf_boxes.push_back(b);
    }
  }
  for (auto it = xnf_boxes.rbegin(); it != xnf_boxes.rend(); ++it) {
    XnfRewriter rewriter(graph, *it, options);
    XNFDB_RETURN_IF_ERROR(rewriter.Run());
  }
  return Status::Ok();
}

}  // namespace xnfdb
