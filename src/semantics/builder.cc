#include "semantics/builder.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "parser/parser.h"

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
using qgm::XnfComponent;

// One visible range variable during name resolution.
struct Binding {
  std::string name;  // binding name (alias or table/component name), upper
  int quant_id = -1;
};

// Lexical scope chain for correlated subqueries.
struct Scope {
  std::vector<Binding> bindings;
  const Scope* parent = nullptr;
};

namespace {

bool ContainsAgg(const Expr& e) {
  if (e.kind == Expr::Kind::kAgg) return true;
  if (e.lhs && ContainsAgg(*e.lhs)) return true;
  if (e.rhs && ContainsAgg(*e.rhs)) return true;
  return false;
}

// Splits an AST predicate into its top-level conjuncts.
void SplitAstConjuncts(const ast::Expr* e,
                       std::vector<const ast::Expr*>* out) {
  if (e->kind == ast::Expr::Kind::kBinary) {
    const auto& b = static_cast<const ast::Binary&>(*e);
    if (b.op == "AND") {
      SplitAstConjuncts(b.lhs.get(), out);
      SplitAstConjuncts(b.rhs.get(), out);
      return;
    }
  }
  out->push_back(e);
}

bool IsSubqueryNode(const ast::Expr& e) {
  return e.kind == ast::Expr::Kind::kExists ||
         e.kind == ast::Expr::Kind::kInSubquery;
}

// True if `e` contains an EXISTS/IN subquery anywhere.
bool ContainsSubquery(const ast::Expr& e) {
  if (IsSubqueryNode(e)) return true;
  switch (e.kind) {
    case ast::Expr::Kind::kBinary: {
      const auto& b = static_cast<const ast::Binary&>(e);
      return ContainsSubquery(*b.lhs) || ContainsSubquery(*b.rhs);
    }
    case ast::Expr::Kind::kUnary:
      return ContainsSubquery(
          *static_cast<const ast::Unary&>(e).operand);
    case ast::Expr::Kind::kLike:
      return ContainsSubquery(*static_cast<const ast::Like&>(e).operand);
    case ast::Expr::Kind::kFuncCall: {
      const auto& f = static_cast<const ast::FuncCall&>(e);
      for (const ast::ExprPtr& a : f.args) {
        if (ContainsSubquery(*a)) return true;
      }
      return false;
    }
    default:
      return false;
  }
}

// Collects the leaves of an OR-chain; returns true if every leaf is an
// EXISTS/IN subquery (the disjunctive-reachability shape).
bool CollectOrOfSubqueries(const ast::Expr& e,
                           std::vector<const ast::Expr*>* leaves) {
  if (e.kind == ast::Expr::Kind::kBinary) {
    const auto& b = static_cast<const ast::Binary&>(e);
    if (b.op == "OR") {
      return CollectOrOfSubqueries(*b.lhs, leaves) &&
             CollectOrOfSubqueries(*b.rhs, leaves);
    }
  }
  if (IsSubqueryNode(e)) {
    leaves->push_back(&e);
    return true;
  }
  return false;
}

}  // namespace

// Builds QGM boxes from AST queries against one catalog.
class Builder {
 public:
  explicit Builder(const Catalog& catalog, QueryGraph* graph)
      : catalog_(catalog), graph_(graph) {}

  // Builds a Select box for `select`, resolving correlated names through
  // `outer` (may be null). Returns the new box.
  // `allow_hidden_order` permits appending hidden head columns for ORDER BY
  // expressions that are not in the select list (top-level queries only —
  // nested boxes must keep their declared arity). `visible_head` receives
  // the number of user-visible head columns when non-null.
  Result<Box*> BuildSelectBox(const ast::SelectStmt& select,
                              const Scope* outer, const std::string& label,
                              bool allow_hidden_order = false,
                              size_t* visible_head = nullptr);

  Result<Box*> BaseTableBox(const std::string& table_name);

  const Catalog& catalog() const { return catalog_; }
  QueryGraph* graph() { return graph_; }

  // Resolves `qualifier.column` in `scope` (searching outward). Returns the
  // (quant_id, column index) pair.
  Result<std::pair<int, int>> ResolveColumn(const Scope& scope,
                                            const std::string& qualifier,
                                            const std::string& column);

  // Translates an AST expression into a QGM expression. `box` is the box
  // under construction (exists groups are appended to it).
  Result<ExprPtr> TranslateExpr(const ast::Expr& e, const Scope& scope,
                                Box* box);

  // Builds the XNF operator box for `query` (paper Sect. 4.1 phases).
  // A non-empty `prefix` marks an imported sub-view: component names are
  // prefixed and no TAKE processing happens.
  Result<Box*> BuildXnfOperator(const ast::XnfQuery& query,
                                const std::string& prefix);

  // Compiles the stored XNF view `view_name` into this graph (memoized).
  Result<Box*> ImportXnfView(const std::string& view_name);

 private:
  // Handles EXISTS / IN subqueries: builds the subquery box, adds an
  // exists-group to `box`, and returns the literal TRUE placeholder that
  // stands for the (already registered) group in the conjunct list.
  Result<ExprPtr> TranslateExists(const ast::SelectStmt& sub,
                                  const ast::Expr* in_operand, bool negated,
                                  const Scope& scope, Box* box);

  // Expands a FROM item into a quantifier over the right box.
  Result<Binding> BuildFromItem(const ast::TableRef& ref, const Scope* outer,
                                Box* box);

  Status ExpandStar(const std::string& qualifier, const Scope& scope, Box* box);

  const Catalog& catalog_;
  QueryGraph* graph_;
  int view_depth_ = 0;
  // One box per referenced SQL view: several references within one query
  // share the expansion (the Fig. 6 common-subexpression granularity; the
  // planner spools multi-consumer boxes).
  std::map<std::string, Box*> view_cache_;
  // One XNF operator box per imported XNF view (CO composition).
  std::map<std::string, Box*> imported_xnf_;
};

Result<Box*> Builder::BaseTableBox(const std::string& table_name) {
  // Reuse a single base-table box per table (common subexpression at the
  // leaf level; also keeps Fig. 4-style rendering compact).
  for (size_t i = 0; i < graph_->box_count(); ++i) {
    Box* b = graph_->box(static_cast<int>(i));
    if (!graph_->IsDead(b->id) && b->kind == BoxKind::kBaseTable &&
        IdentEquals(b->table_name, table_name)) {
      return b;
    }
  }
  Result<Table*> table = catalog_.GetTable(table_name);
  if (!table.ok()) {
    // Virtual system tables (sys$ views) resolve after base tables; the
    // planner compiles their boxes into VirtualScanOp instead of ScanOp.
    if (const VirtualTableProvider* v = catalog_.GetVirtualTable(table_name)) {
      Box* b = graph_->NewBox(BoxKind::kBaseTable, v->name());
      b->table_name = v->name();
      b->base_schema = v->schema();
      return b;
    }
    return table.status();
  }
  Box* b = graph_->NewBox(BoxKind::kBaseTable, table.value()->name());
  b->table_name = table.value()->name();
  b->base_schema = table.value()->schema();
  b->key_column = catalog_.PrimaryKeyColumn(b->table_name);
  return b;
}

Result<std::pair<int, int>> Builder::ResolveColumn(const Scope& scope,
                                                   const std::string& qualifier,
                                                   const std::string& column) {
  for (const Scope* s = &scope; s != nullptr; s = s->parent) {
    if (!qualifier.empty()) {
      for (const Binding& b : s->bindings) {
        if (!IdentEquals(b.name, qualifier)) continue;
        const Box* ranged = graph_->RangedBox(b.quant_id);
        if (ranged == nullptr) {
          return Status::Internal("binding without ranged box");
        }
        for (size_t i = 0; i < ranged->HeadArity(); ++i) {
          if (IdentEquals(ranged->HeadName(i), column)) {
            return std::make_pair(b.quant_id, static_cast<int>(i));
          }
        }
        return Status::SemanticError("column '" + column +
                                     "' not found in range variable '" +
                                     qualifier + "'");
      }
      continue;  // qualifier not in this scope level; look outward
    }
    // Unqualified: must be unique within this scope level.
    int found_q = -1, found_c = -1;
    for (const Binding& b : s->bindings) {
      const Box* ranged = graph_->RangedBox(b.quant_id);
      if (ranged == nullptr) continue;
      for (size_t i = 0; i < ranged->HeadArity(); ++i) {
        if (IdentEquals(ranged->HeadName(i), column)) {
          if (found_q >= 0) {
            return Status::SemanticError("column '" + column +
                                         "' is ambiguous");
          }
          found_q = b.quant_id;
          found_c = static_cast<int>(i);
        }
      }
    }
    if (found_q >= 0) return std::make_pair(found_q, found_c);
  }
  return Status::SemanticError(
      "column '" + (qualifier.empty() ? column : qualifier + "." + column) +
      "' cannot be resolved");
}

Result<Binding> Builder::BuildFromItem(const ast::TableRef& ref,
                                       const Scope* outer, Box* box) {
  Box* ranged = nullptr;
  if (ref.subquery != nullptr) {
    XNFDB_ASSIGN_OR_RETURN(ranged,
                           BuildSelectBox(*ref.subquery, outer, ref.alias));
  } else if (catalog_.HasView(ref.table)) {
    XNFDB_ASSIGN_OR_RETURN(const ViewDef* view, catalog_.GetView(ref.table));
    if (view->is_xnf) {
      return Status::SemanticError(
          "XNF view " + view->name +
          " cannot be used as a plain table; query it with OUT OF / the "
          "XNF API");
    }
    auto cached = view_cache_.find(view->name);
    if (cached != view_cache_.end()) {
      ranged = cached->second;
    } else {
      if (++view_depth_ > 16) {
        return Status::SemanticError("view expansion too deep (cycle?)");
      }
      XNFDB_ASSIGN_OR_RETURN(std::unique_ptr<ast::SelectStmt> parsed,
                             ParseSelectQuery(view->definition));
      XNFDB_ASSIGN_OR_RETURN(ranged, BuildSelectBox(*parsed, nullptr,
                                                    ToUpperIdent(ref.table)));
      --view_depth_;
      view_cache_[view->name] = ranged;
    }
  } else {
    XNFDB_ASSIGN_OR_RETURN(ranged, BaseTableBox(ref.table));
  }
  Binding binding;
  binding.name = ToUpperIdent(ref.BindingName());
  binding.quant_id = AddQuant(graph_, box, QuantKind::kForeach, ranged->id,
                              binding.name);
  return binding;
}

Status Builder::ExpandStar(const std::string& qualifier, const Scope& scope,
                           Box* box) {
  bool matched = false;
  for (const Binding& b : scope.bindings) {
    if (!qualifier.empty() && !IdentEquals(b.name, qualifier)) continue;
    matched = true;
    const Box* ranged = graph_->RangedBox(b.quant_id);
    for (size_t i = 0; i < ranged->HeadArity(); ++i) {
      HeadColumn h;
      h.name = ranged->HeadName(i);
      h.expr = Expr::MakeColRef(b.quant_id, static_cast<int>(i));
      box->head.push_back(std::move(h));
    }
  }
  if (!matched) {
    return Status::SemanticError("range variable '" + qualifier +
                                 "' not found for '*' expansion");
  }
  return Status::Ok();
}

Result<ExprPtr> Builder::TranslateExists(const ast::SelectStmt& sub,
                                         const ast::Expr* in_operand,
                                         bool negated, const Scope& scope,
                                         Box* box) {
  // `negated` yields an anti-group (NOT EXISTS / NOT IN). A NOT IN group is
  // null-aware, as SQL's three-valued logic has it: `x NOT IN (set)` is
  // unknown when x is NULL and the set is not empty, or when the set holds
  // a NULL and not x.
  // Constructs the subquery does not support are rejected explicitly
  // rather than silently dropped.
  if (sub.union_next != nullptr) {
    return Status::Unsupported("UNION inside an EXISTS/IN subquery");
  }
  if (!sub.group_by.empty() || sub.having != nullptr) {
    return Status::Unsupported(
        "GROUP BY/HAVING inside an EXISTS/IN subquery");
  }
  if (sub.limit >= 0 || sub.offset > 0) {
    return Status::Unsupported("LIMIT inside an EXISTS/IN subquery");
  }
  // Build the subquery's box with its own scope chained to the outer one.
  Box* sub_box = graph_->NewBox(BoxKind::kSelect, "subquery");
  Scope inner;
  inner.parent = &scope;
  for (const ast::TableRef& ref : sub.from) {
    XNFDB_ASSIGN_OR_RETURN(Binding b, BuildFromItem(ref, &scope, sub_box));
    inner.bindings.push_back(std::move(b));
  }
  std::set<int> inner_quants;
  for (const Binding& b : inner.bindings) inner_quants.insert(b.quant_id);

  // Conjuncts referencing only inner quantifiers stay in the subquery box;
  // correlated conjuncts move to the outer exists-group with inner column
  // references rerouted through the subquery head.
  std::vector<ExprPtr> local, correlated;
  if (sub.where != nullptr) {
    // Nested subqueries are allowed only in conjunct position (they become
    // conjunctive groups of the subquery box via TranslateExpr below).
    std::vector<const ast::Expr*> sub_conjuncts;
    SplitAstConjuncts(sub.where.get(), &sub_conjuncts);
    for (const ast::Expr* c : sub_conjuncts) {
      if (ContainsSubquery(*c) && !IsSubqueryNode(*c)) {
        return Status::Unsupported(
            "subquery nested inside an expression: " + c->ToString());
      }
    }
    XNFDB_ASSIGN_OR_RETURN(ExprPtr w,
                           TranslateExpr(*sub.where, inner, sub_box));
    std::vector<ExprPtr> conjuncts;
    qgm::SplitConjuncts(std::move(w), &conjuncts);
    for (ExprPtr& c : conjuncts) {
      std::vector<int> used;
      c->CollectQuants(&used);
      bool is_local = true;
      for (int q : used) {
        if (inner_quants.count(q) == 0) is_local = false;
      }
      (is_local ? local : correlated).push_back(std::move(c));
    }
  }
  for (ExprPtr& c : local) sub_box->preds.push_back(std::move(c));

  // The subquery head exposes every inner column the correlated predicates
  // (and the IN operand comparison) need.
  //
  // (inner quant, column) -> head index
  std::map<std::pair<int, int>, int> exposed;
  auto expose = [&](int q, int col) -> int {
    auto key = std::make_pair(q, col);
    auto it = exposed.find(key);
    if (it != exposed.end()) return it->second;
    HeadColumn h;
    const Box* ranged = graph_->RangedBox(q);
    h.name = ranged != nullptr ? ranged->HeadName(col)
                               : "C" + std::to_string(col);
    h.expr = Expr::MakeColRef(q, col);
    sub_box->head.push_back(std::move(h));
    int idx = static_cast<int>(sub_box->head.size()) - 1;
    exposed[key] = idx;
    return idx;
  };

  int in_head_col = -1;
  if (in_operand != nullptr) {
    // `x IN (SELECT item FROM ...)`: expose the single select item.
    if (sub.items.size() != 1 || sub.items[0].is_star) {
      return Status::SemanticError(
          "IN subquery must have exactly one select item");
    }
    XNFDB_ASSIGN_OR_RETURN(ExprPtr item,
                           TranslateExpr(*sub.items[0].expr, inner, sub_box));
    HeadColumn h;
    h.name = "IN_ITEM";
    h.expr = std::move(item);
    sub_box->head.push_back(std::move(h));
    in_head_col = static_cast<int>(sub_box->head.size()) - 1;
  }

  // Reroute correlated predicates: inner-quant colrefs become colrefs to the
  // new E-quantifier over sub_box.
  ExistsGroup group;
  group.negated = negated;
  group.null_aware = negated && in_operand != nullptr;
  int equant =
      AddQuant(graph_, box, QuantKind::kExists, sub_box->id, "exists");
  // AddQuant appends as a plain quantifier; move it into the group.
  box->quants.back().kind = QuantKind::kExists;
  group.quant_ids.push_back(equant);

  // Rewrites colrefs of inner quants inside `e` to go through sub_box head.
  std::function<Status(Expr*)> reroute = [&](Expr* e) -> Status {
    if (e->kind == Expr::Kind::kColRef && inner_quants.count(e->quant_id)) {
      int head_idx = expose(e->quant_id, e->column);
      e->quant_id = equant;
      e->column = head_idx;
      return Status::Ok();
    }
    if (e->lhs) XNFDB_RETURN_IF_ERROR(reroute(e->lhs.get()));
    if (e->rhs) XNFDB_RETURN_IF_ERROR(reroute(e->rhs.get()));
    return Status::Ok();
  };
  for (ExprPtr& c : correlated) {
    XNFDB_RETURN_IF_ERROR(reroute(c.get()));
    group.preds.push_back(std::move(c));
  }
  if (in_operand != nullptr) {
    XNFDB_ASSIGN_OR_RETURN(ExprPtr op_expr,
                           TranslateExpr(*in_operand, scope, box));
    group.preds.push_back(Expr::MakeBinary(
        "=", std::move(op_expr), Expr::MakeColRef(equant, in_head_col)));
  }
  // A subquery without head columns still needs one for execution.
  if (sub_box->head.empty()) {
    HeadColumn h;
    h.name = "ONE";
    h.expr = Expr::MakeLiteral(Value(static_cast<int64_t>(1)));
    sub_box->head.push_back(std::move(h));
  }
  box->exists_groups.push_back(std::move(group));
  // The conjunct itself is absorbed into the group; stand in with TRUE.
  return Expr::MakeLiteral(Value(true));
}

Result<ExprPtr> Builder::TranslateExpr(const ast::Expr& e, const Scope& scope,
                                       Box* box) {
  switch (e.kind) {
    case ast::Expr::Kind::kLiteral:
      return Expr::MakeLiteral(static_cast<const ast::Literal&>(e).value);
    case ast::Expr::Kind::kColumnRef: {
      const auto& c = static_cast<const ast::ColumnRef&>(e);
      XNFDB_ASSIGN_OR_RETURN(auto resolved,
                             ResolveColumn(scope, c.qualifier, c.column));
      return Expr::MakeColRef(resolved.first, resolved.second);
    }
    case ast::Expr::Kind::kBinary: {
      const auto& b = static_cast<const ast::Binary&>(e);
      XNFDB_ASSIGN_OR_RETURN(ExprPtr lhs, TranslateExpr(*b.lhs, scope, box));
      XNFDB_ASSIGN_OR_RETURN(ExprPtr rhs, TranslateExpr(*b.rhs, scope, box));
      return Expr::MakeBinary(b.op, std::move(lhs), std::move(rhs));
    }
    case ast::Expr::Kind::kUnary: {
      const auto& u = static_cast<const ast::Unary&>(e);
      XNFDB_ASSIGN_OR_RETURN(ExprPtr operand,
                             TranslateExpr(*u.operand, scope, box));
      return Expr::MakeUnary(u.op, std::move(operand));
    }
    case ast::Expr::Kind::kExists: {
      const auto& x = static_cast<const ast::Exists&>(e);
      return TranslateExists(*x.subquery, nullptr, false, scope, box);
    }
    case ast::Expr::Kind::kInSubquery: {
      const auto& in = static_cast<const ast::InSubquery&>(e);
      return TranslateExists(*in.subquery, in.operand.get(), in.negated,
                             scope, box);
    }
    case ast::Expr::Kind::kLike: {
      const auto& l = static_cast<const ast::Like&>(e);
      XNFDB_ASSIGN_OR_RETURN(ExprPtr operand,
                             TranslateExpr(*l.operand, scope, box));
      return Expr::MakeLike(std::move(operand), l.pattern, l.negated);
    }
    case ast::Expr::Kind::kFuncCall: {
      const auto& f = static_cast<const ast::FuncCall&>(e);
      std::vector<ExprPtr> args;
      for (const ast::ExprPtr& a : f.args) {
        XNFDB_ASSIGN_OR_RETURN(ExprPtr arg, TranslateExpr(*a, scope, box));
        args.push_back(std::move(arg));
      }
      if (f.name == "COUNT" || f.name == "SUM" || f.name == "MIN" ||
          f.name == "MAX" || f.name == "AVG") {
        if (args.size() > 1) {
          return Status::SemanticError(f.name + " takes one argument");
        }
        return Expr::MakeAgg(
            f.name, args.empty() ? nullptr : std::move(args[0]));
      }
      // Scalar functions.
      static const std::map<std::string, int> kScalarArity = {
          {"UPPER", 1}, {"LOWER", 1}, {"LENGTH", 1}, {"ABS", 1},
          {"ROUND", 1}, {"MOD", 2},   {"CONCAT", 2},
      };
      auto it = kScalarArity.find(f.name);
      if (it == kScalarArity.end()) {
        return Status::SemanticError("unknown function " + f.name);
      }
      if (static_cast<int>(args.size()) != it->second) {
        return Status::SemanticError(f.name + " takes " +
                                     std::to_string(it->second) +
                                     " argument(s)");
      }
      return Expr::MakeFunc(f.name, std::move(args[0]),
                            args.size() > 1 ? std::move(args[1]) : nullptr);
    }
  }
  return Status::Internal("unknown AST expression kind");
}


Result<Box*> Builder::BuildSelectBox(const ast::SelectStmt& select,
                                     const Scope* outer,
                                     const std::string& label,
                                     bool allow_hidden_order,
                                     size_t* visible_head) {
  // UNION chain: build each member box, combine under a Union box, and
  // wrap in an identity Select carrying the chain's ORDER BY / LIMIT.
  // Members keep set semantics unless *every* link is UNION ALL.
  if (select.union_next != nullptr) {
    if (outer != nullptr) {
      return Status::Unsupported("UNION inside a correlated subquery");
    }
    bool all_links_all = true;
    std::vector<int> inputs;
    for (const ast::SelectStmt* member = &select; member != nullptr;
         member = member->union_next.get()) {
      if (member->union_next != nullptr && !member->union_all) {
        all_links_all = false;
      }
      std::unique_ptr<ast::SelectStmt> clone = ast::CloneSelect(*member);
      clone->union_next = nullptr;
      clone->order_by.clear();
      clone->limit = -1;
      clone->offset = 0;
      XNFDB_ASSIGN_OR_RETURN(Box * m,
                             BuildSelectBox(*clone, nullptr, label));
      inputs.push_back(m->id);
    }
    Box* u = graph_->NewBox(BoxKind::kUnion, label);
    u->union_inputs = inputs;
    u->distinct = !all_links_all;
    const Box* first = graph_->box(inputs[0]);
    for (size_t m = 1; m < inputs.size(); ++m) {
      if (graph_->box(inputs[m])->HeadArity() != first->HeadArity()) {
        return Status::SemanticError(
            "UNION members must have the same number of columns");
      }
    }
    for (size_t i = 0; i < first->HeadArity(); ++i) {
      HeadColumn h;
      h.name = first->HeadName(i);
      u->head.push_back(std::move(h));
    }
    Box* wrapper = graph_->NewBox(BoxKind::kSelect, label);
    int uq = AddQuant(graph_, wrapper, QuantKind::kForeach, u->id,
                      ToUpperIdent(label.empty() ? "U" : label));
    for (size_t i = 0; i < first->HeadArity(); ++i) {
      HeadColumn h;
      h.name = first->HeadName(i);
      h.expr = Expr::MakeColRef(uq, static_cast<int>(i));
      wrapper->head.push_back(std::move(h));
    }
    if (visible_head != nullptr) *visible_head = wrapper->head.size();
    for (const ast::OrderItem& o : select.order_by) {
      int idx = -1;
      if (o.expr->kind == ast::Expr::Kind::kLiteral) {
        const Value& v = static_cast<const ast::Literal&>(*o.expr).value;
        if (v.type() == DataType::kInt) idx = static_cast<int>(v.AsInt()) - 1;
      } else if (o.expr->kind == ast::Expr::Kind::kColumnRef) {
        const auto& cr = static_cast<const ast::ColumnRef&>(*o.expr);
        if (cr.qualifier.empty()) {
          for (size_t i = 0; i < wrapper->head.size(); ++i) {
            if (IdentEquals(wrapper->head[i].name, cr.column)) {
              idx = static_cast<int>(i);
              break;
            }
          }
        }
      }
      if (idx < 0 || static_cast<size_t>(idx) >= wrapper->head.size()) {
        return Status::SemanticError(
            "ORDER BY of a UNION must name an output column");
      }
      wrapper->order_by.emplace_back(idx, o.descending);
    }
    wrapper->limit = select.limit;
    wrapper->offset = select.offset;
    return wrapper;
  }

  Box* box = graph_->NewBox(BoxKind::kSelect, label);
  Scope scope;
  scope.parent = outer;
  for (const ast::TableRef& ref : select.from) {
    // Duplicate binding names are a semantic error.
    for (const Binding& b : scope.bindings) {
      if (IdentEquals(b.name, ref.BindingName())) {
        return Status::SemanticError("duplicate range variable '" +
                                     ref.BindingName() + "'");
      }
    }
    XNFDB_ASSIGN_OR_RETURN(Binding b, BuildFromItem(ref, outer, box));
    scope.bindings.push_back(std::move(b));
  }

  if (select.where != nullptr) {
    // EXISTS/IN subqueries are only representable at conjunct level (each
    // becomes an existential group of the box) or as one conjunct that is
    // an OR of subqueries (disjunctive groups, the reachability shape of
    // Sect. 4.2). Anywhere else their semantics cannot be expressed by the
    // box model, so they are rejected rather than silently mis-evaluated.
    std::vector<const ast::Expr*> conjuncts;
    SplitAstConjuncts(select.where.get(), &conjuncts);
    bool has_conjunctive_group = false;
    bool has_disjunctive_group = false;
    for (const ast::Expr* c : conjuncts) {
      if (c->kind == ast::Expr::Kind::kExists) {
        const auto& x = static_cast<const ast::Exists&>(*c);
        XNFDB_RETURN_IF_ERROR(
            TranslateExists(*x.subquery, nullptr, false, scope, box)
                .status());
        has_conjunctive_group = true;
        continue;
      }
      if (c->kind == ast::Expr::Kind::kInSubquery) {
        const auto& in = static_cast<const ast::InSubquery&>(*c);
        XNFDB_RETURN_IF_ERROR(
            TranslateExists(*in.subquery, in.operand.get(), in.negated,
                            scope, box)
                .status());
        has_conjunctive_group = true;
        continue;
      }
      // NOT EXISTS (...) / NOT (x IN (...)) as a conjunct: an anti-group.
      if (c->kind == ast::Expr::Kind::kUnary &&
          static_cast<const ast::Unary&>(*c).op == "NOT" &&
          IsSubqueryNode(*static_cast<const ast::Unary&>(*c).operand)) {
        const ast::Expr& inner = *static_cast<const ast::Unary&>(*c).operand;
        if (inner.kind == ast::Expr::Kind::kExists) {
          const auto& x = static_cast<const ast::Exists&>(inner);
          XNFDB_RETURN_IF_ERROR(
              TranslateExists(*x.subquery, nullptr, true, scope, box)
                  .status());
        } else {
          const auto& in = static_cast<const ast::InSubquery&>(inner);
          XNFDB_RETURN_IF_ERROR(
              TranslateExists(*in.subquery, in.operand.get(), !in.negated,
                              scope, box)
                  .status());
        }
        has_conjunctive_group = true;
        continue;
      }
      std::vector<const ast::Expr*> or_leaves;
      if (c->kind == ast::Expr::Kind::kBinary &&
          static_cast<const ast::Binary&>(*c).op == "OR" &&
          CollectOrOfSubqueries(*c, &or_leaves)) {
        for (const ast::Expr* leaf : or_leaves) {
          if (leaf->kind == ast::Expr::Kind::kExists) {
            const auto& x = static_cast<const ast::Exists&>(*leaf);
            XNFDB_RETURN_IF_ERROR(
                TranslateExists(*x.subquery, nullptr, false, scope, box)
                    .status());
          } else {
            const auto& in = static_cast<const ast::InSubquery&>(*leaf);
            XNFDB_RETURN_IF_ERROR(
                TranslateExists(*in.subquery, in.operand.get(), in.negated,
                                scope, box)
                    .status());
          }
        }
        has_disjunctive_group = true;
        continue;
      }
      if (ContainsSubquery(*c)) {
        return Status::Unsupported(
            "EXISTS/IN subqueries must appear as top-level conjuncts (or a "
            "single OR of subqueries): " +
            c->ToString());
      }
      XNFDB_ASSIGN_OR_RETURN(ExprPtr pred, TranslateExpr(*c, scope, box));
      box->preds.push_back(std::move(pred));
    }
    if (has_conjunctive_group && has_disjunctive_group) {
      return Status::Unsupported(
          "mixing conjunctive EXISTS with OR-of-EXISTS in one WHERE clause");
    }
    box->groups_disjunctive = has_disjunctive_group;
  }

  // Select list.
  for (const ast::SelectItem& item : select.items) {
    if (item.is_star) {
      XNFDB_RETURN_IF_ERROR(ExpandStar(item.star_qualifier, scope, box));
      continue;
    }
    XNFDB_ASSIGN_OR_RETURN(ExprPtr ex, TranslateExpr(*item.expr, scope, box));
    HeadColumn h;
    if (!item.alias.empty()) {
      h.name = ToUpperIdent(item.alias);
    } else if (item.expr->kind == ast::Expr::Kind::kColumnRef) {
      h.name = ToUpperIdent(
          static_cast<const ast::ColumnRef&>(*item.expr).column);
    } else {
      h.name = "C" + std::to_string(box->head.size());
    }
    h.expr = std::move(ex);
    box->head.push_back(std::move(h));
  }

  box->distinct = select.distinct;

  // Grouping / aggregation.
  for (const ast::ExprPtr& g : select.group_by) {
    XNFDB_ASSIGN_OR_RETURN(ExprPtr ex, TranslateExpr(*g, scope, box));
    box->group_by.push_back(std::move(ex));
  }
  bool has_agg = false;
  for (const HeadColumn& h : box->head) {
    if (h.expr && ContainsAgg(*h.expr)) has_agg = true;
  }
  if (has_agg || !box->group_by.empty()) {
    // Validate the restricted aggregate form: every head column is either a
    // bare aggregate or (deep-)equal to a grouping expression. We check only
    // the shallow condition (bare agg or colref also in group_by).
    for (const HeadColumn& h : box->head) {
      if (h.expr->kind == Expr::Kind::kAgg) continue;
      if (ContainsAgg(*h.expr)) {
        return Status::Unsupported(
            "aggregates nested inside expressions (use a bare aggregate)");
      }
      if (box->group_by.empty()) {
        return Status::SemanticError(
            "mixing aggregates and plain columns requires GROUP BY");
      }
    }
  }

  bool is_agg_query = has_agg || !box->group_by.empty();

  // HAVING: post-aggregation filtering (a wrapper box over the aggregating
  // box; its predicates may reference grouped output columns by name and
  // aggregates — matching select-list aggregates are reused, others become
  // hidden aggregate columns of the inner box).
  if (select.having != nullptr) {
    if (!is_agg_query) {
      return Status::SemanticError(
          "HAVING requires GROUP BY or aggregates");
    }
    Box* inner = box;
    Box* wrapper = graph_->NewBox(BoxKind::kSelect, label);
    int hq = AddQuant(graph_, wrapper, QuantKind::kForeach, inner->id,
                      ToUpperIdent(label.empty() ? "AGG" : label));
    size_t visible_cols = inner->head.size();
    for (size_t i = 0; i < visible_cols; ++i) {
      HeadColumn h;
      h.name = inner->head[i].name;
      h.expr = Expr::MakeColRef(hq, static_cast<int>(i));
      wrapper->head.push_back(std::move(h));
    }
    std::function<Result<ExprPtr>(const ast::Expr&)> translate_having =
        [&](const ast::Expr& e) -> Result<ExprPtr> {
      switch (e.kind) {
        case ast::Expr::Kind::kLiteral:
          return Expr::MakeLiteral(static_cast<const ast::Literal&>(e).value);
        case ast::Expr::Kind::kColumnRef: {
          const auto& c = static_cast<const ast::ColumnRef&>(e);
          for (size_t i = 0; i < visible_cols; ++i) {
            if (IdentEquals(inner->head[i].name, c.column)) {
              return Expr::MakeColRef(hq, static_cast<int>(i));
            }
          }
          return Status::SemanticError(
              "HAVING column '" + c.column +
              "' must name a grouped output column");
        }
        case ast::Expr::Kind::kBinary: {
          const auto& b = static_cast<const ast::Binary&>(e);
          XNFDB_ASSIGN_OR_RETURN(ExprPtr lhs, translate_having(*b.lhs));
          XNFDB_ASSIGN_OR_RETURN(ExprPtr rhs, translate_having(*b.rhs));
          return Expr::MakeBinary(b.op, std::move(lhs), std::move(rhs));
        }
        case ast::Expr::Kind::kUnary: {
          const auto& u = static_cast<const ast::Unary&>(e);
          XNFDB_ASSIGN_OR_RETURN(ExprPtr operand,
                                 translate_having(*u.operand));
          return Expr::MakeUnary(u.op, std::move(operand));
        }
        case ast::Expr::Kind::kLike: {
          const auto& l = static_cast<const ast::Like&>(e);
          XNFDB_ASSIGN_OR_RETURN(ExprPtr operand,
                                 translate_having(*l.operand));
          return Expr::MakeLike(std::move(operand), l.pattern, l.negated);
        }
        case ast::Expr::Kind::kFuncCall: {
          // Aggregates resolve against (or extend) the inner head; their
          // arguments live in the FROM scope of the inner box.
          XNFDB_ASSIGN_OR_RETURN(ExprPtr translated,
                                 TranslateExpr(e, scope, inner));
          if (translated->kind != Expr::Kind::kAgg) {
            return Status::Unsupported(
                "scalar functions of grouped columns in HAVING");
          }
          std::string rendered = translated->ToString(graph_);
          for (size_t i = 0; i < inner->head.size(); ++i) {
            if (inner->head[i].expr != nullptr &&
                inner->head[i].expr->kind == Expr::Kind::kAgg &&
                inner->head[i].expr->ToString(graph_) == rendered) {
              return Expr::MakeColRef(hq, static_cast<int>(i));
            }
          }
          HeadColumn hidden;
          hidden.name = "$HAV" + std::to_string(inner->head.size());
          hidden.expr = std::move(translated);
          inner->head.push_back(std::move(hidden));
          return Expr::MakeColRef(hq,
                                  static_cast<int>(inner->head.size()) - 1);
        }
        default:
          return Status::Unsupported("subquery in HAVING");
      }
    };
    XNFDB_ASSIGN_OR_RETURN(ExprPtr having,
                           translate_having(*select.having));
    qgm::SplitConjuncts(std::move(having), &wrapper->preds);
    box = wrapper;
  }

  // ORDER BY: resolve to head column positions. Expressions that do not
  // name a select-list column are appended as hidden head columns (only at
  // the top level, where the Top output projection hides them again).
  size_t visible = box->head.size();
  if (visible_head != nullptr) *visible_head = visible;
  for (const ast::OrderItem& o : select.order_by) {
    int idx = -1;
    if (o.expr->kind == ast::Expr::Kind::kLiteral) {
      const Value& v = static_cast<const ast::Literal&>(*o.expr).value;
      if (v.type() == DataType::kInt) idx = static_cast<int>(v.AsInt()) - 1;
      if (idx < 0 || static_cast<size_t>(idx) >= visible) {
        return Status::SemanticError("ORDER BY ordinal out of range");
      }
    } else if (o.expr->kind == ast::Expr::Kind::kColumnRef) {
      const auto& c = static_cast<const ast::ColumnRef&>(*o.expr);
      if (c.qualifier.empty()) {
        for (size_t i = 0; i < visible; ++i) {
          if (IdentEquals(box->head[i].name, c.column)) {
            idx = static_cast<int>(i);
            break;
          }
        }
      }
    }
    if (idx < 0) {
      if (!allow_hidden_order) {
        return Status::SemanticError(
            "ORDER BY item must name a select-list column");
      }
      if (is_agg_query || box->distinct) {
        return Status::Unsupported(
            "ORDER BY on a non-output column of a grouped/DISTINCT query");
      }
      XNFDB_ASSIGN_OR_RETURN(ExprPtr ex, TranslateExpr(*o.expr, scope, box));
      HeadColumn h;
      h.name = "$ORD" + std::to_string(box->head.size());
      h.expr = std::move(ex);
      box->head.push_back(std::move(h));
      idx = static_cast<int>(box->head.size()) - 1;
    }
    box->order_by.emplace_back(idx, o.descending);
  }
  box->limit = select.limit;
  box->offset = select.offset;

  return box;
}

}  // namespace

Result<std::unique_ptr<qgm::QueryGraph>> BuildSelect(
    const Catalog& catalog, const ast::SelectStmt& select) {
  auto graph = std::make_unique<QueryGraph>();
  Builder builder(catalog, graph.get());
  size_t visible_head = 0;
  XNFDB_ASSIGN_OR_RETURN(
      Box * body, builder.BuildSelectBox(select, nullptr, "query",
                                         /*allow_hidden_order=*/true,
                                         &visible_head));
  Box* top = graph->NewBox(BoxKind::kTop, "Top");
  qgm::TopOutput out;
  out.name = "RESULT";
  out.box_id = body->id;
  // Hidden ORDER BY columns are projected away at the Top.
  if (visible_head != body->head.size()) {
    for (size_t i = 0; i < visible_head; ++i) {
      out.cols.push_back(static_cast<int>(i));
    }
  }
  top->outputs.push_back(std::move(out));
  graph->set_top_box_id(top->id);
  XNFDB_RETURN_IF_ERROR(graph->Validate());
  return graph;
}

Result<Box*> Builder::BuildXnfOperator(const ast::XnfQuery& query,
                                       const std::string& prefix) {
  // Phase 0: install the XNF operator box.
  Box* xnf = graph_->NewBox(BoxKind::kXnf,
                            prefix.empty() ? "XNF" : "XNF " + prefix);

  // Phase 1a: component tables.
  for (const ast::XnfDef& def : query.defs) {
    if (def.kind != ast::XnfDef::Kind::kTable) continue;
    std::string name = prefix + ToUpperIdent(def.name);
    if (xnf->FindComponent(name) != nullptr) {
      return Status::SemanticError("duplicate XNF component '" + name + "'");
    }
    XnfComponent comp;
    comp.name = name;
    comp.is_relationship = false;
    Box* body = nullptr;
    if (def.select != nullptr) {
      XNFDB_ASSIGN_OR_RETURN(body,
                             BuildSelectBox(*def.select, nullptr, name));
    } else if (!def.view_ref.empty()) {
      // CO composition (closure property, Sect. 2): the candidates of this
      // component are the extent of a component of another XNF view. The
      // referenced view is compiled into this very graph (once per view);
      // an identity wrapper box stands in for its final derivation, which
      // the XNF semantic rewrite wires up after processing the import.
      XNFDB_ASSIGN_OR_RETURN(
          Box * import_xnf,
          ImportXnfView(def.view_ref));
      std::string target =
          ToUpperIdent(def.view_ref) + "$" + ToUpperIdent(def.view_component);
      const XnfComponent* imported = import_xnf->FindComponent(target);
      if (imported == nullptr || imported->is_relationship) {
        return Status::SemanticError(
            "XNF view " + def.view_ref + " has no component table '" +
            def.view_component + "'");
      }
      const Box* cand = graph_->box(imported->box_id);
      body = graph_->NewBox(BoxKind::kSelect, name);
      int q = AddQuant(graph_, body, QuantKind::kForeach, cand->id,
                       target);
      for (size_t i = 0; i < cand->HeadArity(); ++i) {
        HeadColumn h;
        h.name = cand->HeadName(i);
        h.expr = Expr::MakeColRef(q, static_cast<int>(i));
        body->head.push_back(std::move(h));
      }
      comp.import_xnf_box = import_xnf->id;
      comp.import_component = target;
    } else {
      // Shortcut `xemp AS EMP`: identity select over the base table.
      XNFDB_ASSIGN_OR_RETURN(Box * base, BaseTableBox(def.base_table));
      body = graph_->NewBox(BoxKind::kSelect, name);
      int q = AddQuant(graph_, body, QuantKind::kForeach, base->id,
                       ToUpperIdent(def.base_table));
      for (size_t i = 0; i < base->HeadArity(); ++i) {
        HeadColumn h;
        h.name = base->HeadName(i);
        h.expr = Expr::MakeColRef(q, static_cast<int>(i));
        body->head.push_back(std::move(h));
      }
    }
    comp.box_id = body->id;
    xnf->components.push_back(std::move(comp));
  }

  // Phase 1b: relationships. Partner components must exist by now.
  for (const ast::XnfDef& def : query.defs) {
    if (def.kind != ast::XnfDef::Kind::kRelationship) continue;
    if (def.free_reachability) {
      return Status::SemanticError(
          "FREE applies to component tables, not relationships ('" +
          def.name + "')");
    }
    std::string name = prefix + ToUpperIdent(def.name);
    if (xnf->FindComponent(name) != nullptr) {
      return Status::SemanticError("duplicate XNF component '" + name + "'");
    }
    const ast::RelateDef& rel = def.relate;

    Box* body = graph_->NewBox(BoxKind::kSelect, name);
    Scope scope;
    std::vector<int> partner_quants;  // parent first, then children

    auto bind_component =
        [&](const std::string& comp_name,
            const std::string& binding_name,
            const std::string& extra_name) -> Status {
      const XnfComponent* comp =
          xnf->FindComponent(prefix + ToUpperIdent(comp_name));
      if (comp == nullptr) {
        return Status::SemanticError("relationship '" + name +
                                     "' references unknown component '" +
                                     comp_name + "'");
      }
      if (comp->is_relationship) {
        return Status::SemanticError("relationship '" + name +
                                     "' cannot have relationship '" +
                                     comp_name + "' as a partner");
      }
      int q = AddQuant(graph_, body, QuantKind::kForeach, comp->box_id,
                       ToUpperIdent(binding_name));
      partner_quants.push_back(q);
      Binding b;
      b.name = ToUpperIdent(binding_name);
      b.quant_id = q;
      scope.bindings.push_back(b);
      if (!extra_name.empty() && !IdentEquals(extra_name, binding_name)) {
        Binding role_binding;
        role_binding.name = ToUpperIdent(extra_name);
        role_binding.quant_id = q;
        scope.bindings.push_back(role_binding);
      }
      return Status::Ok();
    };

    XnfComponent comp;
    comp.name = name;
    comp.is_relationship = true;
    comp.parent = prefix + ToUpperIdent(rel.parent);
    comp.role = ToUpperIdent(rel.role);
    // In a self-relationship (recursive CO, e.g. RELATE XPART VIA HAS,
    // XPART), the parent is addressable only through its role name and the
    // bare component name denotes the child.
    bool self_rel = false;
    for (const std::string& child : rel.children) {
      if (IdentEquals(child, rel.parent)) self_rel = true;
    }
    if (self_rel && rel.role.empty()) {
      return Status::SemanticError(
          "self-relationship '" + name +
          "' requires a VIA role name to address the parent");
    }
    // Parent partner: bound under its component name and its role name
    // (component name is skipped for self-relationships).
    XNFDB_RETURN_IF_ERROR(bind_component(
        rel.parent, self_rel ? rel.role : rel.parent,
        self_rel ? "" : rel.role));
    for (const std::string& child : rel.children) {
      XNFDB_RETURN_IF_ERROR(bind_component(child, child, ""));
      comp.children.push_back(prefix + ToUpperIdent(child));
    }
    // USING tables join in as additional F-quantifiers (not partners).
    for (const ast::TableRef& u : rel.using_tables) {
      XNFDB_ASSIGN_OR_RETURN(Box * base, BaseTableBox(u.table));
      int q = AddQuant(graph_, body, QuantKind::kForeach, base->id,
                       ToUpperIdent(u.BindingName()));
      Binding b;
      b.name = ToUpperIdent(u.BindingName());
      b.quant_id = q;
      scope.bindings.push_back(b);
    }
    if (rel.where != nullptr) {
      XNFDB_ASSIGN_OR_RETURN(ExprPtr where,
                             TranslateExpr(*rel.where, scope, body));
      qgm::SplitConjuncts(std::move(where), &body->preds);
    }
    // The relationship head: all partner columns, parent first (the
    // connection tuple of Sect. 4.1 "shows the foreign keys of the partner
    // tuples it references" — we carry full partner rows for tid lookup).
    std::vector<std::string> partners;
    partners.push_back(comp.parent);
    for (const std::string& c : comp.children) partners.push_back(c);
    for (size_t pi = 0; pi < partners.size(); ++pi) {
      int q = partner_quants[pi];
      const Box* ranged = graph_->RangedBox(q);
      for (size_t i = 0; i < ranged->HeadArity(); ++i) {
        HeadColumn h;
        h.name = partners[pi] + "." + ranged->HeadName(i);
        h.expr = Expr::MakeColRef(q, static_cast<int>(i));
        body->head.push_back(std::move(h));
      }
    }
    comp.box_id = body->id;
    xnf->components.push_back(std::move(comp));
  }

  // Phase 2: reachability marks and roots. A FREE component keeps its full
  // candidate extent (the fine-grained reachability predicate of Sect. 4.1).
  for (XnfComponent& c : xnf->components) {
    if (c.is_relationship) continue;
    bool is_child = false;
    for (const XnfComponent& r : xnf->components) {
      if (!r.is_relationship) continue;
      for (const std::string& child : r.children) {
        if (IdentEquals(child, c.name)) is_child = true;
      }
    }
    c.is_root = !is_child;
    c.reachable = is_child;  // default semantics: all non-roots reachable
    for (const ast::XnfDef& def : query.defs) {
      if (def.kind == ast::XnfDef::Kind::kTable && def.free_reachability &&
          IdentEquals(prefix + ToUpperIdent(def.name), c.name)) {
        c.reachable = false;
      }
    }
  }

  // Phase 3: TAKE projection (the outermost query only; imported sub-views
  // are inputs and produce no output streams of their own).
  if (!prefix.empty()) return xnf;
  if (query.take_all) {
    for (XnfComponent& c : xnf->components) c.taken = true;
  } else {
    for (const ast::TakeItem& item : query.take) {
      XnfComponent* c = xnf->FindComponent(ToUpperIdent(item.name));
      if (c == nullptr) {
        return Status::SemanticError("TAKE references unknown component '" +
                                     item.name + "'");
      }
      c->taken = true;
      for (const std::string& col : item.columns) {
        c->take_columns.push_back(ToUpperIdent(col));
      }
    }
    // Relationships can only be taken if their partners are taken (the
    // connection tuples reference partner rows).
    for (const XnfComponent& c : xnf->components) {
      if (!c.is_relationship || !c.taken) continue;
      std::vector<std::string> partners = c.children;
      partners.push_back(c.parent);
      for (const std::string& p : partners) {
        const XnfComponent* pc = xnf->FindComponent(p);
        if (pc == nullptr || !pc->taken) {
          return Status::SemanticError(
              "TAKE of relationship '" + c.name + "' requires partner '" + p +
              "' to be taken too");
        }
      }
    }
  }
  bool any_taken = false;
  for (const XnfComponent& c : xnf->components) any_taken |= c.taken;
  if (!any_taken) {
    return Status::SemanticError("TAKE clause selects nothing");
  }
  return xnf;
}

Result<Box*> Builder::ImportXnfView(const std::string& view_name) {
  std::string key = ToUpperIdent(view_name);
  auto it = imported_xnf_.find(key);
  if (it != imported_xnf_.end()) return it->second;
  if (++view_depth_ > 8) {
    return Status::SemanticError("XNF view composition too deep (cycle?)");
  }
  Result<const ViewDef*> view = catalog_.GetView(key);
  if (!view.ok()) return view.status();
  if (!view.value()->is_xnf) {
    return Status::SemanticError(
        "composition requires an XNF view, but " + key + " is a SQL view");
  }
  XNFDB_ASSIGN_OR_RETURN(std::unique_ptr<ast::XnfQuery> parsed,
                         ParseXnfQuery(view.value()->definition));
  XNFDB_ASSIGN_OR_RETURN(Box * xnf, BuildXnfOperator(*parsed, key + "$"));
  --view_depth_;
  imported_xnf_[key] = xnf;
  return xnf;
}

Result<std::unique_ptr<qgm::QueryGraph>> BuildXnf(const Catalog& catalog,
                                                  const ast::XnfQuery& query) {
  auto graph = std::make_unique<QueryGraph>();
  Builder builder(catalog, graph.get());
  XNFDB_ASSIGN_OR_RETURN(Box * xnf, builder.BuildXnfOperator(query, ""));
  (void)xnf;
  Box* top = graph->NewBox(BoxKind::kTop, "Top");
  graph->set_top_box_id(top->id);
  XNFDB_RETURN_IF_ERROR(graph->Validate());
  return graph;
}

Result<qgm::ExprPtr> TranslateExprForBox(const qgm::QueryGraph& graph,
                                         const qgm::Box& box,
                                         const ast::Expr& expr) {
  // Build a scope from the box's foreach quantifiers, then translate with a
  // throwaway builder (no catalog lookups are needed for pure expressions).
  // Note: exists subqueries are not supported in this entry point.
  if (expr.kind == ast::Expr::Kind::kExists ||
      expr.kind == ast::Expr::Kind::kInSubquery) {
    return Status::Unsupported("subquery in this context");
  }
  static const Catalog& empty_catalog = *new Catalog();
  Builder builder(empty_catalog, const_cast<QueryGraph*>(&graph));
  Scope scope;
  for (const Quantifier& q : box.quants) {
    Binding b;
    b.name = q.name;
    b.quant_id = q.id;
    scope.bindings.push_back(std::move(b));
  }
  return builder.TranslateExpr(expr, scope, const_cast<Box*>(&box));
}

}  // namespace xnfdb
