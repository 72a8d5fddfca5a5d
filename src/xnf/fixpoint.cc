#include "xnf/fixpoint.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/batch.h"
#include "optimizer/planner.h"

namespace xnfdb {

namespace {

using qgm::Box;
using qgm::BoxKind;
using qgm::QueryGraph;
using qgm::XnfComponent;

constexpr size_t kNpos = static_cast<size_t>(-1);

Result<const Box*> FindXnf(const QueryGraph& graph) {
  const Box* found = nullptr;
  for (size_t i = 0; i < graph.box_count(); ++i) {
    const Box* b = graph.box(static_cast<int>(i));
    if (graph.IsDead(b->id) || b->kind != BoxKind::kXnf) continue;
    if (found != nullptr) {
      return Status::Unsupported(
          "recursive XNF queries cannot use CO composition");
    }
    found = b;
  }
  if (found == nullptr) {
    return Status::InvalidArgument(
        "fixpoint evaluator requires a graph with an XNF box");
  }
  return found;
}

// One partner's columns inside a delta-plan row (or a whole row).
struct Slice {
  Value* data;
  size_t size;
};

// The reached rows of one component, interned by value: each distinct row
// is stored once, at its discovery position. The index holds positions,
// hashed and compared by the rows they name, and is probed with a Slice
// directly, so a row already reached costs no copy.
class Extent {
 public:
  Extent() : index_(0, RowKey{&rows_}, RowKey{&rows_}) {}
  Extent(const Extent&) = delete;
  Extent& operator=(const Extent&) = delete;

  // The position of the row `s` holds, and whether it is new. A new row
  // is moved out of `s`.
  std::pair<size_t, bool> Intern(Slice s) {
    auto it = index_.find(s);
    if (it != index_.end()) return {*it, false};
    rows_.emplace_back(std::make_move_iterator(s.data),
                       std::make_move_iterator(s.data + s.size));
    index_.insert(rows_.size() - 1);
    return {rows_.size() - 1, true};
  }
  size_t Find(Slice s) const {
    auto it = index_.find(s);
    return it == index_.end() ? kNpos : *it;
  }

  size_t size() const { return rows_.size(); }
  Tuple& row(size_t i) { return rows_[i]; }

 private:
  // Hash and NULL-safe equality (as TupleHash/TupleEq) of positions and
  // slices alike.
  struct RowKey {
    using is_transparent = void;
    const std::vector<Tuple>* rows;
    Slice Get(Slice s) const { return s; }
    Slice Get(size_t i) const {
      const Tuple& t = (*rows)[i];
      return {const_cast<Value*>(t.data()), t.size()};
    }
    template <typename K>
    size_t operator()(const K& k) const {
      Slice s = Get(k);
      size_t h = 14695981039346656037ULL;
      for (size_t i = 0; i < s.size; ++i) {
        h ^= s.data[i].Hash();
        h *= 1099511628211ULL;
      }
      return h;
    }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      Slice x = Get(a), y = Get(b);
      if (x.size != y.size) return false;
      for (size_t i = 0; i < x.size; ++i) {
        if (x.data[i].is_null() != y.data[i].is_null()) return false;
        if (!x.data[i].is_null() && !(x.data[i] == y.data[i])) return false;
      }
      return true;
    }
  };

  std::vector<Tuple> rows_;
  std::unordered_set<size_t, RowKey, RowKey> index_;
};

// One component's state across the rounds.
struct ComponentState {
  const XnfComponent* comp = nullptr;
  Extent extent;
  // Seeded with the full candidate extent (roots and FREE components).
  bool seeded = false;
  // Rows first reached in the current round: the next round's frontier.
  std::vector<size_t> fresh;
  // The frontier the delta plans read; refilled at the start of a round.
  std::shared_ptr<std::vector<Tuple>> frontier =
      std::make_shared<std::vector<Tuple>>();
  // Taken components: the emitted tid of each extent position.
  std::vector<TupleId> tids;
};

// One relationship's delta plan and the connections it found.
struct Delta {
  const XnfComponent* rel = nullptr;
  std::vector<ComponentState*> partners;  // parent first
  std::vector<size_t> arity;              // head arity per partner
  int parent_quant = -1;  // the relationship box's frontier-reading quantifier
  OperatorPtr plan;  // planned in the first round with a non-empty frontier
  // Taken relationships: the partner positions of every connection found,
  // flattened (partners.size() per connection).
  std::vector<size_t> conns;
};

// The per-evaluation state shared by execution and EXPLAIN: component
// states, one Delta per relationship, and a planner whose relationship
// parent quantifiers read their component's frontier.
class Evaluation {
 public:
  Evaluation(const Catalog& catalog, const QueryGraph& graph, const Box& xnf,
             PlanOptions options, ExecStats* stats)
      : graph_(graph),
        xnf_(xnf),
        planner_(&catalog, &graph, WithOverrides(options, &overrides_),
                 stats) {}

  Status Init() {
    for (const XnfComponent& c : xnf_.components) {
      if (c.is_relationship) continue;
      ComponentState& s = components_[c.name];
      s.comp = &c;
      s.seeded = c.is_root || !c.reachable;
    }
    for (const XnfComponent& r : xnf_.components) {
      if (!r.is_relationship) continue;
      Delta& d = deltas_.emplace_back();
      d.rel = &r;
      std::vector<std::string> names{r.parent};
      names.insert(names.end(), r.children.begin(), r.children.end());
      const Box* box = graph_.box(r.box_id);
      if (box->quants.size() < names.size()) {
        return Status::Internal("relationship " + r.name +
                                " lacks its partner quantifiers");
      }
      for (size_t pi = 0; pi < names.size(); ++pi) {
        auto it = components_.find(names[pi]);
        if (it == components_.end()) {
          return Status::Internal("relationship " + r.name +
                                  " names unknown component " + names[pi]);
        }
        d.partners.push_back(&it->second);
        d.arity.push_back(graph_.RangedBox(box->quants[pi].id)->HeadArity());
      }
      // BuildXnf adds the parent partner's quantifier first.
      d.parent_quant = box->quants[0].id;
      overrides_[d.parent_quant] =
          QuantOverride{d.partners[0]->frontier, r.parent, 1.0};
    }
    return Status::Ok();
  }

  // Compiles `d`'s delta plan for a first frontier of `est_rows` rows.
  Status Plan(Delta* d, double est_rows) {
    overrides_[d->parent_quant].est_rows = std::max(est_rows, 1.0);
    XNFDB_ASSIGN_OR_RETURN(d->plan, planner_.BoxIterator(d->rel->box_id));
    return Status::Ok();
  }

  static std::string PlanHeader(const Delta& d) {
    return "delta plan " + d.rel->name + " (frontier " + d.rel->parent +
           "):\n";
  }

  Planner& planner() { return planner_; }
  std::map<std::string, ComponentState>& components() { return components_; }
  std::vector<Delta>& deltas() { return deltas_; }

 private:
  static PlanOptions WithOverrides(PlanOptions options,
                                   const std::map<int, QuantOverride>* m) {
    options.quant_overrides = m;
    return options;
  }

  const QueryGraph& graph_;
  const Box& xnf_;
  std::map<int, QuantOverride> overrides_;  // declared before planner_
  Planner planner_;
  std::map<std::string, ComponentState> components_;
  std::vector<Delta> deltas_;
};

Result<std::vector<int>> ProjectionIndexes(const Box& box,
                                           const std::vector<std::string>& cols) {
  std::vector<int> out;
  if (cols.empty()) {
    for (size_t i = 0; i < box.HeadArity(); ++i) out.push_back(int(i));
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

// Hash and equality of connection stream items by their partner tids: a
// set of stream positions, probed with a tid vector.
struct ConnKey {
  using is_transparent = void;
  const std::vector<StreamItem>* stream;
  const std::vector<TupleId>& Get(size_t i) const { return (*stream)[i].tids; }
  const std::vector<TupleId>& Get(const std::vector<TupleId>& t) const {
    return t;
  }
  template <typename K>
  size_t operator()(const K& k) const {
    size_t h = 14695981039346656037ULL;
    for (TupleId t : Get(k)) {
      h ^= std::hash<TupleId>()(t);
      h *= 1099511628211ULL;
    }
    return h;
  }
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return Get(a) == Get(b);
  }
};

}  // namespace

Result<QueryResult> ExecuteXnfFixpoint(const Catalog& catalog,
                                       const QueryGraph& graph,
                                       const ExecOptions& options) {
  XNFDB_ASSIGN_OR_RETURN(const Box* xnf, FindXnf(graph));
  QueryResult result;
  QueryContext* ctx = options.context.get();
  const int batch_size = ResolveBatchSize(options.batch_size);
  PlanOptions plan_options = options.plan;
  plan_options.analyze = options.analyze;
  plan_options.batch_size = batch_size;
  plan_options.context = ctx;  // governs seeds, inner builds and delta plans
  Evaluation eval(catalog, graph, *xnf, plan_options, &result.stats);
  XNFDB_RETURN_IF_ERROR(eval.Init());
  auto& components = eval.components();

  // 1. Seed roots and FREE components with their full candidate extent.
  size_t reached = 0;
  for (auto& [name, s] : components) {
    if (!s.seeded) continue;
    XNFDB_ASSIGN_OR_RETURN(auto rows, eval.planner().MaterializeBox(
                                          s.comp->box_id));
    for (const Tuple& row : *rows) {
      // The extent holds a second copy of each seed row on top of the
      // spool charged inside MaterializeBox.
      if (ctx != nullptr) {
        XNFDB_RETURN_IF_ERROR(ctx->ReserveBytes(ApproxTupleBytes(row)));
      }
      Tuple copy = row;
      auto [pos, fresh] = s.extent.Intern({copy.data(), copy.size()});
      if (fresh) s.fresh.push_back(pos);
    }
    reached += s.extent.size();
    if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->Check());
  }

  // 2. Semi-naive rounds: join each frontier through the delta plans until
  // no round reaches a new row. A row enters a frontier at most once, so
  // more than reached + 1 rounds means that invariant broke. One batch
  // serves every delta plan in every round.
  TupleBatch batch(static_cast<size_t>(batch_size));
  int64_t rounds = 0;
  while (true) {
    bool any = false;
    for (auto& [name, s] : components) {
      s.frontier->clear();
      for (size_t pos : s.fresh) s.frontier->push_back(s.extent.row(pos));
      s.fresh.clear();
      any = any || !s.frontier->empty();
    }
    if (!any) break;
    if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->Check());
    if (static_cast<size_t>(++rounds) > reached + 1) {
      return Status::Internal(
          "fixpoint failed to converge after " + std::to_string(rounds - 1) +
          " rounds over " + std::to_string(reached) + " reached rows");
    }
    for (Delta& d : eval.deltas()) {
      ComponentState& parent = *d.partners[0];
      if (parent.frontier->empty()) continue;
      if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->Check());
      if (d.plan == nullptr) {
        XNFDB_RETURN_IF_ERROR(
            eval.Plan(&d, static_cast<double>(parent.frontier->size())));
        if (options.collect_profile) d.plan->EnableProfile();
      }
      const bool taken = d.rel->taken;
      XNFDB_RETURN_IF_ERROR(
          DrainRows(d.plan.get(), &batch, [&](Tuple& row) -> Status {
            if (ctx != nullptr) {
              XNFDB_RETURN_IF_ERROR(ctx->ReserveBytes(ApproxTupleBytes(row)));
            }
            Value* at = row.data();
            const size_t parent_pos = parent.extent.Find({at, d.arity[0]});
            if (parent_pos == kNpos) {
              return Status::Internal("delta plan " + d.rel->name +
                                      " produced a row outside its frontier");
            }
            if (taken) d.conns.push_back(parent_pos);
            at += d.arity[0];
            for (size_t pi = 1; pi < d.partners.size(); ++pi) {
              ComponentState& child = *d.partners[pi];
              auto [pos, fresh] = child.extent.Intern({at, d.arity[pi]});
              at += d.arity[pi];
              if (fresh) {
                if (ctx != nullptr) {
                  XNFDB_RETURN_IF_ERROR(ctx->ReserveBytes(
                      ApproxTupleBytes(child.extent.row(pos))));
                }
                child.fresh.push_back(pos);
                ++reached;
              }
              if (taken) d.conns.push_back(pos);
            }
            return Status::Ok();
          }).status());
    }
  }
  result.stats.fixpoint_rounds += rounds;

  // 3. Emit the heterogeneous stream: taken components in declaration
  // order, then taken relationships (the rewrite path's shape). A row's
  // tid is its position among its component's reached rows when the TAKE
  // projection is the identity; otherwise projections dedup by value.
  size_t items = 0;
  for (const auto& [name, s] : components) items += s.extent.size();
  for (const Delta& d : eval.deltas()) {
    items += d.conns.size() / d.partners.size();
  }
  result.stream.reserve(items);
  for (const XnfComponent& c : xnf->components) {
    if (c.is_relationship || !c.taken) continue;
    ComponentState& s = components.at(c.name);
    const Box* box = graph.box(c.box_id);
    XNFDB_ASSIGN_OR_RETURN(std::vector<int> cols,
                           ProjectionIndexes(*box, c.take_columns));
    OutputDesc desc;
    desc.name = c.name;
    bool identity = cols.size() == box->HeadArity();
    for (size_t i = 0; i < cols.size(); ++i) {
      identity = identity && cols[i] == static_cast<int>(i);
      Column column;
      column.name = box->HeadName(cols[i]);
      Result<DataType> t = graph.HeadType(c.box_id, cols[i]);
      column.type = t.ok() ? t.value() : DataType::kNull;
      desc.schema.AddColumn(std::move(column));
    }
    const int out = static_cast<int>(result.outputs.size());
    result.outputs.push_back(std::move(desc));

    std::vector<TupleId>& tids = s.tids;
    tids.resize(s.extent.size());
    std::unordered_map<Tuple, TupleId, TupleHash, TupleEq> projected_tids;
    for (size_t i = 0; i < s.extent.size(); ++i) {
      Tuple values;
      if (identity) {
        tids[i] = static_cast<TupleId>(i);
        values = std::move(s.extent.row(i));
      } else {
        for (int col : cols) values.push_back(s.extent.row(i)[col]);
        auto [it, inserted] = projected_tids.emplace(
            values, static_cast<TupleId>(projected_tids.size()));
        tids[i] = it->second;
        if (!inserted) continue;
      }
      if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->ChargeOutputRows(1));
      StreamItem item;
      item.kind = StreamItem::Kind::kRow;
      item.output = out;
      item.tid = tids[i];
      item.values = std::move(values);
      ++result.stats.rows_output;
      result.stream.push_back(std::move(item));
    }
  }

  for (Delta& d : eval.deltas()) {
    if (!d.rel->taken) continue;
    OutputDesc desc;
    desc.name = d.rel->name;
    desc.is_connection = true;
    // Every found connection's partners are reached; one whose partner is
    // not taken has no tids to carry.
    bool emit = true;
    for (ComponentState* p : d.partners) {
      desc.partner_names.push_back(p->comp->name);
      emit = emit && p->comp->taken;
    }
    const int out = static_cast<int>(result.outputs.size());
    result.outputs.push_back(std::move(desc));
    if (!emit) continue;

    const size_t k = d.partners.size();
    std::unordered_set<size_t, ConnKey, ConnKey> seen(
        d.conns.size() / k, ConnKey{&result.stream}, ConnKey{&result.stream});
    std::vector<TupleId> tids(k);
    for (size_t j = 0; j < d.conns.size(); j += k) {
      for (size_t pi = 0; pi < k; ++pi) {
        tids[pi] = d.partners[pi]->tids[d.conns[j + pi]];
      }
      if (seen.find(tids) != seen.end()) continue;
      if (ctx != nullptr) XNFDB_RETURN_IF_ERROR(ctx->ChargeOutputRows(1));
      StreamItem item;
      item.kind = StreamItem::Kind::kConnection;
      item.output = out;
      item.tids = tids;
      ++result.stats.rows_output;
      result.stream.push_back(std::move(item));
      seen.insert(result.stream.size() - 1);
    }
  }

  // 4. Actuals of the delta plans, summed over the rounds they ran.
  if (options.collect_profile) {
    std::map<std::string, obs::OpProfile> ops;
    for (Delta& d : eval.deltas()) {
      if (d.plan != nullptr) AccumulateTree(d.plan.get(), &ops);
    }
    for (auto& [kind, p] : ops) result.profile.ops.push_back(std::move(p));
    result.profile.rows_out = result.stats.rows_output;
  }
  if (options.analyze) {
    for (Delta& d : eval.deltas()) {
      std::string text = Evaluation::PlanHeader(d);
      if (d.plan != nullptr) {
        d.plan->Explain(1, &text);
      } else {
        ExplainLine(1, "never opened: the " + d.rel->parent +
                           " frontier stayed empty", &text);
      }
      result.plan_texts.push_back(std::move(text));
    }
    result.plan_texts.push_back("fixpoint: rounds=" + std::to_string(rounds) +
                                " reached=" + std::to_string(reached) + "\n");
  }
  if (options.metrics != nullptr) result.stats.PublishTo(options.metrics);
  return result;
}

Result<std::string> ExplainXnfFixpoint(const Catalog& catalog,
                                       const QueryGraph& graph,
                                       const PlanOptions& options) {
  XNFDB_ASSIGN_OR_RETURN(const Box* xnf, FindXnf(graph));
  ExecStats stats;
  Evaluation eval(catalog, graph, *xnf, options, &stats);
  XNFDB_RETURN_IF_ERROR(eval.Init());
  std::string out;
  for (Delta& d : eval.deltas()) {
    const ComponentState& parent = *d.partners[0];
    const double est = parent.seeded
                           ? eval.planner().EstimateCard(parent.comp->box_id)
                           : 1.0;
    XNFDB_RETURN_IF_ERROR(eval.Plan(&d, est));
    out += Evaluation::PlanHeader(d);
    d.plan->Explain(1, &out);
  }
  return out;
}

}  // namespace xnfdb
