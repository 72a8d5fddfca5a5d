#include "matview/matview.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/str_util.h"
#include "exec/query_context.h"
#include "obs/digest_store.h"
#include "obs/flight_recorder.h"
#include "optimizer/planner.h"

namespace xnfdb {

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tuple ProjectCols(const Tuple& row, const std::vector<int>& cols) {
  Tuple out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(row[c]);
  return out;
}

bool ExprHasAgg(const qgm::Expr& e) {
  if (e.kind == qgm::Expr::Kind::kAgg) return true;
  if (e.lhs != nullptr && ExprHasAgg(*e.lhs)) return true;
  if (e.rhs != nullptr && ExprHasAgg(*e.rhs)) return true;
  return false;
}

// Every base table reachable from `box_id`, through F- and E-quantifiers
// and union inputs alike.
void CollectTables(const qgm::QueryGraph& g, int box_id,
                   std::set<std::string>* out) {
  const qgm::Box* box = g.box(box_id);
  if (box == nullptr) return;
  if (box->kind == qgm::BoxKind::kBaseTable) {
    out->insert(box->table_name);
    return;
  }
  for (const qgm::Quantifier& q : box->quants) CollectTables(g, q.box_id, out);
  for (int in : box->union_inputs) CollectTables(g, in, out);
}

// Reference profile of one output subtree, the input to the per-table
// delta rules: how many times each base table is reached through pure
// F-quantifier paths, which tables appear anywhere under an E-quantifier,
// and whether the subtree contains a construct no delta rule handles.
struct OutputRefs {
  std::map<std::string, int> f_refs;
  std::set<std::string> e_refs;
  bool poisoned = false;  // distinct/group/order/limit/union/aggregate
};

void WalkOutput(const qgm::QueryGraph& g, int box_id, OutputRefs* r) {
  const qgm::Box* box = g.box(box_id);
  if (box == nullptr) {
    r->poisoned = true;
    return;
  }
  switch (box->kind) {
    case qgm::BoxKind::kBaseTable:
      ++r->f_refs[box->table_name];
      return;
    case qgm::BoxKind::kSelect: {
      if (box->distinct || !box->group_by.empty() || !box->order_by.empty() ||
          box->limit >= 0 || box->offset > 0) {
        r->poisoned = true;
      }
      for (const qgm::HeadColumn& h : box->head) {
        if (h.expr != nullptr && ExprHasAgg(*h.expr)) {
          r->poisoned = true;
          break;
        }
      }
      for (const qgm::Quantifier& q : box->quants) {
        if (q.kind == qgm::QuantKind::kForeach) {
          WalkOutput(g, q.box_id, r);
        } else {
          CollectTables(g, q.box_id, &r->e_refs);
        }
      }
      return;
    }
    case qgm::BoxKind::kUnion:
      r->poisoned = true;
      for (int in : box->union_inputs) CollectTables(g, in, &r->e_refs);
      return;
    default:
      r->poisoned = true;
      CollectTables(g, box_id, &r->e_refs);
      return;
  }
}

}  // namespace

MatViewConfig MatViewConfig::FromEnv() {
  MatViewConfig c;
  c.enabled = ParseEnvBool("XNFDB_MATVIEWS", true);
  c.max_rows =
      ParseEnvInt("XNFDB_MATVIEW_MAX_ROWS", 1, int64_t{1} << 40, 1 << 20);
  return c;
}

MatViewStore::MatViewStore(const MatViewConfig& config,
                           obs::MetricsRegistry* metrics)
    : config_(config),
      enabled_(config.enabled),
      metrics_(metrics),
      hits_(metrics->GetCounter("matview.hits")),
      misses_(metrics->GetCounter("matview.misses")),
      materializations_(metrics->GetCounter("matview.materializations")),
      full_refreshes_(metrics->GetCounter("matview.full_refreshes")),
      delta_applies_(metrics->GetCounter("matview.delta_applies")),
      delta_rows_(metrics->GetCounter("matview.delta_rows")),
      fallbacks_(metrics->GetCounter("matview.fallbacks")),
      rejects_(metrics->GetCounter("matview.rejects")),
      invalidations_(metrics->GetCounter("matview.invalidations")),
      count_gauge_(metrics->GetGauge("matview.count")),
      rows_gauge_(metrics->GetGauge("matview.rows")),
      bytes_gauge_(metrics->GetGauge("matview.bytes")),
      stale_gauge_(metrics->GetGauge("matview.stale")) {}

bool MatViewStore::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void MatViewStore::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
}

void MatViewStore::Fill(const Entry& e, ServeHandle* out) {
  out->name = e.name;
  out->data = e.data;
  out->digest = e.digest;
  out->text = e.text;
}

void MatViewStore::HitLocked(Entry& e, ServeHandle* out) {
  ++e.hits;
  hits_->Increment();
  Fill(e, out);
}

MatViewStore::EntryMap::iterator MatViewStore::EraseLocked(
    EntryMap::iterator it) {
  for (const std::string& text : it->second.aliases) aliases_.erase(text);
  return entries_.erase(it);
}

bool MatViewStore::TryServe(uint64_t key, ServeHandle* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  // Shapes the store has never seen are not misses — only a known entry
  // that cannot serve (stale, or the store is disabled) counts.
  if (it == entries_.end()) return false;
  if (!enabled_ || !it->second.fresh || it->second.data == nullptr) {
    misses_->Increment();
    return false;
  }
  HitLocked(it->second, out);
  return true;
}

bool MatViewStore::Peek(uint64_t key, ServeHandle* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || !enabled_ || !it->second.fresh ||
      it->second.data == nullptr) {
    return false;
  }
  Fill(it->second, out);
  return true;
}

bool MatViewStore::TryServeText(const std::string& text, ServeHandle* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_ || aliases_.empty()) return false;
  auto alias = aliases_.find(text);
  if (alias == aliases_.end()) return false;
  auto it = entries_.find(alias->second);
  if (it == entries_.end() || !it->second.fresh ||
      it->second.data == nullptr) {
    return false;
  }
  HitLocked(it->second, out);
  return true;
}

void MatViewStore::AddAlias(const std::string& text, uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  auto [alias, added] = aliases_.emplace(text, key);
  if (!added) {
    if (alias->second == key) return;
    // The text compiled to another entry since it was aliased (only a
    // catalog change that bypassed DropAliases can do that): re-point.
    auto old = entries_.find(alias->second);
    if (old != entries_.end()) {
      std::vector<std::string>& texts = old->second.aliases;
      texts.erase(std::find(texts.begin(), texts.end(), text));
    }
    alias->second = key;
  }
  std::vector<std::string>& texts = it->second.aliases;
  if (texts.size() >= kMaxAliasesPerEntry) {
    aliases_.erase(texts.front());
    texts.erase(texts.begin());
  }
  texts.push_back(text);
}

void MatViewStore::DropAliases() {
  std::lock_guard<std::mutex> lock(mu_);
  aliases_.clear();
  for (auto& [key, e] : entries_) e.aliases.clear();
}

bool MatViewStore::WantCapture(uint64_t key, int64_t prior_calls) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return false;
  auto it = entries_.find(key);
  // A known entry that did not serve is stale (or empty-pinned): refresh.
  if (it != entries_.end()) return !it->second.fresh;
  if (entries_.size() >= config_.max_views) return false;
  return prior_calls + 1 >= config_.auto_calls;
}

Status MatViewStore::Store(uint64_t key, uint64_t digest,
                           const std::string& text, const Catalog& catalog,
                           std::shared_ptr<qgm::QueryGraph> graph,
                           const QueryResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) {
    return Status::Unsupported("materialized views are disabled");
  }
  if (graph == nullptr) return Status::Internal("matview: no query graph");
  if (static_cast<int64_t>(result.stream.size()) > config_.max_rows) {
    rejects_->Increment();
    return Status::ResourceExhausted(
        "matview: result exceeds XNFDB_MATVIEW_MAX_ROWS (" +
        std::to_string(config_.max_rows) + ")");
  }
  auto it = entries_.find(key);
  const bool existed = it != entries_.end();
  if (!existed && entries_.size() >= config_.max_views) {
    rejects_->Increment();
    return Status::ResourceExhausted(
        "matview: store is full (" + std::to_string(config_.max_views) +
        " views)");
  }

  Entry e;
  if (existed) {
    // Keep the identity and lifetime counters; analysis and data are
    // rebuilt from this execution.
    const Entry& old = it->second;
    e.name = old.name;
    e.pinned = old.pinned;
    e.hits = old.hits;
    e.delta_applies = old.delta_applies;
    e.delta_rows = old.delta_rows;
    e.full_refreshes = old.full_refreshes;
    e.fallbacks = old.fallbacks;
    e.created_us = old.created_us;
    e.aliases = old.aliases;
  } else {
    e.name = "AUTO$" + obs::DigestHex(key).substr(0, 12);
  }
  e.key = key;
  e.digest = digest;
  e.text = text;
  if (e.created_us == 0) e.created_us = NowUs();

  // Delta-eligibility analysis over the compiled graph.
  const qgm::Box* top = graph->box(graph->top_box_id());
  if (top == nullptr || top->kind != qgm::BoxKind::kTop) {
    return Status::Internal("matview: compiled graph has no top box");
  }
  if (top->outputs.size() != result.outputs.size()) {
    return Status::Internal("matview: graph/result output mismatch");
  }
  std::vector<OutputRefs> refs(top->outputs.size());
  for (size_t i = 0; i < top->outputs.size(); ++i) {
    WalkOutput(*graph, top->outputs[i].box_id, &refs[i]);
  }
  for (const OutputRefs& r : refs) {
    for (const auto& [t, n] : r.f_refs) e.tables.insert(t);
    e.tables.insert(r.e_refs.begin(), r.e_refs.end());
  }
  for (const std::string& t : e.tables) {
    if (catalog.HasVirtualTable(t) || !catalog.HasTable(t)) {
      rejects_->Increment();
      return Status::Unsupported("matview: shape reads non-base table " + t);
    }
  }
  for (const std::string& t : e.tables) {
    bool eligible = true;
    std::vector<int> outs;
    for (size_t i = 0; i < refs.size(); ++i) {
      auto fit = refs[i].f_refs.find(t);
      int f = fit == refs[i].f_refs.end() ? 0 : fit->second;
      bool in_e = refs[i].e_refs.count(t) > 0;
      if (f == 0 && !in_e) continue;  // output unaffected by DML on t
      if (f == 1 && !in_e && !refs[i].poisoned) {
        outs.push_back(static_cast<int>(i));
        continue;
      }
      eligible = false;
      break;
    }
    if (eligible) {
      e.delta_outputs[t] = std::move(outs);
    } else {
      e.delta_ineligible.insert(t);
    }
  }

  // Lift the execution's answer set into the stored layout.
  auto data = std::make_shared<MatViewData>();
  data->outputs.resize(result.outputs.size());
  for (size_t i = 0; i < result.outputs.size(); ++i) {
    data->outputs[i].desc = result.outputs[i];
    data->outputs[i].xnf_component = top->outputs[i].xnf_component;
  }
  for (const StreamItem& item : result.stream) {
    MatViewOutputData& od = data->outputs[item.output];
    if (item.kind == StreamItem::Kind::kRow) {
      od.rows.push_back(item.values);
      od.tids.push_back(item.tid);
      if (item.tid >= od.next_tid) od.next_tid = item.tid + 1;
      if (od.xnf_component) od.content_tids.emplace(item.values, item.tid);
      data->bytes += ApproxTupleBytes(item.values) + 8;
    } else {
      od.conns.push_back(item.tids);
      data->bytes += 8 * static_cast<int64_t>(item.tids.size());
    }
    ++data->total_rows;
  }
  for (const auto& [oi, counts] : result.component_counts) {
    data->outputs[oi].counts = counts;
  }
  for (const auto& [oi, counts] : result.connection_counts) {
    data->outputs[oi].conn_counts = counts;
  }
  // Executions captured without dedup counts (defensive — the Database
  // always collects them when materializing): every stored row counts one.
  for (MatViewOutputData& od : data->outputs) {
    if (od.xnf_component && od.counts.empty()) {
      for (TupleId tid : od.tids) od.counts[tid] = 1;
    }
    if (od.desc.is_connection && od.conn_counts.empty()) {
      for (const std::vector<TupleId>& c : od.conns) od.conn_counts[c] = 1;
    }
  }

  e.graph = std::move(graph);
  e.data = std::move(data);
  e.fresh = true;
  e.refreshed_us = NowUs();
  if (existed) {
    ++e.full_refreshes;
    full_refreshes_->Increment();
    it->second = std::move(e);
  } else {
    materializations_->Increment();
    entries_.emplace(key, std::move(e));
  }
  UpdateGaugesLocked();
  return Status::Ok();
}

Status MatViewStore::Pin(const std::string& name, uint64_t key,
                         uint64_t digest, const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) {
    return Status::Unsupported(
        "materialized views are disabled (XNFDB_MATVIEWS=0)");
  }
  // One name names one materialization: a re-MATERIALIZE after the view
  // was redefined (new key) replaces the old entry.
  for (auto iter = entries_.begin(); iter != entries_.end();) {
    if (iter->second.name == name && iter->first != key) {
      iter = EraseLocked(iter);
    } else {
      ++iter;
    }
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.pinned = true;
    it->second.name = name;
    UpdateGaugesLocked();
    return Status::Ok();
  }
  if (entries_.size() >= config_.max_views) {
    rejects_->Increment();
    return Status::ResourceExhausted(
        "matview: store is full (" + std::to_string(config_.max_views) +
        " views)");
  }
  Entry e;
  e.name = name;
  e.key = key;
  e.digest = digest;
  e.text = text;
  e.pinned = true;
  e.created_us = NowUs();
  entries_.emplace(key, std::move(e));
  UpdateGaugesLocked();
  return Status::Ok();
}

bool MatViewStore::Dematerialize(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.name == name) {
      EraseLocked(it);
      invalidations_->Increment();
      UpdateGaugesLocked();
      return true;
    }
  }
  return false;
}

void MatViewStore::OnBaseTableDml(const Catalog& catalog,
                                  const std::string& table,
                                  const std::vector<Tuple>& inserted,
                                  const std::vector<Tuple>& deleted) {
  if (inserted.empty() && deleted.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.empty()) return;
  bool changed = false;
  for (auto& [key, e] : entries_) {
    if (!e.fresh || e.tables.count(table) == 0) continue;
    changed = true;
    if (!enabled_ || e.delta_ineligible.count(table) > 0) {
      e.fresh = false;
      ++e.fallbacks;
      fallbacks_->Increment();
      obs::FlightRecorder::Default().Record(
          "matview", "info", "matview marked stale",
          "name=" + e.name + " table=" + table);
      continue;
    }
    Status s = ApplyDeltaLocked(catalog, &e, table, inserted, deleted);
    if (!s.ok()) {
      e.fresh = false;
      e.data.reset();
      ++e.fallbacks;
      fallbacks_->Increment();
      obs::FlightRecorder::Default().Record(
          "matview", "warn", "matview delta failed",
          "name=" + e.name + " table=" + table + " error=" + s.message());
    }
  }
  if (changed) UpdateGaugesLocked();
}

Status MatViewStore::ApplyDeltaLocked(const Catalog& catalog, Entry* e,
                                      const std::string& table,
                                      const std::vector<Tuple>& inserted,
                                      const std::vector<Tuple>& deleted) {
  auto oit = e->delta_outputs.find(table);
  if (oit == e->delta_outputs.end()) {
    return Status::Internal("matview: no delta rule for table " + table);
  }
  const std::vector<int>& affected = oit->second;
  if (e->graph == nullptr || e->data == nullptr) {
    return Status::Internal("matview: entry has no graph");
  }
  XNFDB_ASSIGN_OR_RETURN(Table * base, catalog.GetTable(table));
  const qgm::Box* top = e->graph->box(e->graph->top_box_id());

  // Re-plan each affected output box with the DML'd table substituted by a
  // transient delta table (no indexes — the planner's OverrideFor guards
  // keep it on a plain scan) and drain the pre-dedup derivations.
  int64_t drained = 0;
  TupleBatch batch(static_cast<size_t>(ResolveBatchSize(0)));
  auto drain = [&](const std::vector<Tuple>& delta_rows,
                   std::map<int, std::vector<Tuple>>* out) -> Status {
    out->clear();
    if (delta_rows.empty()) return Status::Ok();
    Table delta(table, base->schema());
    for (const Tuple& r : delta_rows) {
      XNFDB_ASSIGN_OR_RETURN(Rid rid, delta.Insert(r));
      (void)rid;
    }
    std::map<std::string, Table*> overrides{{table, &delta}};
    ExecStats stats;
    PlanOptions popts;
    popts.table_overrides = &overrides;
    popts.batch_size = static_cast<int>(batch.capacity());
    Planner planner(&catalog, e->graph.get(), popts, &stats);
    for (int oi : affected) {
      const qgm::TopOutput& o = top->outputs[oi];
      XNFDB_ASSIGN_OR_RETURN(OperatorPtr op, planner.BoxIterator(o.box_id));
      std::vector<Tuple>& bucket = (*out)[oi];
      XNFDB_RETURN_IF_ERROR(
          DrainRows(op.get(), &batch, [&](Tuple& row) -> Status {
            bucket.push_back(o.cols.empty() ? std::move(row)
                                            : ProjectCols(row, o.cols));
            if (++drained > config_.max_rows) {
              return Status::ResourceExhausted("matview: delta too large");
            }
            return Status::Ok();
          }).status());
    }
    return Status::Ok();
  };

  std::map<int, std::vector<Tuple>> del_rows, ins_rows;
  XNFDB_RETURN_IF_ERROR(drain(deleted, &del_rows));
  XNFDB_RETURN_IF_ERROR(drain(inserted, &ins_rows));

  // Splice in place when the entry is the answer's sole owner: every
  // handle is copied out under mu_, so use_count() == 1 cannot grow while
  // we hold it. Otherwise copy-on-write — mutate a private copy and publish
  // it at the end, so an in-flight serve keeps its consistent snapshot.
  std::shared_ptr<MatViewData> copy;
  if (e->data.use_count() == 1) {
    // Pairs with the release decrement of the last reader's handle.
    std::atomic_thread_fence(std::memory_order_acquire);
  } else {
    copy = std::make_shared<MatViewData>(*e->data);
  }
  MatViewData& next = copy != nullptr ? *copy : *e->data;
  std::map<std::string, int> comp_idx;
  for (size_t i = 0; i < next.outputs.size(); ++i) {
    if (!next.outputs[i].desc.is_connection) {
      comp_idx[next.outputs[i].desc.name] = static_cast<int>(i);
    }
  }
  std::vector<TupleId> ptids;
  // Resolves a connection delta row to its partner tids exactly like the
  // executor's pass 2; false = some partner row is not in its component
  // stream, so the connection never existed (closed answer) — drop it.
  auto resolve_partners = [&](const qgm::TopOutput& o,
                              const Tuple& row) -> Result<bool> {
    ptids.clear();
    for (size_t pi = 0; pi < o.partner_names.size(); ++pi) {
      auto ci = comp_idx.find(o.partner_names[pi]);
      if (ci == comp_idx.end()) {
        return Status::Internal("matview: connection partner missing");
      }
      const MatViewOutputData& pod = next.outputs[ci->second];
      Tuple key = ProjectCols(row, o.partner_cols[pi]);
      auto kit = pod.content_tids.find(key);
      if (kit == pod.content_tids.end()) return false;
      ptids.push_back(kit->second);
    }
    return true;
  };
  auto remove_component_row = [&](MatViewOutputData& od, size_t idx) {
    next.bytes -= ApproxTupleBytes(od.rows[idx]) + 8;
    --next.total_rows;
    od.rows.erase(od.rows.begin() + idx);
    od.tids.erase(od.tids.begin() + idx);
  };

  // Delete pass: connections first (partner contents must still be
  // resolvable), then components.
  for (int oi : affected) {
    const qgm::TopOutput& o = top->outputs[oi];
    if (!o.is_connection) continue;
    MatViewOutputData& od = next.outputs[oi];
    for (const Tuple& row : del_rows[oi]) {
      XNFDB_ASSIGN_OR_RETURN(bool found, resolve_partners(o, row));
      if (!found) continue;
      auto cit = od.conn_counts.find(ptids);
      if (cit == od.conn_counts.end()) {
        return Status::Internal("matview: delete of unknown connection");
      }
      if (--cit->second == 0) {
        od.conn_counts.erase(cit);
        auto pos = std::find(od.conns.begin(), od.conns.end(), ptids);
        if (pos != od.conns.end()) od.conns.erase(pos);
        next.bytes -= 8 * static_cast<int64_t>(ptids.size());
        --next.total_rows;
      }
    }
  }
  for (int oi : affected) {
    const qgm::TopOutput& o = top->outputs[oi];
    if (o.is_connection) continue;
    MatViewOutputData& od = next.outputs[oi];
    for (const Tuple& row : del_rows[oi]) {
      if (od.xnf_component) {
        auto kit = od.content_tids.find(row);
        if (kit == od.content_tids.end()) {
          return Status::Internal("matview: delete of unknown component row");
        }
        TupleId tid = kit->second;
        auto cnt = od.counts.find(tid);
        if (cnt == od.counts.end()) {
          return Status::Internal("matview: missing derivation count");
        }
        if (--cnt->second == 0) {
          od.counts.erase(cnt);
          od.content_tids.erase(kit);
          auto pos = std::find(od.tids.begin(), od.tids.end(), tid);
          if (pos == od.tids.end()) {
            return Status::Internal("matview: tid not in stream");
          }
          remove_component_row(od, pos - od.tids.begin());
        }
      } else {
        // Multiset stream: remove one instance with this content.
        size_t i = od.rows.size();
        while (i > 0 && !(od.rows[i - 1] == row)) --i;
        if (i == 0) {
          return Status::Internal("matview: delete of unknown row");
        }
        remove_component_row(od, i - 1);
      }
    }
  }

  // Insert pass: components first (new partner tids must exist before the
  // connections that reference them), then connections.
  for (int oi : affected) {
    const qgm::TopOutput& o = top->outputs[oi];
    if (o.is_connection) continue;
    MatViewOutputData& od = next.outputs[oi];
    for (const Tuple& row : ins_rows[oi]) {
      if (od.xnf_component) {
        auto [kit, fresh_row] = od.content_tids.emplace(row, od.next_tid);
        if (fresh_row) {
          TupleId tid = od.next_tid++;
          od.counts[tid] = 1;
          od.rows.push_back(row);
          od.tids.push_back(tid);
          next.bytes += ApproxTupleBytes(row) + 8;
          ++next.total_rows;
        } else {
          ++od.counts[kit->second];
        }
      } else {
        od.rows.push_back(row);
        od.tids.push_back(od.next_tid++);
        next.bytes += ApproxTupleBytes(row) + 8;
        ++next.total_rows;
      }
    }
  }
  for (int oi : affected) {
    const qgm::TopOutput& o = top->outputs[oi];
    if (!o.is_connection) continue;
    MatViewOutputData& od = next.outputs[oi];
    for (const Tuple& row : ins_rows[oi]) {
      XNFDB_ASSIGN_OR_RETURN(bool found, resolve_partners(o, row));
      if (!found) continue;
      int64_t& c = od.conn_counts[ptids];
      if (++c == 1) {
        od.conns.push_back(ptids);
        next.bytes += 8 * static_cast<int64_t>(ptids.size());
        ++next.total_rows;
      }
    }
  }

  if (copy != nullptr) e->data = std::move(copy);
  ++e->delta_applies;
  e->delta_rows += drained;
  e->refreshed_us = NowUs();
  delta_applies_->Increment();
  delta_rows_->Increment(drained);
  return Status::Ok();
}

void MatViewStore::InvalidateTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t before = entries_.size();
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.tables.count(table) > 0) {
      it = EraseLocked(it);
    } else {
      ++it;
    }
  }
  if (entries_.size() != before) {
    invalidations_->Increment(
        static_cast<int64_t>(before - entries_.size()));
    UpdateGaugesLocked();
  }
}

void MatViewStore::InvalidateView(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.name == name) {
      EraseLocked(it);
      invalidations_->Increment();
      UpdateGaugesLocked();
      return;
    }
  }
}

void MatViewStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!entries_.empty()) {
    invalidations_->Increment(static_cast<int64_t>(entries_.size()));
  }
  entries_.clear();
  aliases_.clear();
  UpdateGaugesLocked();
}

std::vector<MatViewInfo> MatViewStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MatViewInfo> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    MatViewInfo info;
    info.name = e.name;
    info.key = key;
    info.digest = e.digest;
    info.text = e.text;
    info.pinned = e.pinned;
    info.fresh = e.fresh;
    info.rows = e.data != nullptr ? e.data->total_rows : 0;
    info.bytes = e.data != nullptr ? e.data->bytes : 0;
    info.hits = e.hits;
    info.delta_applies = e.delta_applies;
    info.delta_rows = e.delta_rows;
    info.full_refreshes = e.full_refreshes;
    info.fallbacks = e.fallbacks;
    info.created_us = e.created_us;
    info.refreshed_us = e.refreshed_us;
    out.push_back(std::move(info));
  }
  return out;
}

size_t MatViewStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Status MatViewStore::SaveRegistry(Env* env, const std::string& path) const {
  std::string out = "XNFDB_MATVIEWS 2\n";
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, e] : entries_) {
      out += obs::DigestHex(key) + " " + obs::DigestHex(e.digest) + " " +
             (e.pinned ? "1" : "0") + " " + e.name + "\t" + e.text + "\n";
    }
  }
  return AtomicallyWriteFile(env, path, out);
}

Status MatViewStore::LoadRegistry(Env* env, const std::string& path) {
  std::string content;
  XNFDB_RETURN_IF_ERROR(env->ReadFileToString(path, &content));
  std::istringstream in(content);
  std::string line;
  int version = 0;
  if (std::getline(in, line)) {
    if (line == "XNFDB_MATVIEWS 1") version = 1;
    if (line == "XNFDB_MATVIEWS 2") version = 2;
  }
  if (version == 0) {
    return Status::IoError("matview registry: bad header in " + path);
  }
  // v2: "<key> <digest> <pinned> <name>\t<text>"; v1 lacks the key.
  const size_t fields = version == 1 ? 3 : 4;
  std::lock_guard<std::mutex> lock(mu_);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    size_t tab = line.find('\t');
    std::vector<std::string> head;
    std::istringstream head_in(line.substr(0, tab));
    for (std::string f; head_in >> f;) head.push_back(f);
    if (tab == std::string::npos || head.size() != fields) {
      return Status::IoError("matview registry: malformed line in " + path);
    }
    Entry e;
    e.digest = std::strtoull(head[fields - 3].c_str(), nullptr, 16);
    e.key = version == 1 ? e.digest
                         : std::strtoull(head[0].c_str(), nullptr, 16);
    if (entries_.count(e.key) > 0) continue;
    if (entries_.size() >= config_.max_views) break;
    e.pinned = head[fields - 2] == "1";
    e.name = head[fields - 1];
    e.text = line.substr(tab + 1);
    e.created_us = NowUs();
    // Loaded entries are stale by construction: the data refreshes on the
    // shape's next execution.
    const uint64_t key = e.key;
    entries_.emplace(key, std::move(e));
  }
  UpdateGaugesLocked();
  return Status::Ok();
}

void MatViewStore::UpdateGaugesLocked() {
  int64_t rows = 0, bytes = 0, stale = 0;
  for (const auto& [key, e] : entries_) {
    if (e.data != nullptr) {
      rows += e.data->total_rows;
      bytes += e.data->bytes;
    }
    if (!e.fresh) ++stale;
  }
  count_gauge_->Set(static_cast<int64_t>(entries_.size()));
  rows_gauge_->Set(rows);
  bytes_gauge_->Set(bytes);
  stale_gauge_->Set(stale);
}

namespace {

Schema MakeSchema(std::initializer_list<Column> columns) {
  return Schema(std::vector<Column>(columns));
}

class MatViewsProvider : public VirtualTableProvider {
 public:
  explicit MatViewsProvider(const MatViewStore* store)
      : name_("SYS$MATVIEWS"),
        schema_(MakeSchema({{"NAME", DataType::kString},
                            {"DIGEST", DataType::kString},
                            {"STATE", DataType::kString},
                            {"PINNED", DataType::kInt},
                            {"ROWS", DataType::kInt},
                            {"BYTES", DataType::kInt},
                            {"HITS", DataType::kInt},
                            {"DELTA_APPLIES", DataType::kInt},
                            {"DELTA_ROWS", DataType::kInt},
                            {"FULL_REFRESHES", DataType::kInt},
                            {"FALLBACKS", DataType::kInt},
                            {"CREATED_US", DataType::kInt},
                            {"REFRESHED_US", DataType::kInt}})),
        store_(store) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  Result<std::vector<Tuple>> Generate() const override {
    std::vector<Tuple> rows;
    for (const MatViewInfo& v : store_->Snapshot()) {
      rows.push_back({Value(v.name), Value(obs::DigestHex(v.digest)),
                      Value(v.fresh ? "fresh" : "stale"),
                      Value(int64_t{v.pinned ? 1 : 0}), Value(v.rows),
                      Value(v.bytes), Value(v.hits), Value(v.delta_applies),
                      Value(v.delta_rows), Value(v.full_refreshes),
                      Value(v.fallbacks), Value(v.created_us),
                      Value(v.refreshed_us)});
    }
    return rows;
  }

  double EstimatedRows() const override {
    return static_cast<double>(store_->size());
  }

 private:
  std::string name_;
  Schema schema_;
  const MatViewStore* store_;
};

}  // namespace

std::unique_ptr<VirtualTableProvider> MakeMatViewsProvider(
    const MatViewStore* store) {
  return std::make_unique<MatViewsProvider>(store);
}

}  // namespace xnfdb
