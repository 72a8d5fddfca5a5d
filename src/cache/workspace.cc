#include "cache/workspace.h"

#include <algorithm>

#include "obs/metrics.h"

namespace xnfdb {

namespace {

// Handles are stable for the registry's lifetime, so each name lookup
// happens once per process, not per call.
obs::Counter* LookupHits() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("cache.lookup.hits");
  return c;
}

obs::Counter* LookupMisses() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("cache.lookup.misses");
  return c;
}

obs::Counter* SwizzleInstalls() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("cache.swizzle.installs");
  return c;
}

// Sizes `adj` to one list per relationship on the row's first link.
void EnsureAdjacency(std::vector<std::vector<CachedRow*>>* adj,
                     size_t rel_count) {
  if (adj->size() < rel_count) adj->resize(rel_count);
}

// items[p] for each pending position p, in position order.
template <typename T>
std::vector<T*> InPositionOrder(std::vector<size_t> positions,
                                const std::vector<T*>& items) {
  std::sort(positions.begin(), positions.end());
  std::vector<T*> out;
  out.reserve(positions.size());
  for (size_t pos : positions) out.push_back(items[pos]);
  return out;
}

}  // namespace

CachedRow* ComponentTable::FindByTid(TupleId tid) {
  CachedRow* row = Lookup(tid);
  (row != nullptr ? LookupHits() : LookupMisses())->Increment();
  return row;
}

CachedRow* ComponentTable::Lookup(TupleId tid) const {
  if (tid >= 0 && static_cast<size_t>(tid) < dense_.size() &&
      dense_[tid] != nullptr) {
    return dense_[tid];
  }
  if (sparse_.empty()) return nullptr;
  auto it = sparse_.find(tid);
  return it == sparse_.end() ? nullptr : it->second;
}

void ComponentTable::Index(TupleId tid, CachedRow* row) {
  // A tid is dense while it stays within about twice the row count.
  if (tid >= 0 && static_cast<size_t>(tid) <= 2 * rows_.size() + 1024) {
    if (static_cast<size_t>(tid) >= dense_.size()) dense_.resize(tid + 1);
    dense_[tid] = row;
    // A later row with the same tid wins, as in a plain map.
    if (!sparse_.empty()) sparse_.erase(tid);
  } else {
    sparse_[tid] = row;
  }
}

CachedRow* ComponentTable::FindByValue(int col, const Value& v) {
  for (CachedRow* row : rows_) {
    if (!row->deleted && row->values[col] == v) return row;
  }
  return nullptr;
}

size_t ComponentTable::LiveCount() const {
  size_t n = 0;
  for (const CachedRow* row : rows_) {
    if (!row->deleted) ++n;
  }
  return n;
}

std::vector<CachedRow*> ComponentTable::PendingRows() const {
  return InPositionOrder(pending_, rows_);
}

void ComponentTable::AdoptBlock(std::vector<CachedRow> rows) {
  block_ = std::move(rows);
  rows_.reserve(block_.size());
  dense_.reserve(block_.size());
  for (CachedRow& row : block_) {
    row.component = this;
    row.position = rows_.size();
    rows_.push_back(&row);
  }
  // Indexed against the final row count, so the dense bound does not
  // depend on the order of the tids.
  for (CachedRow& row : block_) Index(row.tid, &row);
}

CachedRow* ComponentTable::AddRow(TupleId tid, Tuple values) {
  CachedRow& row = overflow_.emplace_back();
  row.tid = tid;
  row.values = std::move(values);
  row.component = this;
  row.position = rows_.size();
  rows_.push_back(&row);
  Index(tid, &row);
  return &row;
}

const std::vector<TupleId>* Relationship::ChildTids(TupleId parent_tid) const {
  auto it = children_by_parent_.find(parent_tid);
  return it == children_by_parent_.end() ? nullptr : &it->second;
}

const std::vector<TupleId>* Relationship::ParentTids(TupleId child_tid) const {
  auto it = parents_by_child_.find(child_tid);
  return it == parents_by_child_.end() ? nullptr : &it->second;
}

std::vector<CachedConnection*> Relationship::PendingConnections() const {
  return InPositionOrder(pending_, connections_);
}

Result<std::unique_ptr<Workspace>> Workspace::Build(
    const QueryResult& result, const WorkspaceOptions& options) {
  std::unique_ptr<Workspace> ws(new Workspace(options));

  // Containers first: components, then relationships (the stream may
  // interleave arbitrarily, but descriptors are known up front).
  std::vector<int> output_to_component(result.outputs.size(), -1);
  std::vector<int> output_to_relationship(result.outputs.size(), -1);
  for (size_t i = 0; i < result.outputs.size(); ++i) {
    const OutputDesc& desc = result.outputs[i];
    if (!desc.is_connection) {
      output_to_component[i] = static_cast<int>(ws->components_.size());
      ws->components_.push_back(std::make_unique<ComponentTable>(
          desc.name, desc.schema,
          static_cast<int>(ws->components_.size())));
    }
  }
  for (size_t i = 0; i < result.outputs.size(); ++i) {
    const OutputDesc& desc = result.outputs[i];
    if (desc.is_connection) {
      output_to_relationship[i] = static_cast<int>(ws->relationships_.size());
      ws->relationships_.push_back(std::make_unique<Relationship>(
          desc.name, desc.partner_names,
          static_cast<int>(ws->relationships_.size())));
    }
  }

  // Counting pass: rows per component, partner tids per relationship.
  std::vector<size_t> row_counts(ws->components_.size(), 0);
  std::vector<size_t> tid_counts(ws->relationships_.size(), 0);
  for (const StreamItem& item : result.stream) {
    if (item.kind == StreamItem::Kind::kRow) {
      int ci = output_to_component[item.output];
      if (ci < 0) {
        return Status::Internal("row item on a connection output");
      }
      ++row_counts[ci];
    } else {
      int ri = output_to_relationship[item.output];
      if (ri < 0) {
        return Status::Internal("connection item on a component output");
      }
      Relationship* rel = ws->relationships_[ri].get();
      if (item.tids.size() != rel->partner_names().size()) {
        return Status::Internal("connection arity mismatch in relationship " +
                                rel->name());
      }
      tid_counts[ri] += item.tids.size();
    }
  }

  // Rows into one block per component, connections' tids into one list per
  // relationship. Connections may arrive before their partner rows (the
  // server delivers tuples "whenever available", Sect. 5.1), so they are
  // resolved once every row is indexed.
  std::vector<std::vector<CachedRow>> blocks(ws->components_.size());
  for (size_t c = 0; c < blocks.size(); ++c) blocks[c].reserve(row_counts[c]);
  std::vector<std::vector<TupleId>> tids(ws->relationships_.size());
  for (size_t r = 0; r < tids.size(); ++r) tids[r].reserve(tid_counts[r]);
  for (const StreamItem& item : result.stream) {
    if (item.kind == StreamItem::Kind::kRow) {
      CachedRow& row = blocks[output_to_component[item.output]].emplace_back();
      row.tid = item.tid;
      row.values = item.values;
    } else {
      std::vector<TupleId>& list = tids[output_to_relationship[item.output]];
      list.insert(list.end(), item.tids.begin(), item.tids.end());
    }
  }
  for (size_t c = 0; c < blocks.size(); ++c) {
    ws->components_[c]->AdoptBlock(std::move(blocks[c]));
  }
  for (size_t r = 0; r < tids.size(); ++r) {
    XNFDB_RETURN_IF_ERROR(
        ws->LoadConnections(ws->relationships_[r].get(), tids[r]));
  }
  return ws;
}

Status Workspace::LoadConnections(Relationship* rel,
                                  const std::vector<TupleId>& tids) {
  if (tids.empty()) return Status::Ok();
  const size_t arity = rel->partner_names().size();
  const size_t n = tids.size() / arity;
  // Partner containers, resolved once per relationship.
  std::vector<ComponentTable*> partners(arity);
  for (size_t pi = 0; pi < arity; ++pi) {
    XNFDB_ASSIGN_OR_RETURN(partners[pi],
                           component(rel->partner_names()[pi]));
  }

  // Swizzling: tids -> virtual-memory pointers.
  rel->partner_block_.resize(tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    ComponentTable* comp = partners[i % arity];
    CachedRow* row = comp->Lookup(tids[i]);
    if (row == nullptr) {
      LookupHits()->Increment(static_cast<int64_t>(i));
      LookupMisses()->Increment();
      return Status::Internal("dangling connection in relationship " +
                              rel->name() + ": no row with tid " +
                              std::to_string(tids[i]) + " in component " +
                              comp->name());
    }
    rel->partner_block_[i] = row;
  }
  LookupHits()->Increment(static_cast<int64_t>(tids.size()));
  rel->block_.resize(n);
  rel->connections_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rel->block_[i].partners = {&rel->partner_block_[i * arity], arity};
    rel->connections_.push_back(&rel->block_[i]);
  }
  if (arity < 2) return Status::Ok();

  // Adjacency: parent <-> each child partner.
  if (!options_.swizzle) {
    for (const CachedConnection& conn : rel->block_) {
      for (size_t pi = 1; pi < arity; ++pi) {
        Link(rel, conn.partners[0], conn.partners[pi]);
      }
    }
    return Status::Ok();
  }
  // Count each row's links first so every list is allocated once, at its
  // final size.
  std::vector<std::vector<uint32_t>> kids(components_.size());
  std::vector<std::vector<uint32_t>> folks(components_.size());
  auto bump = [](std::vector<uint32_t>* counts, const CachedRow* row) {
    if (counts->empty()) counts->resize(row->component->size());
    ++(*counts)[row->position];
  };
  for (const CachedConnection& conn : rel->block_) {
    for (size_t pi = 1; pi < arity; ++pi) {
      bump(&kids[conn.partners[0]->component->index()], conn.partners[0]);
      bump(&folks[conn.partners[pi]->component->index()], conn.partners[pi]);
    }
  }
  const size_t rel_count = relationships_.size();
  const int ri = rel->index();
  auto reserve = [&](ComponentTable* comp, const std::vector<uint32_t>& counts,
                     std::vector<std::vector<CachedRow*>> CachedRow::*adj) {
    for (size_t pos = 0; pos < counts.size(); ++pos) {
      if (counts[pos] == 0) continue;
      std::vector<std::vector<CachedRow*>>& lists = comp->row(pos)->*adj;
      EnsureAdjacency(&lists, rel_count);
      lists[ri].reserve(counts[pos]);
    }
  };
  for (size_t c = 0; c < components_.size(); ++c) {
    reserve(components_[c].get(), kids[c], &CachedRow::children);
    reserve(components_[c].get(), folks[c], &CachedRow::parents);
  }
  for (const CachedConnection& conn : rel->block_) {
    CachedRow* parent = conn.partners[0];
    for (size_t pi = 1; pi < arity; ++pi) {
      parent->children[ri].push_back(conn.partners[pi]);
      conn.partners[pi]->parents[ri].push_back(parent);
    }
  }
  SwizzleInstalls()->Increment(static_cast<int64_t>(n * (arity - 1)));
  return Status::Ok();
}

void Workspace::Link(Relationship* rel, CachedRow* parent, CachedRow* child) {
  if (!options_.swizzle) {
    rel->children_by_parent_[parent->tid].push_back(child->tid);
    rel->parents_by_child_[child->tid].push_back(parent->tid);
    return;
  }
  EnsureAdjacency(&parent->children, relationships_.size());
  EnsureAdjacency(&child->parents, relationships_.size());
  parent->children[rel->index()].push_back(child);
  child->parents[rel->index()].push_back(parent);
  SwizzleInstalls()->Increment();
}

Result<ComponentTable*> Workspace::component(const std::string& name) {
  for (auto& c : components_) {
    if (IdentEquals(c->name(), name)) return c.get();
  }
  return Status::NotFound("component " + name + " not in workspace");
}

Result<Relationship*> Workspace::relationship(const std::string& name) {
  for (auto& r : relationships_) {
    if (IdentEquals(r->name(), name)) return r.get();
  }
  return Status::NotFound("relationship " + name + " not in workspace");
}

Status Workspace::UpdateRow(CachedRow* row, int column, Value v) {
  if (row->deleted) {
    return Status::InvalidArgument("update of a deleted cached row");
  }
  if (column < 0 ||
      static_cast<size_t>(column) >= row->component->schema().size()) {
    return Status::InvalidArgument("column index out of range");
  }
  if (!row->dirty && !row->inserted) {
    row->original = row->values;
    row->dirty = true;
    row->component->pending_.push_back(row->position);
  }
  row->values[column] = std::move(v);
  return Status::Ok();
}

Result<CachedRow*> Workspace::InsertRow(const std::string& component_name,
                                        Tuple values) {
  XNFDB_ASSIGN_OR_RETURN(ComponentTable * comp, component(component_name));
  XNFDB_RETURN_IF_ERROR(comp->schema().ValidateTuple(values));
  CachedRow* row = comp->AddRow(next_local_tid_--, std::move(values));
  row->inserted = true;
  comp->pending_.push_back(row->position);
  return row;
}

Status Workspace::DeleteRow(CachedRow* row) {
  if (row->deleted) return Status::InvalidArgument("row already deleted");
  // A dirty or inserted row is already pending.
  if (!row->dirty && !row->inserted) {
    row->component->pending_.push_back(row->position);
  }
  row->deleted = true;
  return Status::Ok();
}

Status Workspace::Connect(const std::string& relationship_name,
                          CachedRow* parent, CachedRow* child) {
  XNFDB_ASSIGN_OR_RETURN(Relationship * rel, relationship(relationship_name));
  if (rel->partner_names().size() != 2) {
    return Status::Unsupported("connect on n-ary relationship " +
                               rel->name());
  }
  XNFDB_ASSIGN_OR_RETURN(ComponentTable * parent_comp,
                         component(rel->partner_names()[0]));
  XNFDB_ASSIGN_OR_RETURN(ComponentTable * child_comp,
                         component(rel->partner_names()[1]));
  if (parent->component != parent_comp || child->component != child_comp) {
    return Status::InvalidArgument(
        "connect partners do not match relationship " + rel->name());
  }
  CachedConnection& conn = rel->overflow_.emplace_back();
  conn.partners = rel->overflow_partners_.emplace_back(
      std::array<CachedRow*, 2>{parent, child});
  conn.inserted = true;
  rel->pending_.push_back(rel->connections_.size());
  rel->connections_.push_back(&conn);
  Link(rel, parent, child);
  return Status::Ok();
}

Status Workspace::Disconnect(const std::string& relationship_name,
                             CachedRow* parent, CachedRow* child) {
  XNFDB_ASSIGN_OR_RETURN(Relationship * rel, relationship(relationship_name));
  for (size_t i = 0; i < rel->connections_.size(); ++i) {
    CachedConnection* conn = rel->connections_[i];
    if (conn->deleted) continue;
    if (conn->partners.size() == 2 && conn->partners[0] == parent &&
        conn->partners[1] == child) {
      // A pending connect is already listed.
      if (!conn->inserted) rel->pending_.push_back(i);
      conn->deleted = true;
      // Remove from adjacency so navigation reflects the local state.
      if (options_.swizzle) {
        auto& kids = parent->children[rel->index()];
        kids.erase(std::remove(kids.begin(), kids.end(), child), kids.end());
        auto& folks = child->parents[rel->index()];
        folks.erase(std::remove(folks.begin(), folks.end(), parent),
                    folks.end());
      } else {
        auto& ct = rel->children_by_parent_[parent->tid];
        ct.erase(std::remove(ct.begin(), ct.end(), child->tid), ct.end());
        auto& pt = rel->parents_by_child_[child->tid];
        pt.erase(std::remove(pt.begin(), pt.end(), parent->tid), pt.end());
      }
      return Status::Ok();
    }
  }
  return Status::NotFound("no such connection in relationship " +
                          rel->name());
}

const std::vector<CachedRow*>* Workspace::SwizzledChildren(
    const CachedRow* parent, int rel) const {
  if (static_cast<size_t>(rel) >= parent->children.size()) return nullptr;
  return &parent->children[rel];
}

const std::vector<CachedRow*>* Workspace::SwizzledParents(
    const CachedRow* child, int rel) const {
  if (static_cast<size_t>(rel) >= child->parents.size()) return nullptr;
  return &child->parents[rel];
}

bool Workspace::HasPendingChanges() const {
  for (const auto& comp : components_) {
    if (!comp->pending_.empty()) return true;
  }
  for (const auto& rel : relationships_) {
    if (!rel->pending_.empty()) return true;
  }
  return false;
}

void Workspace::ClearPendingChanges() {
  for (auto& comp : components_) {
    for (size_t pos : comp->pending_) {
      CachedRow* row = comp->row(pos);
      row->dirty = false;
      row->inserted = false;
      if (row->deleted) row->deleted_synced = true;
      row->original.clear();
    }
    comp->pending_.clear();
  }
  for (auto& rel : relationships_) {
    // Written-back disconnects are locally gone; drop the tombstones.
    // Connect marks are cleared (the connection is now stored).
    bool tombstones = false;
    for (size_t pos : rel->pending_) {
      CachedConnection* conn = rel->connections_[pos];
      conn->inserted = false;
      tombstones = tombstones || conn->deleted;
    }
    rel->pending_.clear();
    if (tombstones) {
      auto& conns = rel->connections_;
      conns.erase(std::remove_if(conns.begin(), conns.end(),
                                 [](const CachedConnection* c) {
                                   return c->deleted;
                                 }),
                  conns.end());
    }
  }
}

}  // namespace xnfdb
