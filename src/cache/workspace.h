// The CO cache workspace (paper Sect. 3, 5, Fig. 7).
//
// "The workspace is constructed from the output tuples of the XNF query by
// converting connections into pointers which allow traversing the structure
// in any direction. In addition we generate pointers to allow browsing all
// elements of a component and all elements of a node which are connected to
// a given component by a specified relationship."
//
// The workspace materializes the heterogeneous answer stream of an XNF
// query in client memory: one container per component table, one connection
// set per relationship, and per-row adjacency lists with *swizzled*
// virtual-memory pointers (an option keeps tuple-id indirection instead, to
// quantify the benefit of swizzling, cf. the related-work discussion in
// Sect. 5.3).

#ifndef XNFDB_CACHE_WORKSPACE_H_
#define XNFDB_CACHE_WORKSPACE_H_

#include <array>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "exec/executor.h"

namespace xnfdb {

class Workspace;
class ComponentTable;
class Relationship;

// One component row materialized in the cache.
struct CachedRow {
  TupleId tid = -1;
  Tuple values;
  ComponentTable* component = nullptr;
  // Index of this row in its component: component->row(position) == this.
  size_t position = 0;

  // Pending-update state (Sect. 2 update operators).
  bool dirty = false;
  bool inserted = false;
  bool deleted = false;
  // Set once a delete has been written back (or was a local no-op): the
  // row stays invisible but is no longer pending.
  bool deleted_synced = false;
  Tuple original;  // pre-update values, for write-back predicates

  // Swizzled adjacency, indexed by relationship index within the workspace:
  // as a parent, the children per relationship; as a child, the parents.
  // Only populated when the workspace swizzles (default).
  std::vector<std::vector<CachedRow*>> children;
  std::vector<std::vector<CachedRow*>> parents;
};

// One connection instance. Parent first, then children; a partner's tuple
// id is partners[i]->tid.
struct CachedConnection {
  std::span<CachedRow* const> partners;  // storage owned by the relationship
  bool inserted = false;  // pending connect
  bool deleted = false;   // pending disconnect
};

// Container for all instances of one component ("we also need a container
// class to hold all the instances of e.g. class xemp", Sect. 5.2).
//
// The rows of a built or loaded workspace live in one block, sized before
// any row address is handed out; rows inserted later go to an overflow
// list. Both keep their addresses for the component's lifetime.
class ComponentTable {
 public:
  ComponentTable(std::string name, Schema schema, int index)
      : name_(std::move(name)), schema_(std::move(schema)), index_(index) {}
  // Rows point into the blocks: a copy would share them.
  ComponentTable(const ComponentTable&) = delete;
  ComponentTable& operator=(const ComponentTable&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int index() const { return index_; }

  size_t size() const { return rows_.size(); }
  CachedRow* row(size_t i) { return rows_[i]; }
  const CachedRow* row(size_t i) const { return rows_[i]; }

  // Lookup by tuple id. This is the navigation path used when swizzling is
  // disabled; every call counts under cache.lookup.{hits,misses}.
  CachedRow* FindByTid(TupleId tid);

  // First row whose column `col` equals `v` (linear scan; convenience for
  // examples and tests).
  CachedRow* FindByValue(int col, const Value& v);

  // The live (non-deleted) row count.
  size_t LiveCount() const;

  // Rows touched by an update operator since the last write-back, in row
  // order.
  std::vector<CachedRow*> PendingRows() const;

  // Length of the dense part of the tid index (diagnostics): tids the
  // executor emits (0..n-1) are found by position, all others by hash.
  size_t dense_index_size() const { return dense_.size(); }

 private:
  friend class Workspace;
  friend class CacheSerializer;

  // Takes `rows` as the component's block and indexes them. Only valid on
  // an empty component.
  void AdoptBlock(std::vector<CachedRow> rows);
  // Appends one row to the overflow list.
  CachedRow* AddRow(TupleId tid, Tuple values);
  void Index(TupleId tid, CachedRow* row);
  // FindByTid without the counters (bulk resolution counts in one step).
  CachedRow* Lookup(TupleId tid) const;

  std::string name_;
  Schema schema_;
  int index_;
  std::vector<CachedRow> block_;     // never resized once rows are indexed
  std::deque<CachedRow> overflow_;   // InsertRow's rows
  std::vector<CachedRow*> rows_;     // row order: block, then overflow
  // tid -> row. Non-negative tids up to about twice the row count are
  // indexed by position; local (negative) and far tids go to the hash map,
  // so a crafted cache file cannot force a huge allocation.
  std::vector<CachedRow*> dense_;
  std::unordered_map<TupleId, CachedRow*> sparse_;
  std::vector<size_t> pending_;      // positions, in operator order
};

// All connections of one relationship. Like rows, the connections of a
// built or loaded workspace live in one block with their partner pointers
// in another; connects made later go to overflow lists.
class Relationship {
 public:
  Relationship(std::string name, std::vector<std::string> partner_names,
               int index)
      : name_(std::move(name)),
        partner_names_(std::move(partner_names)),
        index_(index) {}
  // Connections point into the partner block: a copy would share it.
  Relationship(const Relationship&) = delete;
  Relationship& operator=(const Relationship&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<std::string>& partner_names() const {
    return partner_names_;
  }
  // Parent component name (first partner).
  const std::string& parent_name() const { return partner_names_[0]; }
  int index() const { return index_; }

  size_t size() const { return connections_.size(); }
  CachedConnection* connection(size_t i) { return connections_[i]; }
  const CachedConnection* connection(size_t i) const {
    return connections_[i];
  }

  // Unswizzled navigation: tids of children connected to `parent_tid`
  // (first child partner only for n-ary relationships). These maps exist
  // only in a workspace that does not swizzle; on a swizzling workspace
  // both return nullptr.
  const std::vector<TupleId>* ChildTids(TupleId parent_tid) const;
  const std::vector<TupleId>* ParentTids(TupleId child_tid) const;

  // Connections connected or disconnected since the last write-back, in
  // connection order.
  std::vector<CachedConnection*> PendingConnections() const;

 private:
  friend class Workspace;

  std::string name_;
  std::vector<std::string> partner_names_;
  int index_;
  std::vector<CachedConnection> block_;
  std::vector<CachedRow*> partner_block_;  // block_[i]'s partners
  std::deque<CachedConnection> overflow_;  // Connect's connections
  std::deque<std::array<CachedRow*, 2>> overflow_partners_;
  std::vector<CachedConnection*> connections_;
  std::vector<size_t> pending_;  // positions, in operator order
  std::unordered_map<TupleId, std::vector<TupleId>> children_by_parent_;
  std::unordered_map<TupleId, std::vector<TupleId>> parents_by_child_;
};

struct WorkspaceOptions {
  // Convert connections into direct memory pointers (default). When false,
  // navigation goes through tuple-id hash lookups instead — the ablation
  // for the >100k tuples/second claim.
  bool swizzle = true;
};

// The client-side main-memory representation of one CO query result.
class Workspace {
 public:
  // Builds a workspace from the heterogeneous answer stream.
  static Result<std::unique_ptr<Workspace>> Build(
      const QueryResult& result, const WorkspaceOptions& options = {});

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  const WorkspaceOptions& options() const { return options_; }

  size_t component_count() const { return components_.size(); }
  ComponentTable* component(size_t i) { return components_[i].get(); }
  Result<ComponentTable*> component(const std::string& name);

  size_t relationship_count() const { return relationships_.size(); }
  Relationship* relationship(size_t i) { return relationships_[i].get(); }
  Result<Relationship*> relationship(const std::string& name);

  // --- update operators (Sect. 2) -----------------------------------------
  // All mutations are local to the cache until write-back (Sect. 3: "If the
  // CO is updatable, changes can be made locally ... and later on
  // transferred back to the database server").
  Status UpdateRow(CachedRow* row, int column, Value v);
  Result<CachedRow*> InsertRow(const std::string& component, Tuple values);
  Status DeleteRow(CachedRow* row);
  Status Connect(const std::string& relationship, CachedRow* parent,
                 CachedRow* child);
  Status Disconnect(const std::string& relationship, CachedRow* parent,
                    CachedRow* child);

  // Navigation helpers used by cursors: children of `parent` through
  // relationship index `rel` (swizzled or tid-based as configured).
  // Out-params are filled with either pointers or tids.
  const std::vector<CachedRow*>* SwizzledChildren(const CachedRow* parent,
                                                  int rel) const;
  const std::vector<CachedRow*>* SwizzledParents(const CachedRow* child,
                                                 int rel) const;

  // True if any row or connection carries pending changes.
  bool HasPendingChanges() const;
  // Clears dirty/inserted/deleted marks after a successful write-back.
  void ClearPendingChanges();

 private:
  explicit Workspace(WorkspaceOptions options) : options_(options) {}

  // Resolves the connections of an empty relationship, `tids` holding one
  // tuple id per partner and connection (parent first), into its blocks and
  // installs the adjacency: swizzled pointer lists sized exactly, or the
  // tid maps when the workspace does not swizzle.
  Status LoadConnections(Relationship* rel, const std::vector<TupleId>& tids);
  // Adjacency of one connection added after the load.
  void Link(Relationship* rel, CachedRow* parent, CachedRow* child);

  WorkspaceOptions options_;
  std::vector<std::unique_ptr<ComponentTable>> components_;
  std::vector<std::unique_ptr<Relationship>> relationships_;
  TupleId next_local_tid_ = -2;  // negative tids for locally inserted rows

  friend class CacheSerializer;
};

}  // namespace xnfdb

#endif  // XNFDB_CACHE_WORKSPACE_H_
