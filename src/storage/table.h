// The base-table row store — xnfdb's analogue of Starburst's CORE data
// manager (Sect. 3.1 of the paper). Tables are in-memory row stores with
// stable row identifiers (RIDs), optional hash indexes and maintained
// statistics for the plan optimizer.

#ifndef XNFDB_STORAGE_TABLE_H_
#define XNFDB_STORAGE_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace xnfdb {

// Stable identifier of a row within one table. RIDs of deleted rows are
// never reused, so references held by caches stay unambiguous.
using Rid = uint64_t;

// Secondary hash index over a single column. Supports duplicates.
class HashIndex {
 public:
  explicit HashIndex(int column) : column_(column) {}

  int column() const { return column_; }

  void Insert(const Value& key, Rid rid);
  void Erase(const Value& key, Rid rid);

  // All RIDs whose indexed column equals `key`, in ascending RID order (the
  // order a scan meets them). May contain stale entries only if the caller
  // bypassed Table::Update; Table maintains it.
  const std::vector<Rid>* Lookup(const Value& key) const;

  size_t DistinctKeys() const { return buckets_.size(); }

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const { return a == b; }
  };

  int column_;
  std::unordered_map<Value, std::vector<Rid>, ValueHash, ValueEq> buckets_;
};

// Ordered secondary index over a single column (tree index): supports
// range scans [lo, hi] in addition to equality.
class OrderedIndex {
 public:
  explicit OrderedIndex(int column) : column_(column) {}

  int column() const { return column_; }

  void Insert(const Value& key, Rid rid);
  void Erase(const Value& key, Rid rid);

  // Appends all RIDs with lo <= key <= hi (bounds optional via null
  // pointers; inclusiveness per flag) in key order.
  void Range(const Value* lo, bool lo_inclusive, const Value* hi,
             bool hi_inclusive, std::vector<Rid>* out) const;

  size_t DistinctKeys() const { return entries_.size(); }

 private:
  int column_;
  std::map<Value, std::vector<Rid>> entries_;  // Value::operator< order
};

// Per-column statistics used by the cost model.
struct ColumnStats {
  size_t distinct = 0;
  Value min;
  Value max;
};

// A stored base table.
//
// Rows live in a vector indexed by RID; deletion tombstones the slot. The
// table keeps its indexes and statistics consistent across all mutations.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  // Number of live rows.
  size_t row_count() const { return live_count_; }
  // Upper bound of RIDs ever allocated (scan range).
  size_t rid_bound() const { return rows_.size(); }

  // Inserts after validating against the schema. Returns the new RID.
  Result<Rid> Insert(Tuple row);

  // Replaces the row at `rid`. Indexes are maintained.
  Status Update(Rid rid, Tuple row);

  // Updates one column of the row at `rid`.
  Status UpdateColumn(Rid rid, int column, Value v);

  // Tombstones the row at `rid`.
  Status Delete(Rid rid);

  bool IsLive(Rid rid) const {
    return rid < rows_.size() && !deleted_[rid];
  }

  // The row at `rid`; caller must check IsLive first (asserted).
  const Tuple& Get(Rid rid) const;

  // Creates (and backfills) a hash index on `column_name` if none exists.
  Status CreateIndex(const std::string& column_name);

  // Creates (and backfills) an ordered index on `column_name`.
  Status CreateOrderedIndex(const std::string& column_name);

  // The index on `column`, or nullptr.
  const HashIndex* GetIndex(int column) const;

  // The ordered index on `column`, or nullptr.
  const OrderedIndex* GetOrderedIndex(int column) const;

  // Column statistics, computed on demand and cached. Writes only count
  // against the cache: it is recomputed once the writes since the last
  // computation exceed 1/kStatsRefreshDivisor of the live rows, so a stream
  // of single-row writes does not rescan the table before every plan.
  // Statistics only steer plan costs; row_count() is always exact.
  const ColumnStats& GetColumnStats(int column) const;

  static constexpr size_t kStatsRefreshDivisor = 10;

 private:
  void NoteWrite() { ++writes_since_stats_; }
  void ComputeStats() const;

  std::string name_;
  Schema schema_;
  std::vector<Tuple> rows_;
  std::vector<bool> deleted_;
  size_t live_count_ = 0;
  std::vector<std::unique_ptr<HashIndex>> indexes_;
  std::vector<std::unique_ptr<OrderedIndex>> ordered_indexes_;

  mutable bool stats_computed_ = false;
  mutable size_t writes_since_stats_ = 0;
  mutable std::vector<ColumnStats> stats_;
};

}  // namespace xnfdb

#endif  // XNFDB_STORAGE_TABLE_H_
