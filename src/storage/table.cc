#include "storage/table.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace xnfdb {

void HashIndex::Insert(const Value& key, Rid rid) {
  std::vector<Rid>& rids = buckets_[key];
  // Fresh rows carry the largest RID and append; an updated row re-enters
  // its new bucket at its sorted position.
  rids.insert(std::upper_bound(rids.begin(), rids.end(), rid), rid);
}

void HashIndex::Erase(const Value& key, Rid rid) {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  auto& rids = it->second;
  rids.erase(std::remove(rids.begin(), rids.end(), rid), rids.end());
  if (rids.empty()) buckets_.erase(it);
}

const std::vector<Rid>* HashIndex::Lookup(const Value& key) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return nullptr;
  return &it->second;
}

void OrderedIndex::Insert(const Value& key, Rid rid) {
  entries_[key].push_back(rid);
}

void OrderedIndex::Erase(const Value& key, Rid rid) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  auto& rids = it->second;
  rids.erase(std::remove(rids.begin(), rids.end(), rid), rids.end());
  if (rids.empty()) entries_.erase(it);
}

void OrderedIndex::Range(const Value* lo, bool lo_inclusive, const Value* hi,
                         bool hi_inclusive, std::vector<Rid>* out) const {
  auto it = lo == nullptr
                ? entries_.begin()
                : (lo_inclusive ? entries_.lower_bound(*lo)
                                : entries_.upper_bound(*lo));
  for (; it != entries_.end(); ++it) {
    if (hi != nullptr) {
      if (hi_inclusive ? *hi < it->first : !(it->first < *hi)) break;
    }
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
}

Result<Rid> Table::Insert(Tuple row) {
  XNFDB_RETURN_IF_ERROR(schema_.ValidateTuple(row));
  Rid rid = rows_.size();
  for (auto& index : indexes_) {
    index->Insert(row[index->column()], rid);
  }
  for (auto& index : ordered_indexes_) {
    index->Insert(row[index->column()], rid);
  }
  rows_.push_back(std::move(row));
  deleted_.push_back(false);
  ++live_count_;
  NoteWrite();
  return rid;
}

Status Table::Update(Rid rid, Tuple row) {
  if (!IsLive(rid)) {
    return Status::NotFound("update of dead RID " + std::to_string(rid) +
                            " in table " + name_);
  }
  XNFDB_RETURN_IF_ERROR(schema_.ValidateTuple(row));
  for (auto& index : indexes_) {
    index->Erase(rows_[rid][index->column()], rid);
    index->Insert(row[index->column()], rid);
  }
  for (auto& index : ordered_indexes_) {
    index->Erase(rows_[rid][index->column()], rid);
    index->Insert(row[index->column()], rid);
  }
  rows_[rid] = std::move(row);
  NoteWrite();
  return Status::Ok();
}

Status Table::UpdateColumn(Rid rid, int column, Value v) {
  if (!IsLive(rid)) {
    return Status::NotFound("update of dead RID " + std::to_string(rid) +
                            " in table " + name_);
  }
  if (column < 0 || static_cast<size_t>(column) >= schema_.size()) {
    return Status::InvalidArgument("column index out of range");
  }
  Tuple row = rows_[rid];
  row[column] = std::move(v);
  return Update(rid, std::move(row));
}

Status Table::Delete(Rid rid) {
  if (!IsLive(rid)) {
    return Status::NotFound("delete of dead RID " + std::to_string(rid) +
                            " in table " + name_);
  }
  for (auto& index : indexes_) {
    index->Erase(rows_[rid][index->column()], rid);
  }
  for (auto& index : ordered_indexes_) {
    index->Erase(rows_[rid][index->column()], rid);
  }
  deleted_[rid] = true;
  --live_count_;
  NoteWrite();
  return Status::Ok();
}

const Tuple& Table::Get(Rid rid) const {
  assert(IsLive(rid));
  return rows_[rid];
}

Status Table::CreateIndex(const std::string& column_name) {
  XNFDB_ASSIGN_OR_RETURN(int col,
                         schema_.ResolveColumn(column_name, "table " + name_));
  if (GetIndex(col) != nullptr) return Status::Ok();
  auto index = std::make_unique<HashIndex>(col);
  for (Rid rid = 0; rid < rows_.size(); ++rid) {
    if (!deleted_[rid]) index->Insert(rows_[rid][col], rid);
  }
  indexes_.push_back(std::move(index));
  return Status::Ok();
}

Status Table::CreateOrderedIndex(const std::string& column_name) {
  XNFDB_ASSIGN_OR_RETURN(int col,
                         schema_.ResolveColumn(column_name, "table " + name_));
  if (GetOrderedIndex(col) != nullptr) return Status::Ok();
  auto index = std::make_unique<OrderedIndex>(col);
  for (Rid rid = 0; rid < rows_.size(); ++rid) {
    if (!deleted_[rid]) index->Insert(rows_[rid][col], rid);
  }
  ordered_indexes_.push_back(std::move(index));
  return Status::Ok();
}

const OrderedIndex* Table::GetOrderedIndex(int column) const {
  for (const auto& index : ordered_indexes_) {
    if (index->column() == column) return index.get();
  }
  return nullptr;
}

const HashIndex* Table::GetIndex(int column) const {
  for (const auto& index : indexes_) {
    if (index->column() == column) return index.get();
  }
  return nullptr;
}

const ColumnStats& Table::GetColumnStats(int column) const {
  if (!stats_computed_ ||
      writes_since_stats_ * kStatsRefreshDivisor > live_count_) {
    ComputeStats();
  }
  return stats_[column];
}

void Table::ComputeStats() const {
  stats_.assign(schema_.size(), ColumnStats{});
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  for (size_t c = 0; c < schema_.size(); ++c) {
    std::unordered_set<Value, ValueHash> distinct;
    ColumnStats& cs = stats_[c];
    for (Rid rid = 0; rid < rows_.size(); ++rid) {
      if (deleted_[rid]) continue;
      const Value& v = rows_[rid][c];
      if (v.is_null()) continue;
      distinct.insert(v);
      if (cs.min.is_null() || v < cs.min) cs.min = v;
      if (cs.max.is_null() || cs.max < v) cs.max = v;
    }
    cs.distinct = distinct.size();
  }
  stats_computed_ = true;
  writes_since_stats_ = 0;
}

}  // namespace xnfdb
