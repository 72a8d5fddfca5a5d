#include "exec/operators.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <sstream>

#include "obs/metrics.h"
#include "obs/plan_feedback.h"
#include "storage/sysview.h"

namespace xnfdb {

std::string ExecStats::ToString() const {
  std::ostringstream os;
  os << "scanned=" << rows_scanned << " index_lookups=" << index_lookups
     << " join_probes=" << join_probes << " exists_probes=" << exists_probes
     << " spool_builds=" << spool_builds
     << " spool_read_rows=" << spool_read_rows << " output=" << rows_output
     << " operators=" << operators_created
     << " batches=" << batches_emitted << " morsels=" << morsels_claimed;
  return os.str();
}

void ExecStats::PublishTo(obs::MetricsRegistry* registry) const {
  registry->GetCounter("exec.rows_scanned")->Increment(rows_scanned);
  registry->GetCounter("exec.index_lookups")->Increment(index_lookups);
  registry->GetCounter("exec.join_probes")->Increment(join_probes);
  registry->GetCounter("exec.exists_probes")->Increment(exists_probes);
  registry->GetCounter("exec.spool_builds")->Increment(spool_builds);
  registry->GetCounter("exec.spool_read_rows")->Increment(spool_read_rows);
  registry->GetCounter("exec.rows_output")->Increment(rows_output);
  registry->GetCounter("exec.operators_created")->Increment(operators_created);
  registry->GetCounter("exec.batches_emitted")->Increment(batches_emitted);
  registry->GetCounter("exec.morsels_claimed")->Increment(morsels_claimed);
  registry->GetCounter("exec.fixpoint_rounds")->Increment(fixpoint_rounds);
  registry->GetCounter("exec.batches_scan")->Increment(batches_scan);
  registry->GetCounter("exec.batches_spool")->Increment(batches_spool);
  registry->GetCounter("exec.batches_filter")->Increment(batches_filter);
  registry->GetCounter("exec.batches_project")->Increment(batches_project);
  registry->GetCounter("exec.batches_join")->Increment(batches_join);
  registry->GetCounter("exec.batches_exists")->Increment(batches_exists);
}

// --- Operator lifecycle wrappers -------------------------------------------

namespace {

int64_t ElapsedNs(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Status Operator::Open() {
  ++actuals_.loops;
  if (ctx_ != nullptr) {
    ctx_->Tick();
    XNFDB_RETURN_IF_ERROR(ctx_->Check());
  }
  if (!analyze_ && !profile_) return OpenImpl();
  auto t0 = std::chrono::steady_clock::now();
  Status s = OpenImpl();
  actuals_.ns += ElapsedNs(t0);
  return s;
}

Result<bool> Operator::Next(Tuple* row) {
  // Row-at-a-time governance: the cancellation flag is one atomic load, so
  // it is checked on every call; the deadline needs a clock read, so it is
  // only re-checked once per kDefaultBatchSize rows (a synthetic batch
  // boundary for the Volcano path).
  if (ctx_ != nullptr) {
    if (ctx_->cancelled()) return Result<bool>(ctx_->CheckCancelled());
    if (++gov_tick_ >= kDefaultBatchSize) {
      gov_tick_ = 0;
      ctx_->Tick();  // watchdog heartbeat at the synthetic batch boundary
      Status s = ctx_->Check();
      if (!s.ok()) return Result<bool>(std::move(s));
    }
  }
  if (!analyze_) {
    Result<bool> r = NextImpl(row);
    if (r.ok() && r.value()) ++actuals_.rows;
    return r;
  }
  auto t0 = std::chrono::steady_clock::now();
  Result<bool> r = NextImpl(row);
  actuals_.ns += ElapsedNs(t0);
  if (r.ok() && r.value()) ++actuals_.rows;
  return r;
}

Result<bool> Operator::NextBatch(TupleBatch* out) {
  out->Clear();
  if (ctx_ != nullptr) {
    ctx_->Tick();
    Status s = ctx_->Check();
    if (!s.ok()) return Result<bool>(std::move(s));
  }
  if (!analyze_ && !profile_) {
    Result<bool> r = NextBatchImpl(out);
    if (r.ok() && r.value()) {
      actuals_.rows += static_cast<int64_t>(out->ActiveCount());
      ++actuals_.batches;
    }
    return r;
  }
  auto t0 = std::chrono::steady_clock::now();
  Result<bool> r = NextBatchImpl(out);
  actuals_.ns += ElapsedNs(t0);
  if (r.ok() && r.value()) {
    actuals_.rows += static_cast<int64_t>(out->ActiveCount());
    ++actuals_.batches;
  }
  return r;
}

Result<bool> Operator::NextBatchImpl(TupleBatch* out) {
  while (!out->Full()) {
    Tuple& row = out->AppendRow();  // filled in place to reuse slot buffers
    Result<bool> more = NextImpl(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) {
      out->DropLastRow();
      break;
    }
  }
  return !out->Empty();
}

void Operator::Close() {
  if (!analyze_ && !profile_) {
    CloseImpl();
    return;
  }
  auto t0 = std::chrono::steady_clock::now();
  CloseImpl();
  actuals_.ns += ElapsedNs(t0);
}

void Operator::EnableAnalyze() {
  analyze_ = true;
  for (Operator* c : Children()) c->EnableAnalyze();
}

void Operator::EnableProfile() {
  profile_ = true;
  for (Operator* c : Children()) c->EnableProfile();
}

void Operator::AttachContext(QueryContext* ctx) {
  ctx_ = ctx;
  gov_tick_ = 0;
  for (Operator* c : Children()) c->AttachContext(ctx);
}

void Operator::SelfLine(int depth, const std::string& text,
                        std::string* out) const {
  std::ostringstream os;
  os << text;
  if (est_rows_ >= 0) {
    os << " (est rows=" << static_cast<int64_t>(est_rows_ + 0.5) << ")";
  }
  if (!analyze_) {
    ExplainLine(depth, os.str(), out);
    return;
  }
  os << " (actual rows=" << actuals_.rows << " loops=" << actuals_.loops;
  if (actuals_.batches > 0) os << " batches=" << actuals_.batches;
  os << " time=" << std::fixed << std::setprecision(3)
     << static_cast<double>(actuals_.ns) / 1e6 << "ms";
  if (est_rows_ >= 0) {
    const double per_loop = static_cast<double>(actuals_.rows) /
                            static_cast<double>(std::max<int64_t>(
                                actuals_.loops, 1));
    os << " q=" << std::fixed << std::setprecision(2)
       << obs::QError(est_rows_, per_loop);
  }
  os << ")";
  ExplainLine(depth, os.str(), out);
}

// --- plan shape --------------------------------------------------------------

void ScanOp::ShapeToken(std::string* out) const {
  *out += "scan:" + table_->name();
}

void VirtualScanOp::ShapeToken(std::string* out) const {
  *out += "virtual_scan:" + provider_->name();
}

void IndexScanOp::ShapeToken(std::string* out) const {
  *out += "index_scan:" + table_->name() + "." +
          table_->schema().column(column_).name;
}

void RangeScanOp::ShapeToken(std::string* out) const {
  *out += "range_scan:" + table_->name() + "." +
          table_->schema().column(column_).name;
}

void IndexJoinOp::ShapeToken(std::string* out) const {
  *out += "index_join:" + table_->name() + "." +
          table_->schema().column(column_).name;
}

std::string PlanShapeText(Operator* root) {
  std::string shape;
  root->ShapeToken(&shape);
  std::vector<Operator*> children = root->Children();
  if (!children.empty()) {
    shape += "(";
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0) shape += ",";
      shape += PlanShapeText(children[i]);
    }
    shape += ")";
  }
  return shape;
}

uint64_t PlanShapeHash(const std::string& shape) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (char c : shape) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

Result<std::vector<Tuple>> DrainOperator(Operator* op, int batch_size,
                                         QueryContext* ctx) {
  std::vector<Tuple> rows;
  XNFDB_RETURN_IF_ERROR(op->Open());
  if (batch_size <= 1) {
    Tuple row;
    while (true) {
      XNFDB_ASSIGN_OR_RETURN(bool more, op->Next(&row));
      if (!more) break;
      if (ctx != nullptr) {
        XNFDB_RETURN_IF_ERROR(ctx->ReserveBytes(ApproxTupleBytes(row)));
      }
      rows.push_back(std::move(row));
      row = Tuple();
    }
  } else {
    TupleBatch batch(static_cast<size_t>(batch_size));
    while (true) {
      XNFDB_ASSIGN_OR_RETURN(bool more, op->NextBatch(&batch));
      if (!more) break;
      for (size_t i = 0; i < batch.ActiveCount(); ++i) {
        if (ctx != nullptr) {
          XNFDB_RETURN_IF_ERROR(
              ctx->ReserveBytes(ApproxTupleBytes(batch.Active(i))));
        }
        rows.push_back(std::move(batch.Active(i)));
      }
    }
  }
  op->Close();
  return rows;
}

// --- sources ---------------------------------------------------------------

bool ScanOp::ClaimMorsel() {
  uint64_t m = morsels_->next.fetch_add(1, std::memory_order_relaxed);
  Rid start = static_cast<Rid>(m) * morsels_->rows_per_morsel;
  if (start >= morsels_->bound) return false;
  rid_ = start;
  morsel_end_ = std::min(morsels_->bound, start + morsels_->rows_per_morsel);
  current_morsel_ = static_cast<int64_t>(m);
  ++claimed_;
  if (stats_ != nullptr) ++stats_->morsels_claimed;
  return true;
}

Result<bool> ScanOp::NextImpl(Tuple* row) {
  while (true) {
    Rid end = morsels_ != nullptr ? morsel_end_ : table_->rid_bound();
    while (rid_ < end) {
      Rid r = rid_++;
      if (!table_->IsLive(r)) continue;
      *row = table_->Get(r);
      if (stats_ != nullptr) ++stats_->rows_scanned;
      return true;
    }
    if (morsels_ == nullptr || !ClaimMorsel()) return false;
  }
}

Result<bool> ScanOp::NextBatchImpl(TupleBatch* out) {
  while (!out->Full()) {
    Rid end = morsels_ != nullptr ? morsel_end_ : table_->rid_bound();
    while (rid_ < end && !out->Full()) {
      Rid r = rid_++;
      if (!table_->IsLive(r)) continue;
      out->AppendRow() = table_->Get(r);  // copy-assign reuses slot buffers
      if (stats_ != nullptr) ++stats_->rows_scanned;
    }
    if (rid_ < end) break;  // batch filled mid-range
    if (morsels_ == nullptr) break;
    // A batch never spans morsels: downstream tags each emitted batch with
    // current_morsel() to reassemble deterministic output order.
    if (!out->Empty()) break;
    if (!ClaimMorsel()) break;
  }
  if (!out->Empty() && stats_ != nullptr) ++stats_->batches_scan;
  return !out->Empty();
}

Status VirtualScanOp::OpenImpl() {
  XNFDB_ASSIGN_OR_RETURN(rows_, provider_->Generate());
  pos_ = 0;
  return Status::Ok();
}

Result<bool> VirtualScanOp::NextImpl(Tuple* row) {
  if (pos_ >= rows_.size()) return false;
  *row = rows_[pos_++];
  if (stats_ != nullptr) ++stats_->rows_scanned;
  return true;
}

Status IndexScanOp::OpenImpl() {
  const HashIndex* index = table_->GetIndex(column_);
  if (index == nullptr) {
    return Status::Internal("index scan without index on " + table_->name());
  }
  rids_ = index->Lookup(key_);
  pos_ = 0;
  if (stats_ != nullptr) ++stats_->index_lookups;
  return Status::Ok();
}

Result<bool> IndexScanOp::NextImpl(Tuple* row) {
  if (rids_ == nullptr) return false;
  while (pos_ < rids_->size()) {
    Rid r = (*rids_)[pos_++];
    if (!table_->IsLive(r)) continue;
    *row = table_->Get(r);
    if (stats_ != nullptr) ++stats_->rows_scanned;
    return true;
  }
  return false;
}

Status RangeScanOp::OpenImpl() {
  const OrderedIndex* index = table_->GetOrderedIndex(column_);
  if (index == nullptr) {
    return Status::Internal("range scan without ordered index on " +
                            table_->name());
  }
  rids_.clear();
  index->Range(lo_.has_value() ? &*lo_ : nullptr, lo_inclusive_,
               hi_.has_value() ? &*hi_ : nullptr, hi_inclusive_, &rids_);
  pos_ = 0;
  if (stats_ != nullptr) ++stats_->index_lookups;
  return Status::Ok();
}

Result<bool> RangeScanOp::NextImpl(Tuple* row) {
  while (pos_ < rids_.size()) {
    Rid r = rids_[pos_++];
    if (!table_->IsLive(r)) continue;
    *row = table_->Get(r);
    if (stats_ != nullptr) ++stats_->rows_scanned;
    return true;
  }
  return false;
}

Result<bool> MaterializedOp::NextImpl(Tuple* row) {
  if (pos_ >= rows_->size()) return false;
  *row = (*rows_)[pos_++];
  if (stats_ != nullptr) ++stats_->spool_read_rows;
  return true;
}

Result<bool> MaterializedOp::NextBatchImpl(TupleBatch* out) {
  while (pos_ < rows_->size() && !out->Full()) {
    out->AppendRow() = (*rows_)[pos_++];
    if (stats_ != nullptr) ++stats_->spool_read_rows;
  }
  if (!out->Empty() && stats_ != nullptr) ++stats_->batches_spool;
  return !out->Empty();
}

Result<bool> MatViewScanOp::NextImpl(Tuple* row) {
  if (pos_ >= rows_->size()) return false;
  *row = (*rows_)[pos_++];
  if (stats_ != nullptr) ++stats_->spool_read_rows;
  return true;
}

Result<bool> MatViewScanOp::NextBatchImpl(TupleBatch* out) {
  while (pos_ < rows_->size() && !out->Full()) {
    out->AppendRow() = (*rows_)[pos_++];
    if (stats_ != nullptr) ++stats_->spool_read_rows;
  }
  if (!out->Empty() && stats_ != nullptr) ++stats_->batches_spool;
  return !out->Empty();
}

// --- row transforms -----------------------------------------------------------

Result<bool> FilterOp::NextImpl(Tuple* row) {
  while (true) {
    XNFDB_ASSIGN_OR_RETURN(bool more, child_->Next(row));
    if (!more) return false;
    bool pass = true;
    for (const qgm::Expr* p : preds_) {
      XNFDB_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*p, layout_, *row));
      if (!ok) {
        pass = false;
        break;
      }
    }
    if (pass) return true;
  }
}

Result<bool> FilterOp::NextBatchImpl(TupleBatch* out) {
  XNFDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  // Mark instead of copy: compact the selection vector in place.
  std::vector<uint32_t>& sel = out->sel();
  size_t kept = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    const Tuple& row = out->rows()[sel[i]];
    bool pass = true;
    for (const qgm::Expr* p : preds_) {
      XNFDB_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*p, layout_, row));
      if (!ok) {
        pass = false;
        break;
      }
    }
    if (pass) sel[kept++] = sel[i];
  }
  sel.resize(kept);
  if (stats_ != nullptr) ++stats_->batches_filter;
  return true;
}

Result<bool> ProjectOp::NextImpl(Tuple* row) {
  Tuple input;
  XNFDB_ASSIGN_OR_RETURN(bool more, child_->Next(&input));
  if (!more) return false;
  row->clear();
  row->reserve(exprs_.size());
  for (const qgm::Expr* e : exprs_) {
    XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, layout_, input));
    row->push_back(std::move(v));
  }
  return true;
}

Result<bool> ProjectOp::NextBatchImpl(TupleBatch* out) {
  if (in_ == nullptr || in_->capacity() != out->capacity()) {
    in_ = std::make_unique<TupleBatch>(out->capacity());
  }
  XNFDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(in_.get()));
  if (!more) return false;
  for (size_t i = 0; i < in_->ActiveCount(); ++i) {
    const Tuple& input = in_->Active(i);
    Tuple& row = out->AppendRow();  // reuses the slot's vector capacity
    row.clear();
    row.reserve(exprs_.size());
    for (const qgm::Expr* e : exprs_) {
      XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, layout_, input));
      row.push_back(std::move(v));
    }
  }
  if (stats_ != nullptr) ++stats_->batches_project;
  return true;
}

Result<bool> DistinctOp::NextImpl(Tuple* row) {
  while (true) {
    XNFDB_ASSIGN_OR_RETURN(bool more, child_->Next(row));
    if (!more) return false;
    if (seen_.emplace(*row, true).second) {
      // The dedup table keeps a copy of every distinct row.
      if (context() != nullptr) {
        XNFDB_RETURN_IF_ERROR(context()->ReserveBytes(ApproxTupleBytes(*row)));
      }
      return true;
    }
  }
}

Status SortOp::OpenImpl() {
  XNFDB_RETURN_IF_ERROR(child_->Open());
  rows_.clear();
  Tuple in;
  while (true) {
    XNFDB_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) break;
    if (context() != nullptr) {
      XNFDB_RETURN_IF_ERROR(context()->ReserveBytes(ApproxTupleBytes(in)));
    }
    rows_.push_back(std::move(in));
    in = Tuple();
  }
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Tuple& a, const Tuple& b) {
                     for (const auto& [col, desc] : keys_) {
                       const Value& va = a[col];
                       const Value& vb = b[col];
                       if (va < vb) return !desc;
                       if (vb < va) return desc;
                     }
                     return false;
                   });
  pos_ = 0;
  return Status::Ok();
}

Result<bool> SortOp::NextImpl(Tuple* row) {
  if (pos_ >= rows_.size()) return false;
  *row = rows_[pos_++];
  return true;
}

Result<bool> LimitOp::NextImpl(Tuple* row) {
  while (skipped_ < offset_) {
    XNFDB_ASSIGN_OR_RETURN(bool more, child_->Next(row));
    if (!more) return false;
    ++skipped_;
  }
  if (limit_ >= 0 && emitted_ >= limit_) return false;
  XNFDB_ASSIGN_OR_RETURN(bool more, child_->Next(row));
  if (!more) return false;
  ++emitted_;
  return true;
}

// --- joins ---------------------------------------------------------------------

Status HashJoinOp::OpenImpl() {
  XNFDB_RETURN_IF_ERROR(left_->Open());
  // Resolve all-ColRef probe keys to flat column offsets once, so per-row
  // probing indexes directly instead of walking the expression tree.
  left_key_cols_.clear();
  left_keys_flat_ = !left_keys_.empty();
  for (const qgm::Expr* k : left_keys_) {
    if (k->kind != qgm::Expr::Kind::kColRef || !left_layout_.Has(k->quant_id)) {
      left_keys_flat_ = false;
      break;
    }
    left_key_cols_.push_back(left_layout_.Offset(k->quant_id) +
                             static_cast<size_t>(k->column));
  }
  matches_ = nullptr;
  match_pos_ = 0;
  if (keep_build_ && built_) return Status::Ok();
  XNFDB_RETURN_IF_ERROR(right_->Open());
  build_.clear();
  Tuple row;
  while (true) {
    XNFDB_ASSIGN_OR_RETURN(bool more, right_->Next(&row));
    if (!more) break;
    Tuple key;
    key.reserve(right_keys_.size());
    bool null_key = false;
    for (const qgm::Expr* k : right_keys_) {
      XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, right_layout_, row));
      if (v.is_null()) null_key = true;
      key.push_back(std::move(v));
    }
    if (null_key) continue;  // NULL keys never join
    if (context() != nullptr) {
      XNFDB_RETURN_IF_ERROR(context()->ReserveBytes(ApproxTupleBytes(row) +
                                                    ApproxTupleBytes(key)));
    }
    build_[std::move(key)].push_back(std::move(row));
    row = Tuple();
  }
  if (keep_build_) {
    right_->Close();
    built_ = true;
  }
  return Status::Ok();
}

Result<bool> HashJoinOp::ProbeKey(const Tuple& row, Tuple* key) const {
  key->clear();
  key->reserve(left_keys_.size());
  if (left_keys_flat_) {
    for (size_t col : left_key_cols_) {
      if (col >= row.size()) {
        return Status::Internal("join key column beyond combined row");
      }
      if (row[col].is_null()) return false;
      key->push_back(row[col]);
    }
    return true;
  }
  bool null_key = false;
  for (const qgm::Expr* k : left_keys_) {
    XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, left_layout_, row));
    if (v.is_null()) null_key = true;
    key->push_back(std::move(v));
  }
  return !null_key;
}

Result<bool> HashJoinOp::NextImpl(Tuple* row) {
  while (true) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      const Tuple& right_row = (*matches_)[match_pos_++];
      Tuple combined = current_left_;
      combined.insert(combined.end(), right_row.begin(), right_row.end());
      bool pass = true;
      for (const qgm::Expr* p : residual_) {
        XNFDB_ASSIGN_OR_RETURN(bool ok,
                               EvalPredicate(*p, combined_layout_, combined));
        if (!ok) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      *row = std::move(combined);
      return true;
    }
    XNFDB_ASSIGN_OR_RETURN(bool more, left_->Next(&current_left_));
    if (!more) return false;
    if (stats_ != nullptr) ++stats_->join_probes;
    matches_ = nullptr;
    match_pos_ = 0;
    Tuple key;
    XNFDB_ASSIGN_OR_RETURN(bool usable, ProbeKey(current_left_, &key));
    if (!usable) continue;
    auto it = build_.find(key);
    if (it != build_.end()) matches_ = &it->second;
  }
}

Status HashJoinOp::ProbeInto(const Tuple& left, TupleBatch* out) {
  if (stats_ != nullptr) ++stats_->join_probes;
  Tuple key;
  XNFDB_ASSIGN_OR_RETURN(bool usable, ProbeKey(left, &key));
  if (!usable) return Status::Ok();
  auto it = build_.find(key);
  if (it == build_.end()) return Status::Ok();
  for (const Tuple& right_row : it->second) {
    Tuple& combined = out->AppendRow();  // retracted below if residual fails
    combined.clear();
    combined.reserve(left.size() + right_row.size());
    combined.insert(combined.end(), left.begin(), left.end());
    combined.insert(combined.end(), right_row.begin(), right_row.end());
    bool pass = true;
    for (const qgm::Expr* p : residual_) {
      XNFDB_ASSIGN_OR_RETURN(bool ok,
                             EvalPredicate(*p, combined_layout_, combined));
      if (!ok) {
        pass = false;
        break;
      }
    }
    if (!pass) out->DropLastRow();
  }
  return Status::Ok();
}

Result<bool> HashJoinOp::NextBatchImpl(TupleBatch* out) {
  if (left_batch_ == nullptr || left_batch_->capacity() != out->capacity()) {
    left_batch_ = std::make_unique<TupleBatch>(out->capacity());
  }
  XNFDB_ASSIGN_OR_RETURN(bool more, left_->NextBatch(left_batch_.get()));
  if (!more) return false;
  for (size_t i = 0; i < left_batch_->ActiveCount(); ++i) {
    XNFDB_RETURN_IF_ERROR(ProbeInto(left_batch_->Active(i), out));
  }
  if (stats_ != nullptr) ++stats_->batches_join;
  return true;
}

Status IndexJoinOp::OpenImpl() {
  index_ = table_->GetIndex(column_);
  if (index_ == nullptr) {
    return Status::Internal("index join without index on " + table_->name());
  }
  matches_ = nullptr;
  match_pos_ = 0;
  return left_->Open();
}

Result<const std::vector<Rid>*> IndexJoinOp::Probe(const Tuple& left) {
  if (stats_ != nullptr) ++stats_->join_probes;
  XNFDB_ASSIGN_OR_RETURN(Value key, EvalExpr(*outer_key_, left_layout_, left));
  if (key.is_null()) return nullptr;  // NULL keys never join
  if (stats_ != nullptr) ++stats_->index_lookups;
  return index_->Lookup(key);
}

Result<bool> IndexJoinOp::Combine(const Tuple& left, Rid rid,
                                  Tuple* combined) {
  if (!table_->IsLive(rid)) return false;
  if (stats_ != nullptr) ++stats_->rows_scanned;
  const Tuple& inner = table_->Get(rid);
  combined->clear();
  combined->reserve(left.size() + inner_cols_.size());
  combined->insert(combined->end(), left.begin(), left.end());
  for (int c : inner_cols_) combined->push_back(inner[c]);
  for (const qgm::Expr* p : residual_) {
    XNFDB_ASSIGN_OR_RETURN(bool ok,
                           EvalPredicate(*p, combined_layout_, *combined));
    if (!ok) return false;
  }
  return true;
}

Result<bool> IndexJoinOp::NextImpl(Tuple* row) {
  while (true) {
    while (matches_ != nullptr && match_pos_ < matches_->size()) {
      XNFDB_ASSIGN_OR_RETURN(
          bool pass, Combine(current_left_, (*matches_)[match_pos_++], row));
      if (pass) return true;
    }
    XNFDB_ASSIGN_OR_RETURN(bool more, left_->Next(&current_left_));
    if (!more) return false;
    XNFDB_ASSIGN_OR_RETURN(matches_, Probe(current_left_));
    match_pos_ = 0;
  }
}

Result<bool> IndexJoinOp::NextBatchImpl(TupleBatch* out) {
  if (left_batch_ == nullptr || left_batch_->capacity() != out->capacity()) {
    left_batch_ = std::make_unique<TupleBatch>(out->capacity());
  }
  XNFDB_ASSIGN_OR_RETURN(bool more, left_->NextBatch(left_batch_.get()));
  if (!more) return false;
  for (size_t i = 0; i < left_batch_->ActiveCount(); ++i) {
    const Tuple& left = left_batch_->Active(i);
    XNFDB_ASSIGN_OR_RETURN(const std::vector<Rid>* rids, Probe(left));
    if (rids == nullptr) continue;
    for (Rid rid : *rids) {
      Tuple& combined = out->AppendRow();  // retracted below if filtered
      XNFDB_ASSIGN_OR_RETURN(bool pass, Combine(left, rid, &combined));
      if (!pass) out->DropLastRow();
    }
  }
  if (stats_ != nullptr) ++stats_->batches_join;
  return true;
}

Status NLJoinOp::OpenImpl() {
  XNFDB_RETURN_IF_ERROR(left_->Open());
  left_valid_ = false;
  inner_pos_ = 0;
  if (keep_build_ && built_) return Status::Ok();
  XNFDB_RETURN_IF_ERROR(right_->Open());
  inner_.clear();
  Tuple in;
  while (true) {
    XNFDB_ASSIGN_OR_RETURN(bool more, right_->Next(&in));
    if (!more) break;
    if (context() != nullptr) {
      XNFDB_RETURN_IF_ERROR(context()->ReserveBytes(ApproxTupleBytes(in)));
    }
    inner_.push_back(std::move(in));
    in = Tuple();
  }
  if (keep_build_) {
    right_->Close();
    built_ = true;
  }
  return Status::Ok();
}

Result<bool> NLJoinOp::NextImpl(Tuple* row) {
  while (true) {
    if (!left_valid_) {
      XNFDB_ASSIGN_OR_RETURN(bool more, left_->Next(&current_left_));
      if (!more) return false;
      left_valid_ = true;
      inner_pos_ = 0;
    }
    while (inner_pos_ < inner_.size()) {
      if (stats_ != nullptr) ++stats_->join_probes;
      const Tuple& right_row = inner_[inner_pos_++];
      Tuple combined = current_left_;
      combined.insert(combined.end(), right_row.begin(), right_row.end());
      bool pass = true;
      for (const qgm::Expr* p : preds_) {
        XNFDB_ASSIGN_OR_RETURN(bool ok,
                               EvalPredicate(*p, combined_layout_, combined));
        if (!ok) {
          pass = false;
          break;
        }
      }
      if (pass) {
        *row = std::move(combined);
        return true;
      }
    }
    left_valid_ = false;
  }
}

// --- existential checks ----------------------------------------------------------

Status ExistsFilterOp::OpenImpl() {
  // Index builds are deferred to the first probe (EnsureIndex): when the
  // probe side is empty, or a governor deadline/cancel has already expired,
  // no group index is ever paid for. Safe because every probe loop — batch,
  // row-at-a-time, or a morsel worker's — runs on this instance's single
  // thread (morsel workers each own a full plan clone).
  return child_->Open();
}

Status ExistsFilterOp::EnsureIndex(GroupCheck* g) {
  if (g->index_built) return Status::Ok();
  // A budget termination must fire before the build cost is paid, and this
  // loop pulls from no child operator, so it checks the governor itself
  // (up front, then at batch-boundary granularity).
  if (context() != nullptr) {
    XNFDB_RETURN_IF_ERROR(context()->Check());
  }
  for (size_t i = 0; i < g->rows->size(); ++i) {
    if (context() != nullptr && i > 0 && (i % 1024) == 0) {
      XNFDB_RETURN_IF_ERROR(context()->Check());
    }
    Tuple key;
    key.reserve(g->equi_inner.size());
    bool null_key = false;
    for (const qgm::Expr* k : g->equi_inner) {
      XNFDB_ASSIGN_OR_RETURN(Value v,
                             EvalExpr(*k, g->group_layout, (*g->rows)[i]));
      if (v.is_null()) null_key = true;
      key.push_back(std::move(v));
    }
    if (!null_key) {
      if (context() != nullptr) {
        XNFDB_RETURN_IF_ERROR(context()->ReserveBytes(ApproxTupleBytes(key)));
      }
      g->index[std::move(key)].push_back(i);
    }
  }
  g->index_built = true;
  return Status::Ok();
}

Result<bool> ExistsFilterOp::GroupMatches(GroupCheck* g, const Tuple& outer) {
  if (!g->equi_outer.empty() && !naive_) {
    XNFDB_RETURN_IF_ERROR(EnsureIndex(g));
    Tuple key;
    key.reserve(g->equi_outer.size());
    for (const qgm::Expr* k : g->equi_outer) {
      XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, outer_layout_, outer));
      if (v.is_null()) return false;
      key.push_back(std::move(v));
    }
    auto it = g->index.find(key);
    if (it == g->index.end()) return false;
    if (g->residual.empty()) return true;
    for (size_t idx : it->second) {
      if (stats_ != nullptr) ++stats_->exists_probes;
      Tuple combined = outer;
      const Tuple& group_row = (*g->rows)[idx];
      combined.insert(combined.end(), group_row.begin(), group_row.end());
      bool pass = true;
      for (const qgm::Expr* p : g->residual) {
        XNFDB_ASSIGN_OR_RETURN(bool ok,
                               EvalPredicate(*p, g->combined_layout, combined));
        if (!ok) {
          pass = false;
          break;
        }
      }
      if (pass) return true;
    }
    return false;
  }
  // Naive path: scan every materialized group row (this is the per-outer-row
  // subquery execution the rewrite optimization eliminates).
  for (const Tuple& group_row : *g->rows) {
    if (stats_ != nullptr) ++stats_->exists_probes;
    Tuple combined = outer;
    combined.insert(combined.end(), group_row.begin(), group_row.end());
    bool pass = true;
    // In naive mode, equi pairs are evaluated like ordinary predicates.
    for (size_t i = 0; i < g->equi_outer.size(); ++i) {
      XNFDB_ASSIGN_OR_RETURN(
          Value lv, EvalExpr(*g->equi_outer[i], outer_layout_, outer));
      XNFDB_ASSIGN_OR_RETURN(
          Value rv, EvalExpr(*g->equi_inner[i], g->group_layout, group_row));
      Value eq = Value::Compare(lv, rv, CompareOp::kEq);
      if (eq.is_null() || !eq.AsBool()) {
        pass = false;
        break;
      }
    }
    if (pass) {
      for (const qgm::Expr* p : g->residual) {
        XNFDB_ASSIGN_OR_RETURN(bool ok,
                               EvalPredicate(*p, g->combined_layout, combined));
        if (!ok) {
          pass = false;
          break;
        }
      }
    }
    if (pass) return true;
  }
  return false;
}

Result<bool> ExistsFilterOp::RowPasses(const Tuple& row) {
  if (disjunctive_) {
    bool pass = groups_.empty();
    for (GroupCheck& g : groups_) {
      XNFDB_ASSIGN_OR_RETURN(bool match, GroupMatches(&g, row));
      if (match != g.negated) {
        pass = true;
        break;
      }
    }
    return pass;
  }
  for (GroupCheck& g : groups_) {
    XNFDB_ASSIGN_OR_RETURN(bool match, GroupMatches(&g, row));
    if (match == g.negated) return false;
  }
  return true;
}

Result<bool> ExistsFilterOp::NextImpl(Tuple* row) {
  while (true) {
    XNFDB_ASSIGN_OR_RETURN(bool more, child_->Next(row));
    if (!more) return false;
    XNFDB_ASSIGN_OR_RETURN(bool pass, RowPasses(*row));
    if (pass) return true;
  }
}

Result<bool> ExistsFilterOp::NextBatchImpl(TupleBatch* out) {
  XNFDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  std::vector<uint32_t>& sel = out->sel();
  size_t kept = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    XNFDB_ASSIGN_OR_RETURN(bool pass, RowPasses(out->rows()[sel[i]]));
    if (pass) sel[kept++] = sel[i];
  }
  sel.resize(kept);
  if (stats_ != nullptr) ++stats_->batches_exists;
  return true;
}

// --- set operations ---------------------------------------------------------------

Status UnionOp::OpenImpl() {
  for (auto& c : children_) XNFDB_RETURN_IF_ERROR(c->Open());
  current_ = 0;
  return Status::Ok();
}

Result<bool> UnionOp::NextImpl(Tuple* row) {
  while (current_ < children_.size()) {
    XNFDB_ASSIGN_OR_RETURN(bool more, children_[current_]->Next(row));
    if (more) return true;
    ++current_;
  }
  return false;
}

// --- aggregation ------------------------------------------------------------------

namespace {

struct AggState {
  int64_t count = 0;
  Value sum;
  Value min;
  Value max;
  double dsum = 0;
  bool any = false;
};

}  // namespace

Status AggOp::OpenImpl() {
  XNFDB_RETURN_IF_ERROR(child_->Open());
  results_.clear();
  pos_ = 0;

  // group key -> (representative row, per-spec aggregate state)
  std::map<std::vector<std::string>, std::pair<Tuple, std::vector<AggState>>>
      groups;
  // Use an order-preserving map keyed by rendered values for determinism.
  Tuple row;
  while (true) {
    Result<bool> more = child_->Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    std::vector<std::string> key;
    for (const qgm::Expr* gexpr : group_by_) {
      Result<Value> v = EvalExpr(*gexpr, layout_, row);
      if (!v.ok()) return v.status();
      key.push_back(v.value().ToString());
    }
    auto [it, inserted] =
        groups.try_emplace(std::move(key), row, std::vector<AggState>());
    if (inserted) {
      it->second.second.resize(specs_.size());
      // One representative row is retained per group.
      if (context() != nullptr) {
        Status s = context()->ReserveBytes(ApproxTupleBytes(row));
        if (!s.ok()) return s;
      }
    }
    std::vector<AggState>& states = it->second.second;
    for (size_t i = 0; i < specs_.size(); ++i) {
      const AggSpec& spec = specs_[i];
      if (!spec.is_agg) continue;
      AggState& st = states[i];
      Value v;
      if (spec.arg != nullptr) {
        Result<Value> r = EvalExpr(*spec.arg, layout_, row);
        if (!r.ok()) return r.status();
        v = r.value();
        if (v.is_null()) continue;  // aggregates skip NULLs
      }
      ++st.count;
      st.any = true;
      if (spec.arg != nullptr) {
        if (st.min.is_null() || v < st.min) st.min = v;
        if (st.max.is_null() || st.max < v) st.max = v;
        if (v.type() == DataType::kInt || v.type() == DataType::kDouble) {
          st.dsum += v.AsDouble();
          if (st.sum.is_null()) {
            st.sum = v;
          } else if (st.sum.type() == DataType::kInt &&
                     v.type() == DataType::kInt) {
            st.sum = Value(st.sum.AsInt() + v.AsInt());
          } else {
            st.sum = Value(st.sum.AsDouble() + v.AsDouble());
          }
        }
      }
    }
  }

  // Global aggregation over an empty input still yields one row.
  if (groups.empty() && group_by_.empty() && !specs_.empty()) {
    bool all_aggs = true;
    for (const AggSpec& s : specs_) all_aggs &= s.is_agg;
    if (all_aggs) {
      groups[{}] = {Tuple(), std::vector<AggState>(specs_.size())};
    }
  }

  for (auto& [key, entry] : groups) {
    auto& [rep, states] = entry;
    Tuple out;
    out.reserve(specs_.size());
    for (size_t i = 0; i < specs_.size(); ++i) {
      const AggSpec& spec = specs_[i];
      if (!spec.is_agg) {
        Result<Value> v = EvalExpr(*spec.group_expr, layout_, rep);
        if (!v.ok()) return v.status();
        out.push_back(v.value());
        continue;
      }
      const AggState& st = states[i];
      if (spec.func == "COUNT") {
        out.push_back(Value(st.count));
      } else if (spec.func == "SUM") {
        out.push_back(st.sum);
      } else if (spec.func == "MIN") {
        out.push_back(st.min);
      } else if (spec.func == "MAX") {
        out.push_back(st.max);
      } else if (spec.func == "AVG") {
        out.push_back(st.count == 0 ? Value::Null()
                                    : Value(st.dsum / st.count));
      } else {
        return Status::Unsupported("aggregate function " + spec.func);
      }
    }
    results_.push_back(std::move(out));
  }
  return Status::Ok();
}

Result<bool> AggOp::NextImpl(Tuple* row) {
  if (pos_ >= results_.size()) return false;
  *row = results_[pos_++];
  return true;
}


// --- EXPLAIN rendering ---------------------------------------------------------

void ExplainLine(int depth, const std::string& text, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(text);
  out->push_back('\n');
}

namespace {

std::string RenderExprs(const std::vector<const qgm::Expr*>& exprs) {
  std::string s;
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (i > 0) s += " AND ";
    s += exprs[i]->ToString(nullptr);
  }
  return s;
}

}  // namespace

void ScanOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "Scan(" + table_->name() + ")", out);
}

void VirtualScanOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "VirtualScan(" + provider_->name() + ")", out);
}

void IndexScanOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth,
              "IndexScan(" + table_->name() + "." +
                  table_->schema().column(column_).name + " = " +
                  key_.ToString() + ")",
              out);
}

void RangeScanOp::ExplainImpl(int depth, std::string* out) const {
  std::string range;
  if (lo_.has_value()) {
    range += lo_->ToString() + (lo_inclusive_ ? " <= " : " < ");
  }
  range += table_->name() + "." + table_->schema().column(column_).name;
  if (hi_.has_value()) {
    range += (hi_inclusive_ ? " <= " : " < ") + hi_->ToString();
  }
  SelfLine(depth, "RangeScan(" + range + ")", out);
}

void MaterializedOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth,
              "SpoolRead(" + std::to_string(rows_->size()) + " rows)", out);
  size_t start = 0;
  while (start < build_plan_.size()) {
    size_t end = build_plan_.find('\n', start);
    if (end == std::string::npos) end = build_plan_.size();
    ExplainLine(depth + 1, build_plan_.substr(start, end - start), out);
    start = end + 1;
  }
}

void MatViewScanOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth,
           "MatViewScan(matview=" + view_name_ + ", " +
               std::to_string(rows_->size()) + " rows)",
           out);
}

void FilterOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "Filter(" + RenderExprs(preds_) + ")", out);
  child_->Explain(depth + 1, out);
}

void ProjectOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "Project(" + std::to_string(exprs_.size()) + " cols)",
              out);
  child_->Explain(depth + 1, out);
}

void DistinctOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "Distinct", out);
  child_->Explain(depth + 1, out);
}

void SortOp::ExplainImpl(int depth, std::string* out) const {
  std::string keys;
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) keys += ", ";
    keys += "#" + std::to_string(keys_[i].first) +
            (keys_[i].second ? " DESC" : "");
  }
  SelfLine(depth, "Sort(" + keys + ")", out);
  child_->Explain(depth + 1, out);
}

void LimitOp::ExplainImpl(int depth, std::string* out) const {
  std::string line = "Limit(" + std::to_string(limit_);
  if (offset_ > 0) line += " offset " + std::to_string(offset_);
  line += ")";
  SelfLine(depth, line, out);
  child_->Explain(depth + 1, out);
}

void HashJoinOp::ExplainImpl(int depth, std::string* out) const {
  std::string keys;
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) keys += ", ";
    keys += left_keys_[i]->ToString(nullptr) + " = " +
            right_keys_[i]->ToString(nullptr);
  }
  std::string line = "HashJoin(" + keys + ")";
  if (!residual_.empty()) line += " residual(" + RenderExprs(residual_) + ")";
  SelfLine(depth, line, out);
  left_->Explain(depth + 1, out);
  right_->Explain(depth + 1, out);
}

void IndexJoinOp::ExplainImpl(int depth, std::string* out) const {
  std::string line = "IndexJoin(" + table_->name() + "." +
                     table_->schema().column(column_).name + " = " +
                     outer_key_->ToString(nullptr) + ")";
  if (!residual_.empty()) line += " residual(" + RenderExprs(residual_) + ")";
  SelfLine(depth, line, out);
  left_->Explain(depth + 1, out);
}

void NLJoinOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "NestedLoopJoin(" + RenderExprs(preds_) + ")", out);
  left_->Explain(depth + 1, out);
  right_->Explain(depth + 1, out);
}

void ExistsFilterOp::ExplainImpl(int depth, std::string* out) const {
  std::string line = "ExistsFilter(";
  line += std::to_string(groups_.size());
  line += disjunctive_ ? " group(s), ANY" : " group(s), ALL";
  if (naive_) line += ", naive";
  line += ")";
  SelfLine(depth, line, out);
  for (const GroupCheck& g : groups_) {
    ExplainLine(depth + 1,
                std::string(g.negated ? "anti-" : "") + "group over " +
                    std::to_string(g.rows->size()) + " materialized rows, " +
                    std::to_string(g.equi_outer.size()) + " hash key(s)",
                out);
  }
  child_->Explain(depth + 1, out);
}

void UnionOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth, "Union", out);
  for (const OperatorPtr& c : children_) c->Explain(depth + 1, out);
}

void AggOp::ExplainImpl(int depth, std::string* out) const {
  std::string aggs;
  for (const AggSpec& spec : specs_) {
    if (!spec.is_agg) continue;
    if (!aggs.empty()) aggs += ", ";
    aggs += spec.func;
  }
  SelfLine(depth,
              "Aggregate(" + std::to_string(group_by_.size()) +
                  " group col(s); " + aggs + ")",
              out);
  child_->Explain(depth + 1, out);
}

}  // namespace xnfdb
