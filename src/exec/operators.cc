#include "exec/operators.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <unordered_map>

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
}

// --- Operator lifecycle wrappers -------------------------------------------

namespace {

int64_t ElapsedNs(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Appends rows[*pos...] to `out` until it is full, advancing `*pos`;
// returns how many rows it appended. The one read loop of every operator
// that serves rows it holds in a vector: spools and frontiers, stored
// views, virtual tables, sort and aggregate results.
size_t ReadRows(const std::vector<Tuple>& rows, size_t* pos,
                TupleBatch* out) {
  size_t n = 0;
  while (*pos < rows.size() && !out->Full()) {
    out->AppendRow() = rows[(*pos)++];  // copy-assign reuses slot buffers
    ++n;
  }
  return n;
}

// Appends the live rows among rids[*pos...] of `table` to `out` until it is
// full (index and range scans).
void FetchRids(const Table& table, const std::vector<Rid>& rids, size_t* pos,
               ExecStats* stats, TupleBatch* out) {
  while (*pos < rids.size() && !out->Full()) {
    Rid r = rids[(*pos)++];
    if (!table.IsLive(r)) continue;
    out->AppendRow() = table.Get(r);
    if (stats != nullptr) ++stats->rows_scanned;
  }
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
  TupleBatch batch(static_cast<size_t>(batch_size));
  XNFDB_RETURN_IF_ERROR(
      DrainRows(op, &batch, [&](Tuple& row) -> Status {
        if (ctx != nullptr) {
          XNFDB_RETURN_IF_ERROR(ctx->ReserveBytes(ApproxTupleBytes(row)));
        }
        rows.push_back(std::move(row));
        return Status::Ok();
      }).status());
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

Result<bool> ScanOp::NextBatchImpl(TupleBatch* out) {
  // Counted once per batch: morsel workers share the atomic counter.
  const size_t before = out->TotalRows();
  while (!out->Full()) {
    Rid end = morsels_ != nullptr ? morsel_end_ : table_->rid_bound();
    while (rid_ < end && !out->Full()) {
      Rid r = rid_++;
      if (!table_->IsLive(r)) continue;
      out->AppendRow() = table_->Get(r);  // copy-assign reuses slot buffers
    }
    if (rid_ < end) break;  // batch filled mid-range
    if (morsels_ == nullptr) break;
    // A batch never spans morsels: downstream tags each emitted batch with
    // current_morsel() to reassemble deterministic output order.
    if (!out->Empty()) break;
    if (!ClaimMorsel()) break;
  }
  if (stats_ != nullptr) {
    stats_->rows_scanned += static_cast<int64_t>(out->TotalRows() - before);
  }
  return !out->Empty();
}

Status VirtualScanOp::OpenImpl() {
  XNFDB_ASSIGN_OR_RETURN(rows_, provider_->Generate());
  pos_ = 0;
  return Status::Ok();
}

Result<bool> VirtualScanOp::NextBatchImpl(TupleBatch* out) {
  const size_t n = ReadRows(rows_, &pos_, out);
  if (stats_ != nullptr) stats_->rows_scanned += static_cast<int64_t>(n);
  return n > 0;
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

Result<bool> IndexScanOp::NextBatchImpl(TupleBatch* out) {
  if (rids_ != nullptr) FetchRids(*table_, *rids_, &pos_, stats_, out);
  return !out->Empty();
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

Result<bool> RangeScanOp::NextBatchImpl(TupleBatch* out) {
  FetchRids(*table_, rids_, &pos_, stats_, out);
  return !out->Empty();
}

Result<bool> MaterializedOp::NextBatchImpl(TupleBatch* out) {
  const size_t n = ReadRows(*rows_, &pos_, out);
  if (stats_ != nullptr) stats_->spool_read_rows += static_cast<int64_t>(n);
  return n > 0;
}

Status MaterializedOp::OpenImpl() {
  pos_ = 0;
  if (spool_ == nullptr) return Status::Ok();
  std::lock_guard<std::mutex> lock(spool_->mu);
  XNFDB_RETURN_IF_ERROR(spool_->status);
  if (spool_->rows == nullptr) {
    // The build runs inside this reader, timed and governed as it is.
    if (analyze_enabled()) spool_->build->EnableAnalyze();
    if (profile_enabled()) spool_->build->EnableProfile();
    spool_->build->AttachContext(context());
    Result<std::vector<Tuple>> rows =
        DrainOperator(spool_->build.get(), spool_->batch_size, context());
    spool_->status = rows.status();
    XNFDB_RETURN_IF_ERROR(spool_->status);
    spool_->rows =
        std::make_shared<const std::vector<Tuple>>(std::move(rows).value());
    build_ns_ = spool_->build->actuals().ns;
    if (stats_ != nullptr) ++stats_->spool_builds;
  }
  rows_ = spool_->rows;
  return Status::Ok();
}

// --- row transforms -----------------------------------------------------------

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
  return true;
}

Result<bool> ProjectOp::NextBatchImpl(TupleBatch* out) {
  // The child batch matches the consumer's, so a LIMIT's request reaches
  // the scan below.
  in_.set_capacity(out->capacity());
  XNFDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
  if (!more) return false;
  for (size_t i = 0; i < in_.ActiveCount(); ++i) {
    const Tuple& input = in_.Active(i);
    Tuple& row = out->AppendRow();  // reuses the slot's vector capacity
    row.clear();
    row.reserve(exprs_.size());
    for (const qgm::Expr* e : exprs_) {
      XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, layout_, input));
      row.push_back(std::move(v));
    }
  }
  return true;
}

Result<bool> DistinctOp::NextBatchImpl(TupleBatch* out) {
  XNFDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  std::vector<uint32_t>& sel = out->sel();
  size_t kept = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    const Tuple& row = out->rows()[sel[i]];
    if (!seen_.emplace(row, true).second) continue;
    // The dedup table keeps a copy of every distinct row.
    if (context() != nullptr) {
      XNFDB_RETURN_IF_ERROR(context()->ReserveBytes(ApproxTupleBytes(row)));
    }
    sel[kept++] = sel[i];
  }
  sel.resize(kept);
  return true;
}

Status SortOp::OpenImpl() {
  XNFDB_ASSIGN_OR_RETURN(rows_,
                         DrainOperator(child_.get(), batch_size_, context()));
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

Result<bool> SortOp::NextBatchImpl(TupleBatch* out) {
  return ReadRows(rows_, &pos_, out) > 0;
}

Result<bool> LimitOp::NextBatchImpl(TupleBatch* out) {
  if (limit_ >= 0 && emitted_ >= limit_) return false;
  // Pull straight into `out`, shrunk to the rows still needed (skipped
  // offset rows included); the consumer's capacity is restored after.
  const size_t capacity = out->capacity();
  if (limit_ >= 0) {
    out->set_capacity(std::min<size_t>(
        capacity, static_cast<size_t>(offset_ - skipped_ + limit_ - emitted_)));
  }
  Result<bool> more = child_->NextBatch(out);
  out->set_capacity(capacity);
  if (!more.ok() || !more.value()) return more;
  std::vector<uint32_t>& sel = out->sel();
  const size_t skip =
      std::min(sel.size(), static_cast<size_t>(offset_ - skipped_));
  skipped_ += static_cast<int64_t>(skip);
  sel.erase(sel.begin(), sel.begin() + static_cast<std::ptrdiff_t>(skip));
  if (limit_ >= 0) {
    sel.resize(std::min(sel.size(), static_cast<size_t>(limit_ - emitted_)));
  }
  emitted_ += static_cast<int64_t>(sel.size());
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
  if (keep_build_ && built_) return Status::Ok();
  build_.clear();
  TupleBatch batch(static_cast<size_t>(batch_size_));
  XNFDB_RETURN_IF_ERROR(
      DrainRows(right_.get(), &batch, [&](Tuple& row) -> Status {
        Tuple key;
        key.reserve(right_keys_.size());
        for (const qgm::Expr* k : right_keys_) {
          XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, right_layout_, row));
          if (v.is_null()) return Status::Ok();  // NULL keys never join
          key.push_back(std::move(v));
        }
        if (context() != nullptr) {
          XNFDB_RETURN_IF_ERROR(context()->ReserveBytes(
              ApproxTupleBytes(row) + ApproxTupleBytes(key)));
        }
        build_[std::move(key)].push_back(std::move(row));
        return Status::Ok();
      }).status());
  built_ = true;
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
  left_batch_.set_capacity(out->capacity());
  XNFDB_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&left_batch_));
  if (!more) return false;
  for (size_t i = 0; i < left_batch_.ActiveCount(); ++i) {
    XNFDB_RETURN_IF_ERROR(ProbeInto(left_batch_.Active(i), out));
  }
  return true;
}

Status IndexJoinOp::OpenImpl() {
  index_ = table_->GetIndex(column_);
  if (index_ == nullptr) {
    return Status::Internal("index join without index on " + table_->name());
  }
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

Result<bool> IndexJoinOp::NextBatchImpl(TupleBatch* out) {
  left_batch_.set_capacity(out->capacity());
  XNFDB_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&left_batch_));
  if (!more) return false;
  for (size_t i = 0; i < left_batch_.ActiveCount(); ++i) {
    const Tuple& left = left_batch_.Active(i);
    XNFDB_ASSIGN_OR_RETURN(const std::vector<Rid>* rids, Probe(left));
    if (rids == nullptr) continue;
    for (Rid rid : *rids) {
      Tuple& combined = out->AppendRow();  // retracted below if filtered
      XNFDB_ASSIGN_OR_RETURN(bool pass, Combine(left, rid, &combined));
      if (!pass) out->DropLastRow();
    }
  }
  return true;
}

Status NLJoinOp::OpenImpl() {
  left_batch_.Clear();
  left_pos_ = 0;
  inner_pos_ = 0;
  left_done_ = false;
  if (!(keep_build_ && built_)) {
    XNFDB_ASSIGN_OR_RETURN(
        inner_, DrainOperator(right_.get(), batch_size_, context()));
    built_ = true;
  }
  return left_->Open();
}

Result<bool> NLJoinOp::NextBatchImpl(TupleBatch* out) {
  while (!out->Full()) {
    if (left_pos_ >= left_batch_.ActiveCount()) {
      if (left_done_) break;
      left_batch_.set_capacity(out->capacity());
      XNFDB_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&left_batch_));
      left_done_ = !more;
      left_pos_ = 0;
      inner_pos_ = 0;
      continue;
    }
    const Tuple& left = left_batch_.Active(left_pos_);
    while (inner_pos_ < inner_.size() && !out->Full()) {
      if (stats_ != nullptr) ++stats_->join_probes;
      const Tuple& right_row = inner_[inner_pos_++];
      Tuple& combined = out->AppendRow();  // retracted below if filtered
      combined.clear();
      combined.reserve(left.size() + right_row.size());
      combined.insert(combined.end(), left.begin(), left.end());
      combined.insert(combined.end(), right_row.begin(), right_row.end());
      for (const qgm::Expr* p : preds_) {
        XNFDB_ASSIGN_OR_RETURN(bool ok,
                               EvalPredicate(*p, combined_layout_, combined));
        if (!ok) {
          out->DropLastRow();
          break;
        }
      }
    }
    if (inner_pos_ >= inner_.size()) {
      ++left_pos_;
      inner_pos_ = 0;
    }
  }
  return !out->Empty();
}

// --- existential checks ----------------------------------------------------------

std::vector<Operator*> ExistsFilterOp::Children() {
  std::vector<Operator*> out{child_.get()};
  for (const GroupCheck& g : groups_) out.push_back(g.plan.get());
  return out;
}

bool ExistsFilterOp::Hashed(const GroupCheck& g) const {
  // A NOT IN comparison is hashed too, unless a residual decides which
  // group rows it is taken over.
  if (g.not_in_outer != nullptr) return !naive_ && g.residual.empty();
  return !naive_ && !g.equi_outer.empty();
}

Status ExistsFilterOp::EnsureBuilt(GroupCheck* g) {
  if (g->built) return Status::Ok();
  TupleBatch batch(static_cast<size_t>(batch_size_));
  XNFDB_RETURN_IF_ERROR(
      DrainRows(g->plan.get(), &batch, [&](Tuple& row) -> Status {
        if (context() != nullptr) {
          XNFDB_RETURN_IF_ERROR(context()->ReserveBytes(ApproxTupleBytes(row)));
        }
        g->rows.push_back(std::move(row));
        if (!Hashed(*g)) return Status::Ok();
        Tuple key;
        key.reserve(g->equi_inner.size() + 1);
        for (const qgm::Expr* k : g->equi_inner) {
          XNFDB_ASSIGN_OR_RETURN(Value v,
                                 EvalExpr(*k, g->group_layout, g->rows.back()));
          if (v.is_null()) return Status::Ok();  // matches no outer row
          key.push_back(std::move(v));
        }
        if (g->not_in_outer != nullptr) {
          XNFDB_ASSIGN_OR_RETURN(
              Value v,
              EvalExpr(*g->not_in_inner, g->group_layout, g->rows.back()));
          bool& has_null = g->not_in_nulls[key];
          if (v.is_null()) {
            has_null = true;
            return Status::Ok();
          }
          key.push_back(std::move(v));
        }
        if (context() != nullptr) {
          XNFDB_RETURN_IF_ERROR(context()->ReserveBytes(ApproxTupleBytes(key)));
        }
        g->index[std::move(key)].push_back(g->rows.size() - 1);
        return Status::Ok();
      }).status());
  g->built = true;
  return Status::Ok();
}

Result<bool> ExistsFilterOp::GroupMatches(GroupCheck* g, const Tuple& outer) {
  XNFDB_RETURN_IF_ERROR(EnsureBuilt(g));
  const bool not_in = g->not_in_outer != nullptr;
  Value not_in_key;
  if (not_in) {
    XNFDB_ASSIGN_OR_RETURN(not_in_key,
                           EvalExpr(*g->not_in_outer, outer_layout_, outer));
  }
  // The group rows to check one by one: a hash bucket, or else all.
  const std::vector<size_t>* bucket = nullptr;
  if (Hashed(*g)) {
    Tuple key;
    key.reserve(g->equi_outer.size() + 1);
    for (const qgm::Expr* k : g->equi_outer) {
      XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*k, outer_layout_, outer));
      if (v.is_null()) return false;
      key.push_back(std::move(v));
    }
    if (not_in) {
      // No group row correlates: the NOT IN set is empty.
      auto nulls = g->not_in_nulls.find(key);
      if (nulls == g->not_in_nulls.end()) return false;
      // Unknown against a non-empty set.
      if (not_in_key.is_null() || nulls->second) return true;
      key.push_back(not_in_key);
    }
    auto it = g->index.find(key);
    if (it == g->index.end()) return false;
    if (g->residual.empty()) return true;
    bucket = &it->second;
  }
  // Unhashed, this is the per-outer-row subquery execution the rewrite
  // optimization eliminates, and equi pairs are ordinary predicates.
  const size_t n = bucket != nullptr ? bucket->size() : g->rows.size();
  for (size_t i = 0; i < n; ++i) {
    const Tuple& group_row = g->rows[bucket != nullptr ? (*bucket)[i] : i];
    if (stats_ != nullptr) ++stats_->exists_probes;
    bool pass = true;
    for (size_t k = 0; pass && bucket == nullptr && k < g->equi_outer.size();
         ++k) {
      XNFDB_ASSIGN_OR_RETURN(
          Value lv, EvalExpr(*g->equi_outer[k], outer_layout_, outer));
      XNFDB_ASSIGN_OR_RETURN(
          Value rv, EvalExpr(*g->equi_inner[k], g->group_layout, group_row));
      Value eq = Value::Compare(lv, rv, CompareOp::kEq);
      pass = !eq.is_null() && eq.AsBool();
    }
    if (pass && !g->residual.empty()) {
      Tuple combined = outer;
      combined.insert(combined.end(), group_row.begin(), group_row.end());
      for (size_t k = 0; pass && k < g->residual.size(); ++k) {
        XNFDB_ASSIGN_OR_RETURN(
            pass, EvalPredicate(*g->residual[k], g->combined_layout, combined));
      }
    }
    if (pass && not_in) {
      XNFDB_ASSIGN_OR_RETURN(
          Value item, EvalExpr(*g->not_in_inner, g->group_layout, group_row));
      Value eq = Value::Compare(not_in_key, item, CompareOp::kEq);
      pass = eq.is_null() || eq.AsBool();
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
  return true;
}

// --- set operations ---------------------------------------------------------------

Status UnionOp::OpenImpl() {
  for (auto& c : children_) XNFDB_RETURN_IF_ERROR(c->Open());
  current_ = 0;
  return Status::Ok();
}

Result<bool> UnionOp::NextBatchImpl(TupleBatch* out) {
  while (current_ < children_.size()) {
    XNFDB_ASSIGN_OR_RETURN(bool more, children_[current_]->NextBatch(out));
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
  results_.clear();
  pos_ = 0;

  // One group per distinct key: the key, a representative row and the
  // per-spec aggregate state.
  struct Group {
    Tuple key;
    Tuple rep;
    std::vector<AggState> states;
  };
  std::vector<Group> groups;
  std::unordered_map<Tuple, size_t, TupleHash, TupleEq> index;
  TupleBatch batch(static_cast<size_t>(batch_size_));
  XNFDB_RETURN_IF_ERROR(
      DrainRows(child_.get(), &batch, [&](Tuple& row) -> Status {
        Tuple key;
        key.reserve(group_by_.size());
        for (const qgm::Expr* gexpr : group_by_) {
          XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*gexpr, layout_, row));
          key.push_back(std::move(v));
        }
        auto [it, inserted] = index.try_emplace(key, groups.size());
        if (inserted) {
          // One representative row is retained per group.
          if (context() != nullptr) {
            XNFDB_RETURN_IF_ERROR(
                context()->ReserveBytes(ApproxTupleBytes(row)));
          }
          groups.push_back(
              {std::move(key), row, std::vector<AggState>(specs_.size())});
        }
        std::vector<AggState>& states = groups[it->second].states;
        for (size_t i = 0; i < specs_.size(); ++i) {
          const AggSpec& spec = specs_[i];
          if (!spec.is_agg) continue;
          AggState& st = states[i];
          Value v;
          if (spec.arg != nullptr) {
            XNFDB_ASSIGN_OR_RETURN(v, EvalExpr(*spec.arg, layout_, row));
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
        return Status::Ok();
      }).status());

  // Global aggregation over an empty input still yields one row.
  if (groups.empty() && group_by_.empty() && !specs_.empty()) {
    bool all_aggs = true;
    for (const AggSpec& s : specs_) all_aggs &= s.is_agg;
    if (all_aggs) {
      groups.push_back({Tuple(), Tuple(), std::vector<AggState>(specs_.size())});
    }
  }

  // Ascending key order: deterministic whatever order the input arrives in.
  std::sort(groups.begin(), groups.end(),
            [](const Group& a, const Group& b) { return a.key < b.key; });
  for (const Group& g : groups) {
    Tuple out;
    out.reserve(specs_.size());
    for (size_t i = 0; i < specs_.size(); ++i) {
      const AggSpec& spec = specs_[i];
      if (!spec.is_agg) {
        XNFDB_ASSIGN_OR_RETURN(Value v,
                               EvalExpr(*spec.group_expr, layout_, g.rep));
        out.push_back(std::move(v));
        continue;
      }
      const AggState& st = g.states[i];
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

Result<bool> AggOp::NextBatchImpl(TupleBatch* out) {
  return ReadRows(results_, &pos_, out) > 0;
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
  if (spool_ == nullptr) {
    SelfLine(depth, "Rows(" + std::to_string(rows_->size()) + ")", out);
    return;
  }
  SelfLine(depth, "SpoolRead(box " + std::to_string(spool_->box_id) + ")",
           out);
  if (shows_build_) spool_->build->Explain(depth + 1, out);
}

void MatViewScanOp::ExplainImpl(int depth, std::string* out) const {
  SelfLine(depth,
           "MatViewScan(matview=" + view_name_ + ", " +
               std::to_string(rows().size()) + " rows)",
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
                std::string(g.not_in_outer != nullptr ? "NOT IN "
                            : g.negated               ? "anti-"
                                                      : "") +
                    "group, " + std::to_string(g.equi_outer.size()) +
                    " hash key(s)",
                out);
    g.plan->Explain(depth + 2, out);
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
