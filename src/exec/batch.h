// Batch-at-a-time execution support (MonetDB/X100-style vectorization).
//
// A TupleBatch is a fixed-capacity block of rows plus a selection vector of
// active row indices. Producers append rows densely (PushRow activates the
// row); filters *mark* instead of copy by shrinking the selection vector in
// place, so a batch flows through a filter chain without any row movement.
// Consumers iterate Active(i) for i in [0, ActiveCount()).
//
// NextBatch(batch) returning true with ActiveCount() == 0 is legal (a fully
// filtered batch); only `false` means end of stream. batch_size = 1 runs
// the same code with one-row batches.

#ifndef XNFDB_EXEC_BATCH_H_
#define XNFDB_EXEC_BATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "common/value.h"

namespace xnfdb {

// Default rows per batch; override per query via ExecOptions::batch_size or
// process-wide via XNFDB_BATCH_SIZE.
inline constexpr int kDefaultBatchSize = 1024;

// Resolves a requested batch size: explicit value > 0 wins, then the
// XNFDB_BATCH_SIZE environment variable, then kDefaultBatchSize.
inline int ResolveBatchSize(int requested) {
  if (requested > 0) return requested;
  return static_cast<int>(
      ParseEnvInt("XNFDB_BATCH_SIZE", 1, 1 << 20, kDefaultBatchSize));
}

class TupleBatch {
 public:
  // Row storage grows as rows are appended, not to `capacity` up front: a
  // batch that only ever carries a few rows (a served stored view, a
  // single-row delta, a point lookup) costs no kilobyte-sized allocation.
  explicit TupleBatch(size_t capacity = kDefaultBatchSize)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  size_t capacity() const { return capacity_; }
  // Changes how many rows producers append before the batch counts as full;
  // the pooled row storage stays. Consumers resize a batch between pulls
  // (LimitOp asks for no more rows than it still needs).
  void set_capacity(size_t capacity) {
    capacity_ = capacity == 0 ? 1 : capacity;
  }
  // Producers stop appending at capacity; hash and index joins may
  // overshoot it rather than carry probe state across calls.
  bool Full() const { return size_ >= capacity_; }
  bool Empty() const { return size_ == 0; }

  // Resets the batch without destroying its row storage: the Tuple objects
  // (and whatever heap buffers their Values still own) stay behind as a
  // pool, so refilling via AppendRow() copy-assigns into warm buffers
  // instead of re-allocating per row. This is what keeps the batch path
  // from regressing on filter-heavy plans, where most scanned rows are
  // deselected and never leave the batch.
  void Clear() {
    size_ = 0;
    sel_.clear();
  }

  // Appends an active row slot and returns it for the producer to fill
  // (typically by copy-assignment, which reuses the slot's capacity).
  // The returned reference is valid until the next Append/Push/Clear.
  Tuple& AppendRow() {
    sel_.push_back(static_cast<uint32_t>(size_));
    if (size_ == rows_.size()) rows_.emplace_back();
    return rows_[size_++];
  }

  // Appends a row and marks it active.
  void PushRow(Tuple&& row) { AppendRow() = std::move(row); }

  // Retracts the most recent AppendRow() (which must still be active):
  // producers may append a slot speculatively, try to fill it, and drop it
  // when the source is exhausted or the row fails a residual predicate.
  void DropLastRow() {
    sel_.pop_back();
    --size_;
  }

  // All rows ever pushed into this batch, including ones a filter has since
  // deselected.
  size_t TotalRows() const { return size_; }

  // Rows still selected.
  size_t ActiveCount() const { return sel_.size(); }
  Tuple& Active(size_t i) { return rows_[sel_[i]]; }
  const Tuple& Active(size_t i) const { return rows_[sel_[i]]; }

  // The selection vector (ascending indices into rows()). Filters shrink it
  // in place to deselect rows.
  std::vector<uint32_t>& sel() { return sel_; }
  const std::vector<uint32_t>& sel() const { return sel_; }

  std::vector<Tuple>& rows() { return rows_; }
  const std::vector<Tuple>& rows() const { return rows_; }

 private:
  size_t capacity_;
  size_t size_ = 0;  // valid rows; rows_ may hold more as pooled storage
  std::vector<Tuple> rows_;
  std::vector<uint32_t> sel_;
};

}  // namespace xnfdb

#endif  // XNFDB_EXEC_BATCH_H_
