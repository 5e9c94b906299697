#ifndef MORSELDB_EXEC_TUPLE_H_
#define MORSELDB_EXEC_TUPLE_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "exec/chunk.h"
#include "numa/allocator.h"
#include "storage/types.h"

namespace morsel {

// Row-wise tuple format used by pipeline breakers (hash-table tuples,
// aggregation spill records, sort runs). Every tuple carries a header:
//
//   [ next* : 8 ][ hash : 8 ][ marker : 8, optional ][ fields ... ]
//
// `next` chains hash-bucket collisions ("we also reserve space for a next
// pointer within each tuple", §4.1); `hash` is kept for tag computation
// and re-partitioning; `marker` is the outer/semi/anti-join match flag
// (§4.1), toggled with relaxed atomics after a check-before-write to
// avoid needless contention.
//
// Field slots are 8 bytes (int32/int64/double) or 16 bytes
// (string_view), all 8-aligned.
class TupleLayout {
 public:
  static constexpr int kNextOffset = 0;
  static constexpr int kHashOffset = 8;

  TupleLayout() = default;
  TupleLayout(std::vector<LogicalType> types, bool with_marker);

  int row_size() const { return row_size_; }
  int num_fields() const { return static_cast<int>(types_.size()); }
  LogicalType field_type(int f) const { return types_[f]; }
  int field_offset(int f) const { return offsets_[f]; }
  bool has_marker() const { return marker_offset_ >= 0; }
  int marker_offset() const { return marker_offset_; }

  static uint8_t* GetNext(const uint8_t* row) {
    uint8_t* p;
    std::memcpy(&p, row + kNextOffset, 8);
    return p;
  }
  static void SetNext(uint8_t* row, uint8_t* next) {
    std::memcpy(row + kNextOffset, &next, 8);
  }
  static uint64_t GetHash(const uint8_t* row) {
    uint64_t h;
    std::memcpy(&h, row + kHashOffset, 8);
    return h;
  }
  static void SetHash(uint8_t* row, uint64_t h) {
    std::memcpy(row + kHashOffset, &h, 8);
  }

  // --- typed field access -------------------------------------------------
  int64_t GetI64(const uint8_t* row, int f) const {
    int64_t v;
    std::memcpy(&v, row + offsets_[f], 8);
    return v;
  }
  int32_t GetI32(const uint8_t* row, int f) const {
    return static_cast<int32_t>(GetI64(row, f));
  }
  double GetF64(const uint8_t* row, int f) const {
    double v;
    std::memcpy(&v, row + offsets_[f], 8);
    return v;
  }
  std::string_view GetStr(const uint8_t* row, int f) const {
    std::string_view v;
    std::memcpy(&v, row + offsets_[f], sizeof(v));
    return v;
  }

  void SetI64(uint8_t* row, int f, int64_t v) const {
    std::memcpy(row + offsets_[f], &v, 8);
  }
  void SetF64(uint8_t* row, int f, double v) const {
    std::memcpy(row + offsets_[f], &v, 8);
  }
  void SetStr(uint8_t* row, int f, std::string_view v) const {
    std::memcpy(row + offsets_[f], &v, sizeof(v));
  }

  // Copies value `i` of chunk vector `v` into field `f` (types must
  // match; int32 widens to an 8-byte slot).
  void StoreFromVector(uint8_t* row, int f, const Vector& v, int i) const {
    switch (v.type) {
      case LogicalType::kInt32:
        SetI64(row, f, v.i32()[i]);
        break;
      case LogicalType::kInt64:
        SetI64(row, f, v.i64()[i]);
        break;
      case LogicalType::kDouble:
        SetF64(row, f, v.f64()[i]);
        break;
      case LogicalType::kString:
        SetStr(row, f, v.str()[i]);
        break;
    }
  }

 private:
  std::vector<LogicalType> types_;
  std::vector<int> offsets_;
  int marker_offset_ = -1;
  int row_size_ = 16;
};

// Stores the selected values of `v` (v[sel[k]], or v[k] when `sel` is
// null) into field `f` of `count` consecutive rows starting at `rows`:
// the column-at-a-time form of StoreFromVector, one type switch per
// column. String views are stored as is; callers that outlive the chunk
// intern them instead.
void StoreColumn(const TupleLayout& layout, int f, const Vector& v,
                 const int32_t* sel, int count, uint8_t* rows);

// Decodes `fields` of `count` row-format tuples into arena-backed column
// vectors appended to `out` (one value per row pointer). The shared
// row-to-column bridge of the pipeline breakers: join payload gather,
// unmatched-build flush, merge-join emission.
void DecodeRowsToColumns(const TupleLayout& layout,
                         const uint8_t* const* rows, int count,
                         const std::vector<int>& fields, Arena* arena,
                         Chunk* out);

// Appends one arena-backed column per field, filled with the type's
// default value (0 / empty string) — outer-join miss padding.
void AppendDefaultColumns(const TupleLayout& layout,
                          const std::vector<int>& fields, int count,
                          Arena* arena, Chunk* out);

// Append-only buffer of fixed-size rows, contiguous in memory, tagged
// with the NUMA socket of its owning worker (the per-core "storage
// areas" of §2/Figure 3). Growth invalidates row pointers, so pointer-
// taking phases (hash-table insert) only run after appends stop.
class RowBuffer {
 public:
  RowBuffer(const TupleLayout* layout, int socket)
      : layout_(layout), bytes_(socket) {}

  const TupleLayout& layout() const { return *layout_; }
  int socket() const { return bytes_.socket(); }
  size_t rows() const { return rows_; }

  uint8_t* AppendRow() {
    size_t off = rows_ * layout_->row_size();
    bytes_.resize(off + layout_->row_size());
    ++rows_;
    return bytes_.data() + off;
  }

  // Appends `n` zero-filled rows (NumaVector::resize memsets the grown
  // region, which also clears the next/hash header slots) and returns
  // the first one: bulk materialization pays the capacity check once
  // per chunk, not per row.
  uint8_t* AppendRows(size_t n) {
    size_t off = rows_ * layout_->row_size();
    bytes_.resize(off + n * layout_->row_size());
    rows_ += n;
    return bytes_.data() + off;
  }

  uint8_t* row(size_t i) {
    MORSEL_DCHECK(i < rows_);
    return bytes_.data() + i * layout_->row_size();
  }
  const uint8_t* row(size_t i) const {
    MORSEL_DCHECK(i < rows_);
    return bytes_.data() + i * layout_->row_size();
  }

  size_t bytes() const { return rows_ * layout_->row_size(); }
  void Clear() {
    bytes_.clear();
    rows_ = 0;
  }

 private:
  const TupleLayout* layout_;
  NumaVector<uint8_t> bytes_;
  size_t rows_ = 0;
};

}  // namespace morsel

#endif  // MORSELDB_EXEC_TUPLE_H_
