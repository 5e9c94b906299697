#include "exec/tuple.h"

#include <algorithm>

#include "exec/chunk.h"

namespace morsel {

TupleLayout::TupleLayout(std::vector<LogicalType> types, bool with_marker)
    : types_(std::move(types)) {
  int off = 16;  // next + hash
  if (with_marker) {
    marker_offset_ = off;
    off += 8;
  }
  offsets_.reserve(types_.size());
  for (LogicalType t : types_) {
    offsets_.push_back(off);
    off += t == LogicalType::kString
               ? static_cast<int>(sizeof(std::string_view))
               : 8;
  }
  row_size_ = off;
}

namespace {

template <typename Src, typename Dst>
void StoreStrided(const Src* src, const int32_t* sel, int count,
                  uint8_t* dst, size_t stride) {
  for (int k = 0; k < count; ++k) {
    const Dst v = src[sel != nullptr ? sel[k] : k];
    std::memcpy(dst + k * stride, &v, sizeof v);
  }
}

}  // namespace

void StoreColumn(const TupleLayout& layout, int f, const Vector& v,
                 const int32_t* sel, int count, uint8_t* rows) {
  const size_t stride = static_cast<size_t>(layout.row_size());
  uint8_t* dst = rows + layout.field_offset(f);
  switch (v.type) {
    case LogicalType::kInt32:
      StoreStrided<int32_t, int64_t>(v.i32(), sel, count, dst, stride);
      break;
    case LogicalType::kInt64:
      StoreStrided<int64_t, int64_t>(v.i64(), sel, count, dst, stride);
      break;
    case LogicalType::kDouble:
      StoreStrided<double, double>(v.f64(), sel, count, dst, stride);
      break;
    case LogicalType::kString:
      StoreStrided<std::string_view, std::string_view>(v.str(), sel, count,
                                                       dst, stride);
      break;
  }
}

void DecodeRowsToColumns(const TupleLayout& layout,
                         const uint8_t* const* rows, int count,
                         const std::vector<int>& fields, Arena* arena,
                         Chunk* out) {
  for (int f : fields) {
    Vector v;
    v.type = layout.field_type(f);
    switch (v.type) {
      case LogicalType::kInt32: {
        auto* d = arena->AllocArray<int32_t>(count);
        for (int i = 0; i < count; ++i) d[i] = layout.GetI32(rows[i], f);
        v.data = d;
        break;
      }
      case LogicalType::kInt64: {
        auto* d = arena->AllocArray<int64_t>(count);
        for (int i = 0; i < count; ++i) d[i] = layout.GetI64(rows[i], f);
        v.data = d;
        break;
      }
      case LogicalType::kDouble: {
        auto* d = arena->AllocArray<double>(count);
        for (int i = 0; i < count; ++i) d[i] = layout.GetF64(rows[i], f);
        v.data = d;
        break;
      }
      case LogicalType::kString: {
        auto* d = arena->AllocArray<std::string_view>(count);
        for (int i = 0; i < count; ++i) d[i] = layout.GetStr(rows[i], f);
        v.data = d;
        break;
      }
    }
    out->cols.push_back(v);
  }
}

void AppendDefaultColumns(const TupleLayout& layout,
                          const std::vector<int>& fields, int count,
                          Arena* arena, Chunk* out) {
  for (int f : fields) {
    Vector v;
    v.type = layout.field_type(f);
    switch (v.type) {
      case LogicalType::kInt32: {
        auto* d = arena->AllocArray<int32_t>(count);
        std::fill(d, d + count, 0);
        v.data = d;
        break;
      }
      case LogicalType::kInt64: {
        auto* d = arena->AllocArray<int64_t>(count);
        std::fill(d, d + count, int64_t{0});
        v.data = d;
        break;
      }
      case LogicalType::kDouble: {
        auto* d = arena->AllocArray<double>(count);
        std::fill(d, d + count, 0.0);
        v.data = d;
        break;
      }
      case LogicalType::kString: {
        auto* d = arena->AllocArray<std::string_view>(count);
        std::fill(d, d + count, std::string_view());
        v.data = d;
        break;
      }
    }
    out->cols.push_back(v);
  }
}

}  // namespace morsel
