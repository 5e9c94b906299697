#include "exec/result.h"

#include <cinttypes>
#include <cstdio>

namespace morsel {

void ResultSet::AppendChunk(const Chunk& chunk) {
  MORSEL_CHECK(chunk.num_cols() == num_cols());
  const int active = chunk.ActiveRows();
  for (int c = 0; c < num_cols(); ++c) {
    const Vector& v = chunk.cols[c];
    MORSEL_CHECK(v.type == types_[c]);
    ColumnData& col = cols_[c];
    switch (v.type) {
      case LogicalType::kInt32:
        if (chunk.dense()) {
          col.i32.insert(col.i32.end(), v.i32(), v.i32() + chunk.n);
        } else {
          const int32_t* s = v.i32();
          for (int k = 0; k < active; ++k) col.i32.push_back(s[chunk.sel[k]]);
        }
        break;
      case LogicalType::kInt64:
        if (chunk.dense()) {
          col.i64.insert(col.i64.end(), v.i64(), v.i64() + chunk.n);
        } else {
          const int64_t* s = v.i64();
          for (int k = 0; k < active; ++k) col.i64.push_back(s[chunk.sel[k]]);
        }
        break;
      case LogicalType::kDouble:
        if (chunk.dense()) {
          col.f64.insert(col.f64.end(), v.f64(), v.f64() + chunk.n);
        } else {
          const double* s = v.f64();
          for (int k = 0; k < active; ++k) col.f64.push_back(s[chunk.sel[k]]);
        }
        break;
      case LogicalType::kString: {
        const std::string_view* s = v.str();
        for (int k = 0; k < active; ++k) {
          col.str.emplace_back(s[chunk.RowAt(k)]);
        }
        break;
      }
    }
  }
  num_rows_ += active;
}

void ResultSet::AppendRow(const TupleLayout& layout, const uint8_t* row) {
  MORSEL_CHECK(layout.num_fields() == num_cols());
  for (int c = 0; c < num_cols(); ++c) {
    ColumnData& col = cols_[c];
    switch (types_[c]) {
      case LogicalType::kInt32:
        col.i32.push_back(layout.GetI32(row, c));
        break;
      case LogicalType::kInt64:
        col.i64.push_back(layout.GetI64(row, c));
        break;
      case LogicalType::kDouble:
        col.f64.push_back(layout.GetF64(row, c));
        break;
      case LogicalType::kString:
        col.str.emplace_back(layout.GetStr(row, c));
        break;
    }
  }
  ++num_rows_;
}

void ResultSet::Append(ResultSet&& other) {
  MORSEL_CHECK(other.num_cols() == num_cols());
  for (int c = 0; c < num_cols(); ++c) {
    ColumnData& dst = cols_[c];
    ColumnData& src = other.cols_[c];
    dst.i32.insert(dst.i32.end(), src.i32.begin(), src.i32.end());
    dst.i64.insert(dst.i64.end(), src.i64.begin(), src.i64.end());
    dst.f64.insert(dst.f64.end(), src.f64.begin(), src.f64.end());
    for (std::string& s : src.str) dst.str.push_back(std::move(s));
  }
  num_rows_ += other.num_rows_;
  other = ResultSet(other.types_);
}

std::string ResultSet::RowToString(int64_t r) const {
  std::string out;
  char buf[64];
  for (int c = 0; c < num_cols(); ++c) {
    if (c > 0) out += '\t';
    switch (types_[c]) {
      case LogicalType::kInt32:
        std::snprintf(buf, sizeof(buf), "%d", I32(r, c));
        out += buf;
        break;
      case LogicalType::kInt64:
        std::snprintf(buf, sizeof(buf), "%" PRId64, I64(r, c));
        out += buf;
        break;
      case LogicalType::kDouble:
        std::snprintf(buf, sizeof(buf), "%.2f", F64(r, c));
        out += buf;
        break;
      case LogicalType::kString:
        out += Str(r, c);
        break;
    }
  }
  return out;
}

ResultSink::ResultSink(std::vector<LogicalType> types, int num_worker_slots)
    : types_(std::move(types)), per_worker_(num_worker_slots) {}

void ResultSink::Consume(Chunk& chunk, ExecContext& ctx) {
  std::unique_ptr<ResultSet>& local = per_worker_[ctx.worker->worker_id];
  if (local == nullptr) local = std::make_unique<ResultSet>(types_);
  // AppendChunk reads through the selection vector; no densify needed.
  local->AppendChunk(chunk);
  // Result rows are written into worker-local memory.
  uint64_t bytes = 0;
  for (LogicalType t : types_) {
    bytes += static_cast<uint64_t>(TypeWidth(t)) * chunk.ActiveRows();
  }
  ctx.traffic()->OnWrite(ctx.socket(), ctx.socket(), bytes);
}

void ResultSink::Finalize(ExecContext& ctx) {
  (void)ctx;
  final_ = ResultSet(types_);
  for (auto& rs : per_worker_) {
    if (rs != nullptr) final_.Append(std::move(*rs));
  }
}

}  // namespace morsel
