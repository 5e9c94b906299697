#ifndef MORSELDB_EXEC_RESULT_H_
#define MORSELDB_EXEC_RESULT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/query_status.h"
#include "exec/pipeline.h"
#include "exec/tuple.h"
#include "storage/types.h"

namespace morsel {

// Owned, column-major query result. Strings are deep-copied so the result
// outlives tables, arenas and intermediate buffers.
class ResultSet {
 public:
  ResultSet() = default;
  explicit ResultSet(std::vector<LogicalType> types)
      : types_(std::move(types)), cols_(types_.size()) {}

  int64_t num_rows() const { return num_rows_; }
  int num_cols() const { return static_cast<int>(types_.size()); }
  LogicalType type(int c) const { return types_[c]; }

  // Terminal status of the producing execution. A failed query (cancel,
  // deadline, budget, internal error) yields an *empty* ResultSet
  // carrying the non-ok status instead of aborting the process.
  bool ok() const { return status_.ok(); }
  const QueryStatus& status() const { return status_; }
  void set_status(QueryStatus s) { status_ = std::move(s); }

  int32_t I32(int64_t r, int c) const { return cols_[c].i32[r]; }
  int64_t I64(int64_t r, int c) const { return cols_[c].i64[r]; }
  double F64(int64_t r, int c) const { return cols_[c].f64[r]; }
  const std::string& Str(int64_t r, int c) const { return cols_[c].str[r]; }

  // Appends all rows of a chunk (types must match).
  void AppendChunk(const Chunk& chunk);
  // Appends one row-format tuple's fields (layout field i -> column i).
  void AppendRow(const TupleLayout& layout, const uint8_t* row);
  // Moves all rows of `other` onto the end of this result.
  void Append(ResultSet&& other);

  // Debug/bench helper: renders row `r` as tab-separated text.
  std::string RowToString(int64_t r) const;

 private:
  struct ColumnData {
    std::vector<int32_t> i32;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<std::string> str;
  };

  std::vector<LogicalType> types_;
  std::vector<ColumnData> cols_;
  int64_t num_rows_ = 0;
  QueryStatus status_;
};

// Final pipeline sink collecting result rows into per-worker buffers,
// concatenated at Finalize. Row order across workers is unspecified
// (ordered queries go through the sort/top-k path instead).
class ResultSink final : public Sink {
 public:
  ResultSink(std::vector<LogicalType> types, int num_worker_slots);

  void Consume(Chunk& chunk, ExecContext& ctx) override;
  void Finalize(ExecContext& ctx) override;

  // Valid after Finalize.
  ResultSet TakeResult() { return std::move(final_); }

 private:
  std::vector<LogicalType> types_;
  std::vector<std::unique_ptr<ResultSet>> per_worker_;
  ResultSet final_;
};

}  // namespace morsel

#endif  // MORSELDB_EXEC_RESULT_H_
