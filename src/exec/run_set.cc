#include "exec/run_set.h"

#include <algorithm>
#include <cstring>

#include "exec/operators.h"
#include "numa/mem_stats.h"

namespace morsel {

RunSet::RunSet(std::vector<LogicalType> column_types,
               std::vector<SortKey> keys, int num_worker_slots)
    : layout_(std::move(column_types), /*with_marker=*/false),
      keys_(std::move(keys)),
      worker_slots_(num_worker_slots),
      runs_(num_worker_slots),
      string_arenas_(num_worker_slots),
      order_(num_worker_slots) {
  // order_ is sized up front: local sorts of different runs execute
  // concurrently and must never resize the shared vector.
  for (const SortKey& k : keys_) {
    MORSEL_CHECK(k.field >= 0 && k.field < layout_.num_fields());
  }
  if (keys_.size() == 1 && keys_[0].ascending) {
    LogicalType t = layout_.field_type(keys_[0].field);
    if (t == LogicalType::kInt32 || t == LogicalType::kInt64) {
      fast_int_key_ = keys_[0].field;  // int32 widens to an 8-byte slot
    }
  }
}

RowBuffer* RunSet::run(int worker_id, int socket) {
  std::unique_ptr<RowBuffer>& b = runs_[worker_id];
  if (b == nullptr) b = std::make_unique<RowBuffer>(&layout_, socket);
  return b.get();
}

std::string_view RunSet::InternString(int worker_id, std::string_view s) {
  std::unique_ptr<Arena>& a = string_arenas_[worker_id];
  if (a == nullptr) a = std::make_unique<Arena>();
  return a->CopyString(s);
}

void RunSet::EnableRadixScatter(int num_parts,
                                std::vector<int> hash_cols) {
  MORSEL_CHECK(num_parts >= 1);
  MORSEL_CHECK(!hash_cols.empty());
  // The mode decision is plan-time: flipping with rows already in the
  // single-run-per-worker slots would strand them outside the wid*P + p
  // indexing scheme.
  MORSEL_CHECK(MaterializedRows() == 0);
  for (int c : hash_cols) {
    MORSEL_CHECK(c >= 0 && c < layout_.num_fields());
  }
  radix_parts_ = num_parts;
  radix_hash_cols_ = std::move(hash_cols);
  // One run per (worker, partition); sized up front for the same reason
  // as the ctor — concurrent local sorts must never resize these.
  const size_t n =
      static_cast<size_t>(worker_slots_) * static_cast<size_t>(num_parts);
  runs_.resize(n);
  order_.resize(n);
}

RowBuffer* RunSet::radix_run(int worker_id, int partition, int socket) {
  MORSEL_DCHECK(radix_enabled());
  std::unique_ptr<RowBuffer>& b =
      runs_[static_cast<size_t>(worker_id) * radix_parts_ + partition];
  if (b == nullptr) b = std::make_unique<RowBuffer>(&layout_, socket);
  return b.get();
}

void RunSet::PlanRadixPartitions() {
  MORSEL_CHECK(radix_enabled());
  FreezeActive();
  const int k = static_cast<int>(active_runs_.size());
  const int parts = radix_parts_;
  boundaries_.assign(parts + 1, std::vector<size_t>(k, 0));
  for (int run_pos = 0; run_pos < k; ++run_pos) {
    const int r = active_runs_[run_pos];
    // Run wid*P + p holds exactly partition p's rows: the boundary
    // column steps from 0 to the run's row count at partition p, giving
    // p the slice [0, n) and every other partition an empty slice.
    const int part = r % parts;
    const size_t n = runs_[r]->rows();
    for (int p = part + 1; p <= parts; ++p) {
      boundaries_[p][run_pos] = n;
    }
  }
}

bool RunSet::LessGeneric(const uint8_t* a, const uint8_t* b) const {
  for (const SortKey& k : keys_) {
    int c;
    switch (layout_.field_type(k.field)) {
      case LogicalType::kInt32:
      case LogicalType::kInt64: {
        int64_t va = layout_.GetI64(a, k.field);
        int64_t vb = layout_.GetI64(b, k.field);
        c = va < vb ? -1 : (va > vb ? 1 : 0);
        break;
      }
      case LogicalType::kDouble: {
        double va = layout_.GetF64(a, k.field);
        double vb = layout_.GetF64(b, k.field);
        c = va < vb ? -1 : (va > vb ? 1 : 0);
        break;
      }
      case LogicalType::kString: {
        int r =
            layout_.GetStr(a, k.field).compare(layout_.GetStr(b, k.field));
        c = r < 0 ? -1 : (r > 0 ? 1 : 0);
        break;
      }
      default:
        c = 0;
    }
    if (c != 0) return k.ascending ? c < 0 : c > 0;
  }
  return false;
}

std::vector<MorselRange> RunSet::LocalSortRanges() const {
  std::vector<MorselRange> out;
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i] == nullptr || runs_[i]->rows() == 0) continue;
    // One morsel per run: local sorts are atomic units.
    out.push_back(
        MorselRange{static_cast<int>(i), 0, 1, runs_[i]->socket()});
  }
  return out;
}

void RunSet::SortRun(int run_index, QueryContext* interrupt) {
  RowBuffer* buf = runs_[run_index].get();
  std::vector<uint32_t>& order = order_[run_index];
  const size_t n = buf->rows();
  order.resize(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  // A run sort is one morsel; poll the interrupt checkpoint from the
  // comparator so cancellation lands mid-sort, not after it (DESIGN
  // §11). Safe to abandon by throwing: only the index permutation is
  // partially built, and an aborted query never reads it.
  uint32_t ticks = 0;
  auto checked_less = [&](const uint8_t* a, const uint8_t* b) {
    if ((++ticks & 0x3FF) == 0) CheckQueryInterrupt(interrupt);
    return Less(a, b);
  };
  // Presorted-run detection: morsel hand-out within a range is monotone
  // and operators preserve row order, so a run fed from (nearly) sorted
  // storage arrives as a concatenation of a few ascending segments —
  // one per range the worker drew from. Find the segment boundaries
  // (descents); on unsorted data this overflows the segment budget
  // within a handful of comparisons and falls through to std::sort.
  constexpr size_t kMaxNaturalSegments = 32;
  std::vector<size_t> bounds{0};
  for (size_t i = 1; i < n && bounds.size() <= kMaxNaturalSegments; ++i) {
    if (checked_less(buf->row(i), buf->row(i - 1))) {
      bounds.push_back(i);
    }
  }
  if (bounds.size() == 1) {
    // Fully sorted: the identity order stands, no sort pass at all.
    presorted_runs_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto cmp = [&](uint32_t x, uint32_t y) {
    return checked_less(buf->row(x), buf->row(y));
  };
  if (bounds.size() <= kMaxNaturalSegments) {
    // Few segments: natural merge, O(n log segments) vs O(n log n).
    bounds.push_back(n);
    NaturalMergeSegments(order.begin(), std::move(bounds), cmp);
    natural_merged_runs_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::sort(order.begin(), order.end(), cmp);
}

void RunSet::FlattenPart(int part, std::vector<const uint8_t*>* out,
                         SocketTally* reads) const {
  out->clear();
  out->reserve(PartRows(part));
  std::vector<size_t> bounds{0};
  const int k = static_cast<int>(active_runs_.size());
  for (int run_pos = 0; run_pos < k; ++run_pos) {
    const int r = active_runs_[run_pos];
    const size_t begin = part_begin(part, run_pos);
    const size_t end = part_end(part, run_pos);
    if (begin == end) continue;
    for (size_t i = begin; i < end; ++i) out->push_back(RunRow(r, i));
    bounds.push_back(out->size());
    if (reads != nullptr) {
      reads->Add(runs_[r]->socket(),
                 (end - begin) * static_cast<uint64_t>(layout_.row_size()));
    }
  }
  NaturalMergeSegments(
      out->begin(), std::move(bounds),
      [this](const uint8_t* a, const uint8_t* b) { return Less(a, b); });
}

void RunSet::FreezeActive() {
  active_runs_.clear();
  total_rows_ = 0;
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i] != nullptr && runs_[i]->rows() > 0) {
      active_runs_.push_back(static_cast<int>(i));
      total_rows_ += runs_[i]->rows();
    }
  }
}

std::vector<const uint8_t*> RunSet::SampleKeys(int num_parts) {
  FreezeActive();
  std::vector<const uint8_t*> samples;
  for (int r : active_runs_) {
    size_t n = runs_[r]->rows();
    for (int s = 1; s < num_parts; ++s) {
      size_t pos = n * static_cast<size_t>(s) / num_parts;
      if (pos < n) samples.push_back(RunRow(r, pos));
    }
  }
  return samples;
}

void RunSet::PlanPartitions(
    int num_separators,
    const std::function<bool(const uint8_t*, int)>& row_less_sep) {
  FreezeActive();
  const int k = static_cast<int>(active_runs_.size());
  const int parts = num_separators + 1;

  // Boundaries: binary search of each separator within each sorted run.
  boundaries_.assign(parts + 1, std::vector<size_t>(k, 0));
  for (int run_pos = 0; run_pos < k; ++run_pos) {
    int r = active_runs_[run_pos];
    size_t n = runs_[r]->rows();
    boundaries_[0][run_pos] = 0;
    for (int s = 0; s < num_separators; ++s) {
      // lower_bound of separator s in the sorted run; separators ascend,
      // so each search resumes from the previous boundary.
      size_t lo = s == 0 ? 0 : boundaries_[s][run_pos];
      size_t hi = n;
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (row_less_sep(RunRow(r, mid), s)) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      boundaries_[s + 1][run_pos] = lo;
    }
    boundaries_[parts][run_pos] = n;
  }
}

uint64_t RunSet::PartRows(int part) const {
  uint64_t size = 0;
  const int k = static_cast<int>(active_runs_.size());
  for (int run_pos = 0; run_pos < k; ++run_pos) {
    size += boundaries_[part + 1][run_pos] - boundaries_[part][run_pos];
  }
  return size;
}

RunSet::PartCursor::PartCursor(const RunSet* rs, int part) : rs_(rs) {
  const int k = static_cast<int>(rs->active_runs_.size());
  pos_.resize(k);
  end_.resize(k);
  for (int run_pos = 0; run_pos < k; ++run_pos) {
    pos_[run_pos] = rs->part_begin(part, run_pos);
    end_[run_pos] = rs->part_end(part, run_pos);
  }
  FindBest();
}

void RunSet::PartCursor::FindBest() {
  best_ = -1;
  const uint8_t* best_row = nullptr;
  for (size_t run_pos = 0; run_pos < pos_.size(); ++run_pos) {
    if (pos_[run_pos] == end_[run_pos]) continue;
    const uint8_t* row =
        rs_->RunRow(rs_->active_runs_[run_pos], pos_[run_pos]);
    if (best_ < 0 || rs_->Less(row, best_row)) {
      best_ = static_cast<int>(run_pos);
      best_row = row;
    }
  }
}

void RunSet::PartCursor::Advance() {
  MORSEL_DCHECK(best_ >= 0);
  ++pos_[best_];
  FindBest();
}

void RunMaterializeSink::Consume(Chunk& chunk, ExecContext& ctx) {
  if (runs_->radix_enabled()) {
    ConsumeRadix(chunk, ctx);
    return;
  }
  const TupleLayout& layout = runs_->layout();
  int wid = ctx.worker->worker_id;
  RowBuffer* buf = runs_->run(wid, ctx.socket());
  MORSEL_CHECK(chunk.num_cols() == layout.num_fields());
  // The bulk column-wise fill reads straight through the selection
  // vector: appending only the selected rows beats gather-compacting
  // every column first (the dropped rows never touch memory).
  const int n = chunk.ActiveRows();
  if (n == 0) return;
  const int32_t* sel = chunk.sel;
  const size_t rs = static_cast<size_t>(layout.row_size());
  // Bulk-append the active rows, then fill column-wise: the type
  // dispatch hoists out of the row loop and each field becomes a tight
  // strided-store loop. AppendRows zero-fills, which clears next/hash.
  uint8_t* base = buf->AppendRows(static_cast<size_t>(n));
  for (int f = 0; f < layout.num_fields(); ++f) {
    uint8_t* p = base + layout.field_offset(f);
    const Vector& v = chunk.cols[f];
    switch (v.type) {
      case LogicalType::kInt32: {
        const int32_t* src = v.i32();
        for (int k = 0; k < n; ++k, p += rs) {
          int64_t w = src[sel != nullptr ? sel[k] : k];  // widens to 8B
          std::memcpy(p, &w, 8);
        }
        break;
      }
      case LogicalType::kInt64: {
        const int64_t* src = v.i64();
        for (int k = 0; k < n; ++k, p += rs) {
          std::memcpy(p, src + (sel != nullptr ? sel[k] : k), 8);
        }
        break;
      }
      case LogicalType::kDouble: {
        const double* src = v.f64();
        for (int k = 0; k < n; ++k, p += rs) {
          std::memcpy(p, src + (sel != nullptr ? sel[k] : k), 8);
        }
        break;
      }
      case LogicalType::kString: {
        // Chunk strings may live in the chunk-scoped arena; intern them.
        const std::string_view* src = v.str();
        for (int k = 0; k < n; ++k, p += rs) {
          std::string_view sv =
              runs_->InternString(wid, src[sel != nullptr ? sel[k] : k]);
          std::memcpy(p, &sv, sizeof(sv));
        }
        break;
      }
    }
  }
  // Materialization writes NUMA-locally (§2, Figure 3).
  ctx.traffic()->OnWrite(ctx.socket(), ctx.socket(),
                         uint64_t{static_cast<uint64_t>(n)} * rs);
}

// Radix-mode materialization: hash the scatter columns, histogram the
// chunk, bulk-append into this worker's per-partition runs, then store
// fields through the per-row destination pointers (rows fan out across P
// buffers, so there is no single strided base to walk).
void RunMaterializeSink::ConsumeRadix(Chunk& chunk, ExecContext& ctx) {
  const TupleLayout& layout = runs_->layout();
  const int wid = ctx.worker->worker_id;
  const int socket = ctx.socket();
  MORSEL_CHECK(chunk.num_cols() == layout.num_fields());
  // Packed hashes (one per *selected* row) drive the scatter; dest[k]
  // is then the row buffer slot for selected row chunk.RowAt(k).
  const int n = chunk.ActiveRows();
  if (n == 0) return;
  const int32_t* sel = chunk.sel;
  std::unique_ptr<RadixScatter>& sc = scatters_[wid];
  if (sc == nullptr) {
    sc = std::make_unique<RadixScatter>(&layout, runs_->radix_parts());
  }
  const uint64_t* hashes =
      HashRowsPacked(chunk, runs_->radix_hash_cols(), ctx);
  uint8_t** dest = sc->Scatter(hashes, n, ctx, [&](int p) {
    return runs_->radix_run(wid, p, socket);
  });
  for (int f = 0; f < layout.num_fields(); ++f) {
    const size_t off = static_cast<size_t>(layout.field_offset(f));
    const Vector& v = chunk.cols[f];
    switch (v.type) {
      case LogicalType::kInt32: {
        const int32_t* src = v.i32();
        for (int k = 0; k < n; ++k) {
          int64_t w = src[sel != nullptr ? sel[k] : k];  // widens to 8B
          std::memcpy(dest[k] + off, &w, 8);
        }
        break;
      }
      case LogicalType::kInt64: {
        const int64_t* src = v.i64();
        for (int k = 0; k < n; ++k) {
          std::memcpy(dest[k] + off, src + (sel != nullptr ? sel[k] : k), 8);
        }
        break;
      }
      case LogicalType::kDouble: {
        const double* src = v.f64();
        for (int k = 0; k < n; ++k) {
          std::memcpy(dest[k] + off, src + (sel != nullptr ? sel[k] : k), 8);
        }
        break;
      }
      case LogicalType::kString: {
        const std::string_view* src = v.str();
        for (int k = 0; k < n; ++k) {
          std::string_view sv =
              runs_->InternString(wid, src[sel != nullptr ? sel[k] : k]);
          std::memcpy(dest[k] + off, &sv, sizeof(sv));
        }
        break;
      }
    }
  }
  ctx.traffic()->OnWrite(socket, socket,
                         static_cast<uint64_t>(n) *
                             static_cast<uint64_t>(layout.row_size()));
}

}  // namespace morsel
