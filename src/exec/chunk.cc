#include "exec/chunk.h"

#include "numa/allocator.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define MORSEL_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define MORSEL_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define MORSEL_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define MORSEL_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace morsel {

Arena::~Arena() {
  for (Block& b : blocks_) {
    MORSEL_ARENA_UNPOISON(b.data, b.size);
    NumaFree(b.data, b.size);
  }
}

void* Arena::Alloc(size_t bytes) {
  const size_t rounded = (bytes + 15) & ~size_t{15};  // 16-byte alignment
  while (true) {
    if (current_ < blocks_.size()) {
      Block& b = blocks_[current_];
      if (offset_ + rounded <= b.size) {
        void* p = b.data + offset_;
        offset_ += rounded;
        used_ += rounded;
        MORSEL_ARENA_UNPOISON(p, bytes);
        return p;
      }
      ++current_;
      offset_ = 0;
      continue;
    }
    size_t size = rounded > kBlockSize ? rounded : kBlockSize;
    blocks_.push_back(
        Block{static_cast<char*>(NumaAlloc(size, 0)), size});
    MORSEL_ARENA_POISON(blocks_.back().data, size);
    // Loop retries with the fresh block as `current_`.
  }
}

void Arena::Rewind(const Mark& mark) {
  MORSEL_DCHECK(mark.block < current_ ||
                (mark.block == current_ && mark.offset <= offset_));
  // Poison what is released: the tail of the mark's block and every
  // block filled after it (the fill never skips past current_).
  for (size_t b = mark.block; b <= current_ && b < blocks_.size(); ++b) {
    const size_t from = b == mark.block ? mark.offset : 0;
    MORSEL_ARENA_POISON(blocks_[b].data + from, blocks_[b].size - from);
  }
  current_ = mark.block;
  offset_ = mark.offset;
  used_ = mark.used;
}

size_t Arena::bytes_reserved() const {
  size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

Vector GatherVector(const Vector& v, const int32_t* idx, int count,
                    Arena* arena) {
  Vector out;
  out.type = v.type;
  switch (v.type) {
    case LogicalType::kInt32: {
      int32_t* d = arena->AllocArray<int32_t>(count);
      const int32_t* s = v.i32();
      for (int i = 0; i < count; ++i) d[i] = s[idx[i]];
      out.data = d;
      break;
    }
    case LogicalType::kInt64: {
      int64_t* d = arena->AllocArray<int64_t>(count);
      const int64_t* s = v.i64();
      for (int i = 0; i < count; ++i) d[i] = s[idx[i]];
      out.data = d;
      break;
    }
    case LogicalType::kDouble: {
      double* d = arena->AllocArray<double>(count);
      const double* s = v.f64();
      for (int i = 0; i < count; ++i) d[i] = s[idx[i]];
      out.data = d;
      break;
    }
    case LogicalType::kString: {
      auto* d = arena->AllocArray<std::string_view>(count);
      const std::string_view* s = v.str();
      for (int i = 0; i < count; ++i) d[i] = s[idx[i]];
      out.data = d;
      break;
    }
  }
  return out;
}

void GatherChunk(const Chunk& in, const int32_t* idx, int count,
                 Arena* arena, Chunk* out) {
  out->n = count;
  out->sel = nullptr;
  out->sel_n = 0;
  out->cols.resize(in.cols.size());
  for (size_t c = 0; c < in.cols.size(); ++c) {
    out->cols[c] = GatherVector(in.cols[c], idx, count, arena);
  }
}

std::atomic<int64_t> Chunk::compact_calls_{0};

void Chunk::Compact(Arena* arena) {
  if (sel == nullptr) return;
  compact_calls_.fetch_add(1, std::memory_order_relaxed);
  const int32_t* idx = sel;
  const int count = sel_n;
  sel = nullptr;
  sel_n = 0;
  n = count;
  for (Vector& v : cols) v = GatherVector(v, idx, count, arena);
}

}  // namespace morsel
