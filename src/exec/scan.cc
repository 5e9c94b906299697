#include "exec/scan.h"

#include <algorithm>
#include <cstdio>

namespace morsel {

namespace {
// Granularity at which interleaved-placement tables alternate sockets;
// keep in sync with Table::SocketOfRange.
constexpr uint64_t kInterleaveRows = 8192;

enum class ZoneVerdict {
  kSkip,       // no row in the range can satisfy the conjunct
  kAcceptAll,  // every row in the range satisfies the conjunct
  kPartial,    // undecided — evaluate per row
};

// Verdict for `value <op> lit` given the (conservative) range
// [mn, mx] the zone maps report for the morsel.
template <typename V>
ZoneVerdict RangeVerdict(CmpOp op, V mn, V mx, V lit) {
  switch (op) {
    case CmpOp::kLt:
      if (mx < lit) return ZoneVerdict::kAcceptAll;
      if (mn >= lit) return ZoneVerdict::kSkip;
      break;
    case CmpOp::kLe:
      if (mx <= lit) return ZoneVerdict::kAcceptAll;
      if (mn > lit) return ZoneVerdict::kSkip;
      break;
    case CmpOp::kGt:
      if (mn > lit) return ZoneVerdict::kAcceptAll;
      if (mx <= lit) return ZoneVerdict::kSkip;
      break;
    case CmpOp::kGe:
      if (mn >= lit) return ZoneVerdict::kAcceptAll;
      if (mx < lit) return ZoneVerdict::kSkip;
      break;
    case CmpOp::kEq:
      if (lit < mn || lit > mx) return ZoneVerdict::kSkip;
      if (mn == mx && mn == lit) return ZoneVerdict::kAcceptAll;
      break;
    case CmpOp::kNe:
      break;  // never registered
  }
  return ZoneVerdict::kPartial;
}

ZoneVerdict CheckSarg(const ScanSarg& s, const Column* col, uint64_t begin,
                      uint64_t end) {
  switch (col->type()) {
    case LogicalType::kInt32:
    case LogicalType::kInt64: {
      int64_t mn, mx;
      if (!col->ZoneMinMaxI64(begin, end, &mn, &mx)) {
        return ZoneVerdict::kPartial;
      }
      return RangeVerdict<int64_t>(s.op, mn, mx, s.i64);
    }
    case LogicalType::kDouble: {
      double mn, mx;
      if (!col->ZoneMinMaxF64(begin, end, &mn, &mx)) {
        return ZoneVerdict::kPartial;
      }
      return RangeVerdict<double>(s.op, mn, mx, s.f64);
    }
    case LogicalType::kString:
      return ZoneVerdict::kPartial;
  }
  return ZoneVerdict::kPartial;
}

}  // namespace

TableScanSource::TableScanSource(const Table* table,
                                 std::vector<int> column_ids)
    : table_(table), column_ids_(std::move(column_ids)) {}

int TableScanSource::AddSarg(const ScanSarg& sarg) {
  // Slots are unbounded: SargAcceptMask grows on demand, so wide
  // conjunctions (string-heavy / generated predicates) all zone-check.
  sargs_.push_back(sarg);
  return static_cast<int>(sargs_.size()) - 1;
}

std::string TableScanSource::RuntimeInfo() const {
  if (sargs_.empty()) return std::string();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[zonemap: skipped %llu/%llu morsels]",
                static_cast<unsigned long long>(
                    morsels_skipped_.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    morsels_seen_.load(std::memory_order_relaxed)));
  return buf;
}

std::vector<MorselRange> TableScanSource::MakeRanges(const Topology& topo) {
  (void)topo;
  std::vector<MorselRange> ranges;
  for (int p = 0; p < table_->num_partitions(); ++p) {
    uint64_t rows = table_->PartitionRows(p);
    if (rows == 0) continue;
    if (table_->placement() == Placement::kInterleaved) {
      // Placement alternates within the partition: emit one range per
      // homogeneous block so the socket tag is exact.
      for (uint64_t b = 0; b < rows; b += kInterleaveRows) {
        uint64_t e = std::min(b + kInterleaveRows, rows);
        ranges.push_back(MorselRange{p, b, e, table_->SocketOfRange(p, b)});
      }
    } else {
      ranges.push_back(MorselRange{p, 0, rows, table_->SocketOfRange(p, 0)});
    }
  }
  return ranges;
}

void TableScanSource::RunMorsel(const Morsel& m, Pipeline& pipeline,
                                ExecContext& ctx) {
  const int p = m.partition;
  ctx.sarg_accept_mask.Clear();
  if (!sargs_.empty()) {
    morsels_seen_.fetch_add(1, std::memory_order_relaxed);
    for (size_t s = 0; s < sargs_.size(); ++s) {
      const Column* col = table_->column(p, column_ids_[sargs_[s].chunk_col]);
      switch (CheckSarg(sargs_[s], col, m.begin, m.end)) {
        case ZoneVerdict::kSkip:
          // Some conjunct can never hold here: elide the whole morsel
          // without touching a single row. Bits set so far are harmless:
          // the next morsel's Clear() resets them before any op reads.
          morsels_skipped_.fetch_add(1, std::memory_order_relaxed);
          return;
        case ZoneVerdict::kAcceptAll:
          ctx.sarg_accept_mask.Set(static_cast<int>(s));
          break;
        case ZoneVerdict::kPartial:
          break;
      }
    }
  }
  // Chunk-scoped temporaries (DESIGN.md §16): everything the previous
  // chunk allocated is dead once its Push returned.
  const Arena::Mark morsel_start = ctx.arena.GetMark();
  for (uint64_t begin = m.begin; begin < m.end; begin += kChunkCapacity) {
    ctx.arena.Rewind(morsel_start);
    uint64_t end = std::min(begin + kChunkCapacity, m.end);
    int n = static_cast<int>(end - begin);
    Chunk chunk;
    chunk.n = n;
    chunk.cols.resize(column_ids_.size());
    uint64_t bytes = 0;
    for (size_t c = 0; c < column_ids_.size(); ++c) {
      const Column* col = table_->column(p, column_ids_[c]);
      bytes += col->ScanBytes(n);
      Vector& v = chunk.cols[c];
      v.type = col->type();
      switch (col->type()) {
        case LogicalType::kInt32:
          v.data = static_cast<const Int32Column*>(col)->raw() + begin;
          break;
        case LogicalType::kInt64:
          v.data = static_cast<const Int64Column*>(col)->raw() + begin;
          break;
        case LogicalType::kDouble:
          v.data = static_cast<const DoubleColumn*>(col)->raw() + begin;
          break;
        case LogicalType::kString: {
          const auto* sc = static_cast<const StringColumn*>(col);
          auto* views = ctx.arena.AllocArray<std::string_view>(n);
          for (int i = 0; i < n; ++i) views[i] = sc->Get(begin + i);
          v.data = views;
          break;
        }
      }
    }
    ctx.traffic()->OnRead(ctx.socket(), m.socket, bytes);
    pipeline.Push(chunk, 0, ctx);
  }
}

}  // namespace morsel
