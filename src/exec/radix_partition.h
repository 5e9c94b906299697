#ifndef MORSELDB_EXEC_RADIX_PARTITION_H_
#define MORSELDB_EXEC_RADIX_PARTITION_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "exec/exec_context.h"
#include "exec/tuple.h"

namespace morsel {

// The reusable radix-partition substrate (DESIGN §13). Three pieces:
//
//  - RadixPartitionOf: the one partition function every producer and
//    consumer of hash-partitioned rows must share. A group spilled by a
//    pre-aggregating worker and the same group scattered by a radix-mode
//    worker land in the same partition only because both call this.
//  - RadixPartitionSet: a worker x partition matrix of NUMA-local
//    RowBuffers — each worker scatters into its own cache-line-padded
//    lane without synchronization; a downstream per-partition consumer
//    reads column `p` of the matrix after the pipeline barrier.
//  - RadixScatter: one worker's histogram -> bulk-reserve -> scatter
//    pass over a chunk of hashed rows, with the §11 interrupt
//    checkpoint. Buffer lookup is a callback so the same pass serves
//    both RadixPartitionSet (aggregation spills) and RunSet's radix
//    runs (merge-join materialization).

// Partition index of a row hash. Uses bits 13.. so the radix fan-out
// stays independent of both the pre-aggregation table's slot index (low
// bits) and the join hash table's slot/tag (high bits) — re-partitioning
// rows that already live in one of those structures still spreads.
// Identical to the aggregation spill partitioning by construction.
inline int RadixPartitionOf(uint64_t hash, int num_partitions) {
  return static_cast<int>((hash >> 13) %
                          static_cast<uint64_t>(num_partitions));
}

// Worker-private lanes of per-partition row buffers. Writes need no
// locking: each worker owns its lane (indexed by worker slot), and the
// lanes are cache-line aligned so two workers bumping their row tallies
// never share a line. Readers (phase-2 partition merges, RowsProduced)
// run after the producing pipeline's barrier.
class RadixPartitionSet {
 public:
  RadixPartitionSet(const TupleLayout* layout, int num_worker_slots,
                    int num_partitions);

  const TupleLayout& layout() const { return *layout_; }
  int num_partitions() const { return num_partitions_; }
  int num_worker_slots() const { return static_cast<int>(lanes_.size()); }

  // Buffer for (worker, partition); created lazily on the worker's
  // socket so scatters write NUMA-locally (§2, Figure 3).
  RowBuffer* buffer(int worker_id, int partition, int socket);
  RowBuffer* buffer_if_exists(int worker_id, int partition) const {
    return lanes_[worker_id].parts[partition].get();
  }

  // Total rows across all lanes / one partition's rows across all lanes.
  // Post-barrier only.
  uint64_t total_rows() const;
  uint64_t partition_rows(int partition) const;

 private:
  struct alignas(kCacheLineSize) Lane {
    std::vector<std::unique_ptr<RowBuffer>> parts;  // one per partition
  };

  const TupleLayout* layout_;
  int num_partitions_;
  std::vector<Lane> lanes_;  // one per worker slot
};

// One worker's scatter pass: per-chunk histogram over the row hashes,
// one bulk (zero-filling) AppendRows per touched partition, then the
// per-row destination pointers are handed back in input order so the
// caller can fill fields column-wise. The histogram/cursor scratch is
// per-instance — one RadixScatter per (worker, sink) — so counters are
// never shared between workers. Polls the interrupt checkpoint once per
// chunk (DESIGN §11).
class RadixScatter {
 public:
  // Rows go to partition RadixPartitionOf(hash, num_partitions).
  RadixScatter(const TupleLayout* layout, int num_partitions);

  // `buffer_of(p)` returns the worker's buffer for partition p (created
  // lazily by the caller). The returned array (arena-allocated, valid
  // for the current chunk) points at the reserved, zero-headed
  // row slots; callers must write hash and fields before the buffers
  // are read.
  uint8_t** Scatter(const uint64_t* hashes, int n, ExecContext& ctx,
                    const std::function<RowBuffer*(int)>& buffer_of);

  // Rows this worker has scattered (single-writer; read post-barrier).
  uint64_t rows_scattered() const { return rows_scattered_; }

 private:
  const TupleLayout* layout_;
  int num_partitions_;
  std::vector<uint32_t> counts_;    // per-partition chunk histogram
  std::vector<uint8_t*> cursors_;   // per-partition write cursor
  uint64_t rows_scattered_ = 0;
};

}  // namespace morsel

#endif  // MORSELDB_EXEC_RADIX_PARTITION_H_
