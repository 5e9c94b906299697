#include "exec/radix_partition.h"

namespace morsel {

RadixPartitionSet::RadixPartitionSet(const TupleLayout* layout,
                                     int num_worker_slots,
                                     int num_partitions)
    : layout_(layout), num_partitions_(num_partitions) {
  MORSEL_CHECK(num_worker_slots >= 1 && num_partitions >= 1);
  lanes_.resize(num_worker_slots);
  for (Lane& lane : lanes_) lane.parts.resize(num_partitions);
}

RowBuffer* RadixPartitionSet::buffer(int worker_id, int partition,
                                     int socket) {
  std::unique_ptr<RowBuffer>& b = lanes_[worker_id].parts[partition];
  if (b == nullptr) b = std::make_unique<RowBuffer>(layout_, socket);
  return b.get();
}

uint64_t RadixPartitionSet::total_rows() const {
  uint64_t n = 0;
  for (const Lane& lane : lanes_) {
    for (const std::unique_ptr<RowBuffer>& b : lane.parts) {
      if (b != nullptr) n += b->rows();
    }
  }
  return n;
}

uint64_t RadixPartitionSet::partition_rows(int partition) const {
  uint64_t n = 0;
  for (const Lane& lane : lanes_) {
    const RowBuffer* b = lane.parts[partition].get();
    if (b != nullptr) n += b->rows();
  }
  return n;
}

RadixScatter::RadixScatter(const TupleLayout* layout, int num_partitions)
    : layout_(layout),
      num_partitions_(num_partitions),
      counts_(num_partitions, 0),
      cursors_(num_partitions, nullptr) {
  MORSEL_CHECK(num_partitions >= 1);
}

uint8_t** RadixScatter::Scatter(
    const uint64_t* hashes, int n, ExecContext& ctx,
    const std::function<RowBuffer*(int)>& buffer_of) {
  // One chunk is the checkpoint granularity: a scatter never runs
  // unbounded between polls (DESIGN §11).
  ctx.CheckInterrupt();
  const int parts = num_partitions_;
  std::fill(counts_.begin(), counts_.end(), 0u);
  for (int i = 0; i < n; ++i) {
    ++counts_[RadixPartitionOf(hashes[i], parts)];
  }
  // One bulk (zero-filling) append per touched partition: the capacity
  // check and the header clearing are paid per chunk, not per row.
  const size_t rs = static_cast<size_t>(layout_->row_size());
  for (int p = 0; p < parts; ++p) {
    if (counts_[p] == 0) continue;
    cursors_[p] = buffer_of(p)->AppendRows(counts_[p]);
  }
  uint8_t** dest = ctx.arena.AllocArray<uint8_t*>(n);
  for (int i = 0; i < n; ++i) {
    const int p = RadixPartitionOf(hashes[i], parts);
    dest[i] = cursors_[p];
    cursors_[p] += rs;
  }
  rows_scattered_ += static_cast<uint64_t>(n);
  return dest;
}

}  // namespace morsel
