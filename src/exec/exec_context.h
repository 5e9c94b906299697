#ifndef MORSELDB_EXEC_EXEC_CONTEXT_H_
#define MORSELDB_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "core/query_context.h"
#include "core/worker_context.h"
#include "exec/chunk.h"

namespace morsel {

// Dynamic bitset over SARG slots. The common case (a handful of
// zone-checkable conjuncts) lives in one inline word; scans with more
// than 64 registered SARGs spill into a heap vector that is sized once
// on first Set and then reused across morsels — Clear() zeroes in
// place, it never deallocates.
class SargAcceptMask {
 public:
  void Clear() {
    inline_ = 0;
    for (uint64_t& w : spill_) w = 0;
  }
  void Set(int slot) {
    if (slot < 64) {
      inline_ |= uint64_t{1} << slot;
      return;
    }
    const size_t w = static_cast<size_t>(slot) / 64 - 1;
    if (w >= spill_.size()) spill_.resize(w + 1, 0);
    spill_[w] |= uint64_t{1} << (slot % 64);
  }
  bool Test(int slot) const {
    if (slot < 64) return ((inline_ >> slot) & 1) != 0;
    const size_t w = static_cast<size_t>(slot) / 64 - 1;
    return w < spill_.size() && ((spill_[w] >> (slot % 64)) & 1) != 0;
  }

 private:
  uint64_t inline_ = 0;
  std::vector<uint64_t> spill_;
};

// Interrupt checkpoint for long-running work that executes outside an
// ExecContext (local sort runs, k-way merge parts): throws QueryAbort —
// caught at the worker/Finalize boundary — when `q` is cancelled,
// errored, or past its deadline, and applies any injected worker stall.
// No-op when q is null or checkpoints are disabled. Callers poll at
// chunk-ish granularity (~1k rows); see DESIGN §11 for placement rules.
void CheckQueryInterrupt(QueryContext* q);

// Per-worker, per-job execution state threaded through operators.
struct ExecContext {
  WorkerContext* worker = nullptr;
  QueryContext* query = nullptr;  // owning query; set by the job
  // Reset at each morsel boundary; the Source rewinds it before each
  // chunk, so vectors and `sel` arrays allocated here live one chunk.
  Arena arena;

  // Chunk-granularity cancellation checkpoint (DESIGN §11): one relaxed
  // load on the fast path, deadline/injector work every 64th call.
  // Throws QueryAbort like CheckQueryInterrupt. Long jobs whose morsels
  // are partition-sized monoliths (merge-join partition joins, sorts,
  // hash builds) call this so cancellation latency is chunk-length, not
  // morsel-length.
  void CheckInterrupt() {
    if (query == nullptr || !query->interrupt_checkpoints()) return;
    if (query->cancelled() || (++interrupt_ticks_ & 0x3F) == 0) {
      CheckQueryInterrupt(query);
    }
  }
  uint32_t interrupt_ticks_ = 0;

  // Rows this worker pushed into the pipeline's sink, across all of its
  // morsels of the job. Contexts are per (job, worker), so the per-job
  // total — the job's produced cardinality, feeding the runtime
  // join-strategy feedback — is the sum over contexts, taken once in
  // ExecPipelineJob::Finalize. No atomics on the hot path.
  int64_t rows_to_sink = 0;

  // Engine-level toggles relevant to operators.
  bool use_tagging = true;    // §4.2 pointer-tag early filtering
  bool batched_probe = true;  // staged, prefetch-pipelined join probe
                              // (DESIGN.md §5); false = row-at-a-time
  bool selection_vectors = true;  // lazy sel-vector filters (DESIGN.md
                                  // §10); false = eager per-filter
                                  // compaction

  // Per-morsel zone-map verdicts (DESIGN.md §10): bit `s` set means the
  // scan proved every row of the current morsel satisfies the conjunct
  // registered under sarg slot `s`, so FilterOp skips it. Written by
  // TableScanSource::RunMorsel at each morsel start; meaningful only
  // within that morsel's pipeline ops (same job, same worker).
  SargAcceptMask sarg_accept_mask;

  int socket() const { return worker->socket; }
  TrafficCounters* traffic() const { return worker->traffic; }
  int num_sockets() const { return worker->topo->num_sockets(); }
};

}  // namespace morsel

#endif  // MORSELDB_EXEC_EXEC_CONTEXT_H_
