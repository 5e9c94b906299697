#ifndef MORSELDB_EXEC_MERGE_JOIN_H_
#define MORSELDB_EXEC_MERGE_JOIN_H_

#include <memory>
#include <vector>

#include "exec/expression.h"
#include "exec/hash_join.h"  // JoinKind
#include "exec/pipeline.h"
#include "exec/run_set.h"
#include "exec/tuple.h"

namespace morsel {

// Shared state of one MPSM-style sort-merge equi-join (Albutiu et al.,
// "Massively Parallel Sort-Merge Joins in Main Memory Multi-Core
// Database Systems"; scheduled morsel-wise per §4 of the morsel paper).
//
// Both inputs materialize into NUMA-local sorted runs (the RunSet
// substrate shared with ORDER BY). Global separator keys — sampled from
// *both* sides so skew on either input balances the plan — range-
// partition both run sets identically; output partition p then merge-
// joins the left and right slices of range p as one morsel, completely
// synchronization-free and stealable like any other morsel.
//
// Supports inner / left-outer / semi / anti joins plus residual
// predicates (same semantics as HashProbeOp: the residual is evaluated
// over [left columns..., right payload...] and participates in match
// existence for the non-inner kinds).
class MergeJoinState {
 public:
  // `left_types` are the probe-side columns with `left_key_cols` naming
  // the key fields; right tuples are laid out [keys..., payload...] with
  // `num_keys` fields leading (mirroring JoinState).
  MergeJoinState(std::vector<LogicalType> left_types,
                 std::vector<int> left_key_cols,
                 std::vector<LogicalType> right_types, int num_keys,
                 JoinKind kind, int num_worker_slots, int num_parts);

  RunSet* left() { return &left_; }
  RunSet* right() { return &right_; }
  JoinKind kind() const { return kind_; }
  int num_keys() const { return num_keys_; }
  void set_residual(ExprPtr residual) { residual_ = std::move(residual); }

  // Radix-materialization fast path (DESIGN §13) for unsorted inputs:
  // both sides hash-scatter on their join keys into per-(worker,
  // partition) runs of the shared radix substrate. Equal keys hash
  // identically across layouts (int32 keys widen before hashing), so
  // matching rows co-locate by construction; PlanJoin then skips
  // sampling and separator searches entirely and each partition joins
  // its hash class in key-sorted order. Call before materialization.
  void EnableRadixMaterialize();
  bool radix_materialize() const { return radix_; }

  // Computes global separators from both sides' sorted runs and range-
  // partitions both sides identically (or, in radix mode, just declares
  // the scatter partitions). Runs once, single-threaded, from the join
  // source's MakeRanges (after both local-sort jobs finished).
  void PlanJoin();
  int planned_parts() const { return left_.num_parts(); }

  // Merge-joins output partition `part` and pushes result chunks into
  // `pipeline` starting at operator 0.
  void JoinPart(int part, Pipeline& pipeline, ExecContext& ctx);

 private:
  // Normalized key domain for cross-layout comparison.
  enum class KeyClass { kInt, kFloat, kStr };

  // 3-way comparison of the join keys of two rows, each from either
  // side's layout (`*_right` selects the layout/key fields).
  int CompareKey(const uint8_t* a, bool a_right, const uint8_t* b,
                 bool b_right) const;

  // Emits matched (left, right) candidate pairs: builds the combined
  // chunk, applies the residual as a filter (inner / no-residual outer
  // path), pushes downstream, and resets the arena (the partition is
  // the morsel, so the reset is the rewind to its start: DESIGN.md §16).
  void FlushMatches(const std::vector<const uint8_t*>& cand_left,
                    const std::vector<const uint8_t*>& cand_right,
                    ExecContext& ctx, Pipeline& pipeline);

  // Emits left-only rows (semi/anti output, or outer misses padded with
  // right-side type defaults).
  void FlushLeftOnly(const std::vector<const uint8_t*>& rows, bool pad,
                     ExecContext& ctx, Pipeline& pipeline);

  // Residual path for the non-inner kinds: evaluates the residual over
  // left row `l` x the `group_n` rows at `group`, returns whether any
  // pair passes; when `emit_pass` (left outer) the passing combined rows
  // are pushed.
  bool GroupResidualMatch(const uint8_t* l, const uint8_t* const* group,
                          size_t group_n, bool emit_pass, ExecContext& ctx,
                          Pipeline& pipeline);

  RunSet left_;
  RunSet right_;
  int num_keys_;
  JoinKind kind_;
  int num_parts_;
  bool radix_ = false;  // radix-scattered materialization enabled
  bool fast_int_key_ = false;  // single integer key: direct compares
  std::vector<int> left_key_cols_;
  std::vector<KeyClass> key_class_;
  std::vector<int> left_fields_;     // all left fields, in order
  std::vector<int> payload_fields_;  // right fields after the keys
  ExprPtr residual_;
};

// Source of the partition-merge-join pipeline: plans the partitions in
// MakeRanges (single-threaded, after both sort jobs) and joins one
// partition per morsel.
class MergeJoinSource final : public Source {
 public:
  explicit MergeJoinSource(MergeJoinState* state) : state_(state) {}

  std::vector<MorselRange> MakeRanges(const Topology& topo) override;
  void RunMorsel(const Morsel& m, Pipeline& pipeline,
                 ExecContext& ctx) override;

 private:
  MergeJoinState* state_;
};

}  // namespace morsel

#endif  // MORSELDB_EXEC_MERGE_JOIN_H_
