#include "engine/lowering.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "engine/engine.h"
#include "engine/query.h"
#include "exec/aggregation.h"
#include "exec/fused.h"
#include "exec/hash_join.h"
#include "exec/merge_join.h"
#include "exec/operators.h"
#include "exec/result.h"
#include "exec/run_set.h"
#include "exec/scan.h"
#include "exec/sort.h"

namespace morsel {

namespace {

// Planner statistics (heuristic, never affect semantics).
constexpr double kFilterSelectivity = 0.33;

// Adaptive-choice thresholds (DESIGN §8): tiny inputs and small
// dimension builds stay hash; near-sorted inputs of comparable
// cardinality route to merge.
constexpr double kMinRowsForMerge = 4096.0;
constexpr double kMinBuildProbeRatio = 0.25;
constexpr double kSortednessBar = 0.90;

// Stat decay through a hash-probe output (ROADMAP item): the
// AMAC-batched probe can locally reorder matches within a chunk, so
// sortedness observed on the probe input arrives slightly degraded
// downstream — deep join trees stop claiming perfect order.
constexpr double kProbeOrderDecay = 0.95;

std::string FormatRows(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

std::string FormatFrac(double v) {
  if (v < 0.0) return "?";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

const char* StrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kHash:
      return "hash";
    case JoinStrategy::kMerge:
      return "merge";
    case JoinStrategy::kAdaptive:
      return "adaptive";
  }
  return "?";
}

}  // namespace

int Lowering::OpenPipe::Index(const std::string& name) const {
  return IndexOfName(names, name);
}

Lowering::Lowering(Query* query, const LogicalNode* root)
    : query_(query), engine_(query->engine()), root_(root) {}

std::vector<const LogicalNode*> Lowering::ChainOf(const LogicalNode* tail) {
  std::vector<const LogicalNode*> chain;
  for (const LogicalNode* n = tail; n != nullptr; n = n->input.get()) {
    chain.push_back(n);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

Lowering::OpenPipe Lowering::StartChain(const LogicalNode* scan) {
  MORSEL_CHECK(scan->kind == LogicalNode::Kind::kScan);
  OpenPipe pipe;
  auto source =
      std::make_unique<TableScanSource>(scan->table, scan->column_ids);
  pipe.scan_source = source.get();
  pipe.source = std::move(source);
  pipe.names = scan->names;
  pipe.types = scan->types;
  pipe.est_rows = scan->scan_rows;
  pipe.sorted_frac = scan->scan_sorted_frac;
  // Statistics window for composite-key sortedness probes: valid until
  // the first scope reshape.
  pipe.stats_table = scan->table;
  pipe.stats_cols = scan->column_ids;
  return pipe;
}

void Lowering::Run() {
  std::vector<const LogicalNode*> chain = ChainOf(root_);
  OpenPipe pipe = StartChain(chain.front());
  (void)LowerNodes(chain, 1, std::move(pipe),
                   engine_->options().runtime_feedback);
}

Lowering::OpenPipe Lowering::LowerSubtree(const LogicalNode* tail) {
  std::vector<const LogicalNode*> chain = ChainOf(tail);
  OpenPipe pipe = StartChain(chain.front());
  std::optional<OpenPipe> out =
      LowerNodes(chain, 1, std::move(pipe), /*allow_defer=*/false);
  MORSEL_CHECK(out.has_value());
  return std::move(*out);
}

std::optional<Lowering::OpenPipe> Lowering::LowerNodes(
    const std::vector<const LogicalNode*>& chain, size_t start,
    OpenPipe pipe, bool allow_defer) {
  for (size_t i = start; i < chain.size(); ++i) {
    const LogicalNode* n = chain[i];
    switch (n->kind) {
      case LogicalNode::Kind::kScan:
        MORSEL_CHECK_MSG(false, "scan can only root a chain");
        break;
      case LogicalNode::Kind::kFilter:
        LowerFilter(n, pipe);
        break;
      case LogicalNode::Kind::kProject:
        LowerProject(n, pipe);
        break;
      case LogicalNode::Kind::kGroupBy:
        pipe = LowerGroupBy(n, std::move(pipe));
        break;
      case LogicalNode::Kind::kJoin: {
        OpenPipe build = LowerSubtree(n->build.get());
        JoinStrategy s = n->strategy.has_value()
                             ? *n->strategy
                             : engine_->options().join_strategy;
        if (s == JoinStrategy::kAdaptive && !n->probe_keys.empty() &&
            allow_defer &&
            (FeederPending(pipe) || FeederPending(build))) {
          // Staged lowering: the inputs end in pipeline breakers that
          // have not produced their cardinalities yet. Park both open
          // pipes (and the rest of the spine) behind a placeholder job
          // gated on those breakers; its Finalize re-enters here with
          // the actual row counts and splices the chosen pipelines
          // into the running QEP.
          std::vector<int> deps = pipe.deps;
          for (int d : build.deps) {
            if (std::find(deps.begin(), deps.end(), d) == deps.end()) {
              deps.push_back(d);
            }
          }
          auto dj = std::make_unique<AdaptiveDecisionJob>(
              query_->context(), "adaptive-join-decide", this,
              engine_->queue_options(), chain, i, std::move(pipe),
              std::move(build));
          EmitJob(std::move(dj), std::move(deps));
          return std::nullopt;
        }
        pipe = ResolveJoin(n, s, std::move(pipe), std::move(build),
                           /*decision=*/nullptr);
        break;
      }
      case LogicalNode::Kind::kOrderBy:
        LowerOrderBy(n, std::move(pipe));
        return OpenPipe{};
      case LogicalNode::Kind::kCollect:
        LowerCollect(n, std::move(pipe));
        return OpenPipe{};
    }
  }
  return pipe;
}

void Lowering::Resume(AdaptiveDecisionJob* dj) {
  // All emits below splice into the running QEP, gated on the decision
  // job itself: it only resolves after this Finalize returns, so the
  // spliced pipelines are released in dependency order right after.
  splice_gate_ = dj->pipeline_id;
  const LogicalNode* n = dj->chain_[dj->join_index_];
  OpenPipe pipe =
      ResolveJoin(n, JoinStrategy::kAdaptive, std::move(dj->probe_),
                  std::move(dj->build_), dj);
  (void)LowerNodes(dj->chain_, dj->join_index_ + 1, std::move(pipe),
                   /*allow_defer=*/true);
  splice_gate_ = -1;
}

bool Lowering::FeederPending(const OpenPipe& pipe) const {
  return pipe.feeder_job >= 0 &&
         !query_->job(pipe.feeder_job)
              ->completed.load(std::memory_order_acquire);
}

double Lowering::SideRows(const OpenPipe& pipe, bool* used_feedback) const {
  *used_feedback = false;
  if (pipe.feeder_job >= 0) {
    PipelineJob* feeder = query_->job(pipe.feeder_job);
    if (feeder->completed.load(std::memory_order_acquire)) {
      int64_t rows = feeder->rows_produced();
      if (rows >= 0) {
        *used_feedback = true;
        return static_cast<double>(rows) * pipe.feeder_mult;
      }
    }
  }
  return pipe.est_rows;
}

double Lowering::SideSorted(const OpenPipe& pipe,
                            const std::vector<std::string>& keys) const {
  const double lead = pipe.sorted_frac[pipe.Index(keys[0])];
  if (keys.size() < 2 || pipe.stats_table == nullptr) return lead;
  // Composite probe: data clustered on a leading key can look fully
  // unsorted on every single column while being near-sorted on the key
  // prefix — exactly the inputs where the multi-key merge join wins.
  std::vector<int> cols;
  for (const std::string& k : keys) {
    const int idx = pipe.Index(k);
    if (idx >= static_cast<int>(pipe.stats_cols.size())) return lead;
    cols.push_back(pipe.stats_cols[idx]);
  }
  return pipe.stats_table->ColumnSortedFraction(cols);
}

double Lowering::ApplyObservedOrder(OpenPipe& pipe) const {
  if (pipe.feeder_job < 0 || pipe.order_feeder_cols.empty()) return -1.0;
  PipelineJob* feeder = query_->job(pipe.feeder_job);
  if (!feeder->completed.load(std::memory_order_acquire)) return -1.0;
  const double obs = feeder->observed_sorted();
  if (obs < 0.0) return -1.0;
  // The breaker watched the data flow through: its observation
  // supersedes whatever the plan-time sample (or the lowering's
  // propagation rule) claimed for these columns.
  for (const std::string& c : pipe.order_feeder_cols) {
    pipe.sorted_frac[pipe.Index(c)] = obs;
  }
  return obs;
}

JoinStrategy Lowering::Choose(double probe_rows, double build_rows,
                              double probe_sorted, double build_sorted) {
  // Tiny inputs: the merge join's two extra materialize+sort pipelines
  // cost more than any algorithmic edge — hash unconditionally.
  if (probe_rows < kMinRowsForMerge || build_rows < kMinRowsForMerge) {
    return JoinStrategy::kHash;
  }
  // A small dimension build stays hash even when sorted: probing a
  // cache-resident table beats materializing the whole probe side. The
  // merge join's win region is a build side of comparable cardinality
  // (BENCH_micro_merge_join presorted-bigbuild).
  if (build_rows < kMinBuildProbeRatio * probe_rows) {
    return JoinStrategy::kHash;
  }
  // Sortedness probe on the leading key column of both sides: near-
  // sorted inputs make the merge join's local sorts degenerate to
  // detection scans; on everything else the hash join leads by
  // multiples (BENCH_micro_merge_join).
  if (probe_sorted >= kSortednessBar && build_sorted >= kSortednessBar) {
    return JoinStrategy::kMerge;
  }
  return JoinStrategy::kHash;
}

Lowering::OpenPipe Lowering::ResolveJoin(const LogicalNode* n,
                                         JoinStrategy s, OpenPipe probe,
                                         OpenPipe build,
                                         AdaptiveDecisionJob* decision) {
  std::string annotation;
  if (s == JoinStrategy::kAdaptive) {
    if (n->probe_keys.empty()) {
      s = JoinStrategy::kHash;
      annotation = "[adaptive->hash: no equi-keys]";
    } else {
      bool probe_fb = false;
      bool build_fb = false;
      const double probe_rows = SideRows(probe, &probe_fb);
      const double build_rows = SideRows(build, &build_fb);
      // Runtime order feedback first (it refreshes sorted_frac), then
      // the composite-prefix probe for multi-key joins.
      const double probe_obs = ApplyObservedOrder(probe);
      const double build_obs = ApplyObservedOrder(build);
      const double probe_sorted = SideSorted(probe, n->probe_keys);
      const double build_sorted = SideSorted(build, n->build_keys);
      // Kinds the merge join cannot run always resolve to hash; fold
      // that into the choice so the annotation never claims a strategy
      // the lowering below would refuse.
      const bool merge_ok = n->join_kind != JoinKind::kRightOuterMark;
      s = Choose(probe_rows, build_rows, probe_sorted, build_sorted);
      if (!merge_ok) s = JoinStrategy::kHash;
      std::string tag;
      if (probe_fb || build_fb) {
        JoinStrategy plan_s = Choose(probe.est_rows, build.est_rows,
                                     probe_sorted, build_sorted);
        if (!merge_ok) plan_s = JoinStrategy::kHash;
        tag = plan_s == s ? "runtime-confirmed"
                          : std::string("runtime-revised plan-time=") +
                                StrategyName(plan_s);
      } else {
        tag = "plan-time";
      }
      annotation = "[adaptive->" + std::string(StrategyName(s)) +
                   ": build=" + FormatRows(build_rows) +
                   " probe=" + FormatRows(probe_rows) +
                   " sorted=" + FormatFrac(probe_sorted) + "/" +
                   FormatFrac(build_sorted);
      if (probe_obs >= 0.0 || build_obs >= 0.0) {
        annotation += " observed-order=" + FormatFrac(probe_obs) + "/" +
                      FormatFrac(build_obs);
      }
      annotation += ", " + tag + "]";
    }
  }
  if (decision != nullptr && !annotation.empty()) {
    // Deferred joins report the decision on their placeholder's
    // ExplainPlan line; eager ones on the build-side close job.
    decision->set_info(annotation);
    annotation.clear();
  }
  return LowerResolvedJoin(n, s, std::move(probe), std::move(build),
                           std::move(annotation));
}

Lowering::JoinBuildPlan Lowering::PrepareJoinBuild(const LogicalNode* n,
                                                   OpenPipe& probe,
                                                   OpenPipe& build) {
  JoinBuildPlan plan;
  // Both pipes grow join operators below: close out any filter runs
  // still accumulating.
  FlushPendingFilter(probe);
  FlushPendingFilter(build);
  // Re-order the build pipe's output to [keys..., payload...].
  std::vector<ExprPtr> list;
  std::vector<std::string> bnames;
  std::vector<LogicalType> btypes;
  std::vector<double> bfracs;
  for (const std::string& k : n->build_keys) {
    int idx = build.Index(k);
    list.push_back(ColRef(idx, build.types[idx]));
    plan.build_types.push_back(build.types[idx]);
    bnames.push_back(k);
    btypes.push_back(build.types[idx]);
    bfracs.push_back(build.sorted_frac[idx]);
  }
  for (const std::string& p : n->build_payload) {
    int idx = build.Index(p);
    list.push_back(ColRef(idx, build.types[idx]));
    plan.build_types.push_back(build.types[idx]);
    plan.payload_types.push_back(build.types[idx]);
    bnames.push_back(p);
    btypes.push_back(build.types[idx]);
    bfracs.push_back(build.sorted_frac[idx]);
  }
  build.ops.push_back(std::make_unique<MapOp>(std::move(list)));
  build.scan_source = nullptr;
  build.stats_table = nullptr;
  build.names = std::move(bnames);
  build.types = std::move(btypes);
  build.sorted_frac = std::move(bfracs);

  if (n->residual != nullptr) {
    // Residual scope: probe columns followed by the emitted build
    // payload (matching the combined chunk both probe paths produce).
    std::vector<std::string> rnames = probe.names;
    std::vector<LogicalType> rtypes = probe.types;
    for (size_t p = 0; p < n->build_payload.size(); ++p) {
      rnames.push_back(n->build_payload[p]);
      rtypes.push_back(plan.payload_types[p]);
    }
    plan.residual = FoldConstants(n->residual(
        ColScope(std::move(rnames), std::move(rtypes))));
  }
  return plan;
}

Lowering::OpenPipe Lowering::LowerResolvedJoin(const LogicalNode* n,
                                               JoinStrategy s,
                                               OpenPipe probe,
                                               OpenPipe build,
                                               std::string annotation) {
  MORSEL_CHECK(s != JoinStrategy::kAdaptive);
  const int num_keys = static_cast<int>(n->build_keys.size());
  const JoinKind kind = n->join_kind;
  JoinBuildPlan plan = PrepareJoinBuild(n, probe, build);

  if (s == JoinStrategy::kMerge && kind != JoinKind::kRightOuterMark) {
    // --- MPSM sort-merge join (breaks both pipes) ----------------------
    std::vector<int> probe_cols;
    for (const std::string& k : n->probe_keys) {
      probe_cols.push_back(probe.Index(k));
    }
    // Oversubscribe the output partitioning (factor x workers): under
    // separator skew a heavy partition is one morsel, so finer
    // partitions keep the tail stealable.
    const int num_parts =
        engine_->num_workers() *
        std::max(1, engine_->options().merge_partition_factor);
    MergeJoinState* js = query_->Own<MergeJoinState>(
        probe.types, std::move(probe_cols), plan.build_types, num_keys,
        kind, query_->num_worker_slots(), num_parts);
    js->set_residual(std::move(plan.residual));
    // Materialization mode (DESIGN §13): near-sorted inputs keep the
    // separator path — their local sorts degenerate to detection scans
    // precisely because materialization preserved the global order, and
    // hash-scattering would destroy that. Everything else (including
    // unknown sortedness, -1) radix-scatters on the join keys so each
    // partition sorts only its 1/P share and planning needs no samples.
    const double ps = probe.sorted_frac[probe.Index(n->probe_keys[0])];
    const double bs = build.sorted_frac[0];  // keys lead post-PrepareJoinBuild
    const bool radix_mat =
        engine_->options().radix_merge_materialize &&
        !(ps >= kSortednessBar && bs >= kSortednessBar);
    if (radix_mat) js->EnableRadixMaterialize();

    RunMaterializeSink* build_sink =
        query_->Own<RunMaterializeSink>(js->right());
    int build_mat = ClosePipe(build, build_sink, "merge-build-materialize");
    if (!annotation.empty()) AppendInfo(build_mat, annotation);
    int build_sort = EmitJob(
        std::make_unique<LocalSortRunsJob>(
            query_->context(), "merge-build-sort", js->right(),
            engine_->queue_options()),
        {build_mat});

    RunMaterializeSink* probe_sink =
        query_->Own<RunMaterializeSink>(js->left());
    int probe_mat = ClosePipe(probe, probe_sink, "merge-probe-materialize");
    if (radix_mat) {
      // ExplainPlan: the mode decision, on the probe materialize line.
      AppendInfo(probe_mat,
                 "[radix-materialize " + std::to_string(num_parts) +
                     " parts]");
    }
    int probe_sort = EmitJob(
        std::make_unique<LocalSortRunsJob>(
            query_->context(), "merge-probe-sort", js->left(),
            engine_->queue_options()),
        {probe_mat});

    // Continue from the partition-merge-join source; partition planning
    // happens in its MakeRanges once both sorts completed.
    OpenPipe out;
    out.source = std::make_unique<MergeJoinSource>(js);
    out.deps = {probe_sort, build_sort};
    out.name_prefix = "partition-merge-join+";
    out.names = std::move(probe.names);
    out.types = std::move(probe.types);
    out.est_rows = probe.est_rows;
    // Each partition-morsel emits in key order, so downstream runs see
    // few ascending key segments; every other column's order is
    // destroyed by the sort.
    out.sorted_frac.assign(out.names.size(), -1.0);
    for (const std::string& k : n->probe_keys) {
      out.sorted_frac[out.Index(k)] = 1.0;
    }
    // Feedback: the probe side's materialized row count is the best
    // available proxy for this join's output cardinality (the planner's
    // estimate makes the same assumption). The sort job also observed
    // how much of the data arrived in key order — a downstream
    // deferred adaptive join refreshes the key columns' sortedness
    // from that observation instead of trusting the 1.0 claim above
    // (radix-scattered materialization interleaves partition runs).
    out.feeder_job = probe_sort;
    out.feeder_mult = 1.0;
    out.order_feeder_cols = n->probe_keys;
    if (kind != JoinKind::kSemi && kind != JoinKind::kAnti) {
      for (size_t p = 0; p < n->build_payload.size(); ++p) {
        out.names.push_back(n->build_payload[p]);
        out.types.push_back(plan.payload_types[p]);
        out.sorted_frac.push_back(-1.0);
      }
    }
    return out;
  }

  // --- hash join (probe side stays pipelined) --------------------------
  JoinState* js = query_->Own<JoinState>(plan.build_types, num_keys, kind,
                                         query_->num_worker_slots());
  HashBuildSink* build_sink = query_->Own<HashBuildSink>(js);
  int build_job = ClosePipe(build, build_sink, "join-build");
  if (!annotation.empty()) AppendInfo(build_job, annotation);
  int insert_job = EmitJob(
      std::make_unique<HashInsertJob>(query_->context(), "join-insert", js,
                                      engine_->queue_options()),
      {build_job});

  std::vector<int> probe_cols;
  for (const std::string& k : n->probe_keys) {
    probe_cols.push_back(probe.Index(k));
  }
  std::vector<int> out_fields;
  for (size_t p = 0; p < n->build_payload.size(); ++p) {
    out_fields.push_back(num_keys + static_cast<int>(p));
  }
  probe.ops.push_back(std::make_unique<HashProbeOp>(
      js, std::move(probe_cols), std::move(out_fields),
      std::move(plan.residual)));
  probe.scan_source = nullptr;  // scope widened past the scan columns
  probe.stats_table = nullptr;
  probe.deps.push_back(insert_job);
  // Stat decay: the batched probe preserves probe order only up to
  // within-chunk reordering, so downstream sortedness claims fade with
  // every hash probe they cross.
  for (double& f : probe.sorted_frac) {
    if (f > 0.0) f *= kProbeOrderDecay;
  }
  // Semi/anti emit probe columns only; other kinds append the payload.
  if (kind != JoinKind::kSemi && kind != JoinKind::kAnti) {
    for (size_t p = 0; p < n->build_payload.size(); ++p) {
      probe.names.push_back(n->build_payload[p]);
      probe.types.push_back(plan.payload_types[p]);
      probe.sorted_frac.push_back(-1.0);
    }
  }
  return probe;
}

void Lowering::LowerFilter(const LogicalNode* n, OpenPipe& pipe) {
  // Split the predicate into its top-level conjuncts so FilterOp can
  // short-circuit, reorder and zone-map-elide them independently, and
  // fold column-free subtrees to literals while we are at it.
  std::vector<ExprPtr> conjuncts = SplitConjuncts(*n->predicate);
  for (ExprPtr& raw : conjuncts) {
    ExprPtr c = FoldConstants(std::move(raw));
    int64_t iv;
    double dv;
    bool is_int;
    if (c->AsConstNumeric(&iv, &dv, &is_int) &&
        (is_int ? iv != 0 : dv != 0)) {
      continue;  // constant-true conjunct: nothing to evaluate
    }
    int slot = -1;
    if (engine_->options().zone_maps && pipe.scan_source != nullptr) {
      Sarg sarg;
      if (c->ExtractSarg(&sarg)) {
        slot = RegisterSarg(sarg, pipe);
      }
    }
    pipe.pending_slots.push_back(slot);
    pipe.pending_conjuncts.push_back(std::move(c));
  }
  // The first contributing node's plan-owned slot persists the learned
  // order; a fused merge re-uses it for the merged conjunct list (the
  // conjunct count keys validation, so fused and unfused executions of
  // the same plan never adopt each other's words by accident).
  if (pipe.pending_persist == nullptr &&
      n->learned_conjunct_order != nullptr) {
    pipe.pending_persist = n->learned_conjunct_order.get();
  }
  // Fused mode keeps accumulating: adjacent kFilter nodes merge into
  // one FilterOp whose adaptive reordering ranks conjuncts across the
  // original filter boundaries. Unfused mode closes each node out
  // immediately (the differential ablation arm, op-per-node shape).
  if (!engine_->options().fused_pipelines) FlushPendingFilter(pipe);
  // Generic selectivity guess; filtering preserves row order, so the
  // per-column sortedness statistics stand.
  pipe.est_rows *= kFilterSelectivity;
  pipe.feeder_mult *= kFilterSelectivity;
}

void Lowering::FlushPendingFilter(OpenPipe& pipe) {
  if (pipe.pending_conjuncts.empty()) {
    pipe.pending_persist = nullptr;
    return;
  }
  auto filter = std::make_unique<FilterOp>(
      std::move(pipe.pending_conjuncts), std::move(pipe.pending_slots),
      pipe.pending_persist);
  if (filter->started_warm()) {
    // ExplainPlan: this execution adopted a conjunct order a previous
    // execution of the same plan learned (PreparedQuery warm start).
    if (!pipe.pending_info.empty()) pipe.pending_info += ' ';
    pipe.pending_info += "[warm-conjunct-order]";
  }
  pipe.ops.push_back(std::move(filter));
  pipe.pending_conjuncts.clear();
  pipe.pending_slots.clear();
  pipe.pending_persist = nullptr;
}

int Lowering::RegisterSarg(const Sarg& sarg, OpenPipe& pipe) {
  // Match the literal representation to the storage type: integer
  // bounds for integer columns, an exactly-representable double for
  // double columns. Anything else stays a per-row conjunct — zone-map
  // verdicts must never lose precision.
  ScanSarg out;
  out.chunk_col = sarg.col;
  out.op = sarg.op;
  switch (pipe.types[sarg.col]) {
    case LogicalType::kInt32:
    case LogicalType::kInt64:
      if (!sarg.lit_is_int) return -1;
      out.i64 = sarg.i64;
      break;
    case LogicalType::kDouble:
      if (sarg.lit_is_int) {
        constexpr int64_t kExactDouble = int64_t{1} << 53;
        if (sarg.i64 > kExactDouble || sarg.i64 < -kExactDouble) return -1;
        out.f64 = static_cast<double>(sarg.i64);
      } else {
        out.f64 = sarg.f64;
      }
      break;
    case LogicalType::kString:
      return -1;
  }
  return pipe.scan_source->AddSarg(out);
}

void Lowering::LowerProject(const LogicalNode* n, OpenPipe& pipe) {
  FlushPendingFilter(pipe);
  std::vector<ExprPtr> list;
  std::vector<double> fracs;
  for (const ExprPtr& e : n->exprs) {
    // Bare column references carry their sortedness stat through the
    // projection; computed columns are unknown.
    int src = e->AsColumnIndex();
    fracs.push_back(src >= 0 ? pipe.sorted_frac[src] : -1.0);
    list.push_back(FoldConstants(e->Clone()));
  }
  pipe.ops.push_back(std::make_unique<MapOp>(std::move(list)));
  pipe.scan_source = nullptr;  // scope reshaped: no more SARG windows
  pipe.stats_table = nullptr;
  pipe.names = n->names;
  pipe.types = n->types;
  pipe.sorted_frac = std::move(fracs);
}

Lowering::OpenPipe Lowering::LowerGroupBy(const LogicalNode* n,
                                          OpenPipe pipe) {
  FlushPendingFilter(pipe);
  // Phase-1 input chunk: [keys..., one input column per aggregate].
  std::vector<ExprPtr> map_exprs;
  std::vector<LogicalType> key_types;
  for (const std::string& k : n->group_keys) {
    int idx = pipe.Index(k);
    map_exprs.push_back(ColRef(idx, pipe.types[idx]));
    key_types.push_back(pipe.types[idx]);
  }
  std::vector<AggSpec> specs;
  for (size_t j = 0; j < n->aggs.size(); ++j) {
    const AggItem& a = n->aggs[j];
    AggSpec spec;
    spec.func = a.func;
    spec.input_col = static_cast<int>(n->group_keys.size() + j);
    if (a.input == nullptr) {
      MORSEL_CHECK(a.func == AggFunc::kCount);
      spec.input_type = LogicalType::kInt32;
      map_exprs.push_back(ConstI32(0));  // placeholder, never read
    } else {
      spec.input_type = a.input->type();
      map_exprs.push_back(FoldConstants(a.input->Clone()));
    }
    specs.push_back(spec);
  }
  pipe.ops.push_back(std::make_unique<MapOp>(std::move(map_exprs)));
  pipe.scan_source = nullptr;
  pipe.stats_table = nullptr;

  GroupByState* gs = query_->Own<GroupByState>(
      key_types, specs, query_->num_worker_slots());
  AggPhase1Sink::Options aopts;
  aopts.adaptive = engine_->options().adaptive_agg;
  aopts.switch_ratio = engine_->options().agg_radix_switch_ratio;
  AggPhase1Sink* sink = query_->Own<AggPhase1Sink>(gs, aopts);
  int phase1 = ClosePipe(pipe, sink, "agg-phase1");

  // Continue from the aggregation output.
  OpenPipe out;
  out.source = std::make_unique<AggPartitionSource>(gs);
  out.deps = {phase1};
  out.names = n->names;
  out.types = n->types;
  // Group count guess; hash-partitioned output has no usable order.
  out.est_rows = std::max(1.0, std::sqrt(pipe.est_rows));
  out.sorted_frac.assign(out.names.size(), -1.0);
  // Feedback: phase 1 reports its (actual-data) group estimate.
  out.feeder_job = phase1;
  out.feeder_mult = 1.0;
  return out;
}

void Lowering::LowerOrderBy(const LogicalNode* n, OpenPipe pipe) {
  std::vector<SortKey> sort_keys;
  for (const OrderItem& k : n->order_keys) {
    sort_keys.push_back(SortKey{pipe.Index(k.name), k.ascending});
  }
  SortState* ss = query_->Own<SortState>(pipe.types, std::move(sort_keys),
                                         query_->num_worker_slots(),
                                         n->limit);
  // "in the case of top-k queries, each thread directly maintains a heap
  // of k tuples" — small limits bypass the full sort.
  constexpr int64_t kTopKThreshold = 8192;
  if (n->limit >= 1 && n->limit <= kTopKThreshold) {
    TopKSink* sink = query_->Own<TopKSink>(ss, n->limit);
    ClosePipe(pipe, sink, "topk");
    query_->SetResultProvider([sink] { return sink->ToResult(); });
    return;
  }
  RunMaterializeSink* sink = query_->Own<RunMaterializeSink>(ss->runs());
  int mat = ClosePipe(pipe, sink, "sort-materialize");
  int merge_parts = engine_->num_workers();
  int local = EmitJob(
      std::make_unique<LocalSortRunsJob>(
          query_->context(), "local-sort", ss->runs(),
          engine_->queue_options(),
          [ss, merge_parts] { ss->PlanMerge(merge_parts); }),
      {mat});
  EmitJob(std::make_unique<MergeJob>(query_->context(), "merge", ss,
                                     engine_->queue_options()),
          {local});
  query_->SetResultProvider([ss] { return ss->ToResult(); });
}

void Lowering::LowerCollect(const LogicalNode* n, OpenPipe pipe) {
  (void)n;
  ResultSink* sink =
      query_->Own<ResultSink>(pipe.types, query_->num_worker_slots());
  ClosePipe(pipe, sink, "collect");
  query_->SetResultProvider([sink] { return sink->TakeResult(); });
}

int Lowering::ClosePipe(OpenPipe& pipe, Sink* sink,
                        const std::string& name) {
  MORSEL_CHECK_MSG(pipe.source != nullptr, "pipeline already closed");
  FlushPendingFilter(pipe);
  const EngineOptions& opts = engine_->options();
  if (opts.fused_pipelines && pipe.ops.size() >= 2) {
    // Fuse the whole intra-pipeline operator run (DESIGN §15): the
    // chain executes chunk-resident through one FusedPipelineOp with a
    // single interrupt checkpoint per pass; per-stage row counters are
    // preserved on the fused op. The sink's stage name joins the label
    // so ExplainPlan reads "[fused: filter+probe+agg-phase1]".
    auto fused = std::make_unique<FusedPipelineOp>(std::move(pipe.ops));
    if (!pipe.pending_info.empty()) pipe.pending_info += ' ';
    pipe.pending_info += "[fused: " + fused->label() + "+" + name + "]";
    pipe.ops.clear();
    pipe.ops.push_back(std::move(fused));
  }
  auto pipeline = std::make_unique<Pipeline>(std::move(pipe.source),
                                             std::move(pipe.ops), sink);
  std::string full_name =
      pipe.name_prefix.empty() ? name : pipe.name_prefix + name;
  pipe.name_prefix.clear();
  auto job = std::make_unique<ExecPipelineJob>(
      query_->context(), std::move(full_name), std::move(pipeline),
      engine_->queue_options(), opts.tagging,
      opts.static_division ? engine_->num_workers() : 0,
      opts.batched_probe, opts.selection_vectors);
  int id = EmitJob(std::move(job), std::move(pipe.deps));
  if (!pipe.pending_info.empty()) {
    // Plan-time annotations for this pipeline ("[warm-conjunct-order]",
    // "[fused: ...]"); runtime info appends after these (pipeline.cc).
    query_->job(id)->set_info(std::move(pipe.pending_info));
    pipe.pending_info.clear();
  }
  pipe.deps.clear();
  pipe.ops.clear();
  pipe.scan_source = nullptr;
  pipe.stats_table = nullptr;
  return id;
}

void Lowering::AppendInfo(int job_id, const std::string& info) {
  PipelineJob* job = query_->job(job_id);
  const std::string& prev = job->info();
  job->set_info(prev.empty() ? info : prev + " " + info);
}

int Lowering::EmitJob(std::unique_ptr<PipelineJob> job,
                      std::vector<int> deps) {
  if (splice_gate_ >= 0) {
    // Runtime mode: gate every spliced pipeline on the decision job
    // being finalized, so nothing runs (or resolves) before the splice
    // completes and release happens in dependency order.
    deps.push_back(splice_gate_);
    return query_->SpliceJob(std::move(job), std::move(deps), splice_gate_);
  }
  return query_->AddJob(std::move(job), std::move(deps));
}

}  // namespace morsel
