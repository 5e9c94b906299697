#ifndef MORSELDB_ENGINE_LOGICAL_PLAN_H_
#define MORSELDB_ENGINE_LOGICAL_PLAN_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exec/aggregation.h"
#include "exec/expression.h"
#include "exec/hash_join.h"
#include "storage/table.h"

namespace morsel {

// Position of `name` in `names`; aborts on an unknown name (malformed
// plan — a query-author bug). Shared by every scope-like name lookup.
int IndexOfName(const std::vector<std::string>& names,
                std::string_view name);

// Equi-join algorithm choice, applied by the physical lowering pass
// either from the engine-wide EngineOptions::join_strategy knob or from
// a per-join override (hash join per §4.1 vs the MPSM-style sort-merge
// join of Albutiu et al., both scheduled morsel-wise). kAdaptive
// resolves per join from input cardinalities and the sampled sortedness
// of the leading key column on each side — at lowering time when both
// inputs are scan-rooted, or (runtime feedback, DESIGN §9) at the
// pipeline boundary once the actual row counts of the inputs' completed
// breaker stages are known.
enum class JoinStrategy {
  kHash,
  kMerge,
  kAdaptive,
};

// Resolves column names to expressions in a given column scope (used
// for residual join predicates whose scope is probe + build columns).
class ColScope {
 public:
  ColScope(std::vector<std::string> names, std::vector<LogicalType> types)
      : names_(std::move(names)), types_(std::move(types)) {}

  int Index(std::string_view name) const;
  LogicalType Type(std::string_view name) const {
    return types_[Index(name)];
  }
  ExprPtr Col(std::string_view name) const {
    int i = Index(name);
    return ColRef(i, types_[i]);
  }
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<LogicalType>& types() const { return types_; }

 private:
  std::vector<std::string> names_;
  std::vector<LogicalType> types_;
};

// A named output expression for projections.
struct NamedExpr {
  std::string name;
  ExprPtr expr;
};

// Shorthand constructor (NamedExpr is move-only, so projection lists are
// written Project(NE("a", ...), NE("b", ...)) rather than with braces).
inline NamedExpr NE(std::string name, ExprPtr expr) {
  return NamedExpr{std::move(name), std::move(expr)};
}

// One aggregate in a GROUP BY.
struct AggItem {
  AggFunc func;
  ExprPtr input;  // nullptr for COUNT(*)
  std::string out_name;
};

// One ORDER BY key by column name.
struct OrderItem {
  std::string name;
  bool ascending = true;
};

// One node of an immutable logical plan tree. Nodes are built by
// PlanBuilder, shared via shared_ptr (a LogicalPlan copy is two pointer
// copies), and never mutated after Build(): the physical lowering pass
// clones the stored expression trees per lowering, so one plan can be
// lowered into any number of concurrent Query executions.
//
// The residual join predicate is kept as the user's factory callback
// and re-invoked per lowering; it must be a pure function of its
// ColScope argument.
struct LogicalNode {
  enum class Kind {
    kScan,
    kFilter,
    kProject,
    kJoin,
    kGroupBy,
    kOrderBy,  // terminal
    kCollect,  // terminal
  };

  Kind kind;

  // Children: every node except kScan has `input`; kJoin also has
  // `build` (the build-side subtree).
  std::shared_ptr<const LogicalNode> input;
  std::shared_ptr<const LogicalNode> build;

  // Output schema (the scope visible to the parent node).
  std::vector<std::string> names;
  std::vector<LogicalType> types;

  // kScan. Plan-time statistics are sampled once, when the builder
  // creates the node (storage-side cached sortedness probe); a prepared
  // plan keeps using them across executions. `table_epoch` records the
  // table's data version at sampling time so PreparedQuery can detect
  // plans whose snapshot predates a bulk load (PlanIsStale below).
  const Table* table = nullptr;
  std::vector<int> column_ids;
  double scan_rows = 0.0;
  std::vector<double> scan_sorted_frac;
  uint64_t table_epoch = 0;

  // kFilter
  ExprPtr predicate;
  // Learned conjunct execution order (DESIGN §15): the lowered
  // FilterOp publishes its adaptive cost-per-dropped-row ranking here
  // (packed byte-per-rank word; 0 = not yet learned — never a valid
  // permutation for the >= 2 conjuncts adaptivity needs), so a
  // PreparedQuery's next execution of the same plan node starts from
  // the learned order instead of re-learning. The one deliberately
  // mutable cell of the otherwise immutable tree: a monotonic
  // performance hint, never semantics. Shared (not re-created) by
  // RefreshScanStats copies; excluded from PlanFingerprint.
  std::shared_ptr<std::atomic<uint64_t>> learned_conjunct_order;

  // kProject (expression i produces column names[i])
  std::vector<ExprPtr> exprs;

  // kJoin
  std::vector<std::string> probe_keys;
  std::vector<std::string> build_keys;
  std::vector<std::string> build_payload;
  JoinKind join_kind = JoinKind::kInner;
  // nullopt = the engine knob decides at lowering time.
  std::optional<JoinStrategy> strategy;
  std::function<ExprPtr(const ColScope&)> residual;

  // kGroupBy
  std::vector<std::string> group_keys;
  std::vector<AggItem> aggs;

  // kOrderBy
  std::vector<OrderItem> order_keys;
  int64_t limit = -1;

  ColScope scope() const { return ColScope(names, types); }
};

// An immutable, engine-independent, reusable query plan. Cheap to copy
// (shared tree). Obtained from PlanBuilder::Build(); consumed by
// Query::SetPlan / Engine::CreateQuery(plan) / Engine::Prepare.
class LogicalPlan {
 public:
  LogicalPlan() = default;

  bool valid() const { return root_ != nullptr; }
  const LogicalNode* root() const { return root_.get(); }
  const std::shared_ptr<const LogicalNode>& root_ptr() const {
    return root_;
  }

  // Output schema of the plan's terminal.
  const std::vector<std::string>& output_names() const {
    return root_->names;
  }
  const std::vector<LogicalType>& output_types() const {
    return root_->types;
  }

  // Total node count (spine + build subtrees); sizes the QEP's splice
  // reservation for staged lowering.
  int num_nodes() const;

 private:
  friend class PlanBuilder;
  friend LogicalPlan RefreshScanStats(const LogicalPlan& plan);
  explicit LogicalPlan(std::shared_ptr<const LogicalNode> root)
      : root_(std::move(root)) {}

  std::shared_ptr<const LogicalNode> root_;
};

// True when any scan node's build-time epoch snapshot differs from the
// live Table::epoch() — i.e. a SealPartition has happened since the
// plan (and its frozen scan statistics) was built.
bool PlanIsStale(const LogicalPlan& plan);

// A structurally identical plan whose scan nodes carry freshly sampled
// statistics (row counts, sortedness, epochs). Deep-copies the node
// tree and clones every expression; the result is as shareable and
// immutable as a freshly built plan.
LogicalPlan RefreshScanStats(const LogicalPlan& plan);

// Structural 64-bit fingerprint: two plans fingerprint equally iff
// their node trees match — same shapes, same tables (by identity), same
// column lists, same expressions including literals, same join/group/
// order configuration. Scan *statistics* (row counts, sortedness,
// epoch snapshots) are deliberately excluded, so a RefreshScanStats
// copy keeps its fingerprint. Residual join predicates are fingerprinted
// by invoking the factory against the node's residual scope (it must be
// pure, which the LogicalNode contract already requires). This is the
// key of the server's prepared-statement cache (src/server/stmt_cache.h);
// process-local only — never persist it.
uint64_t PlanFingerprint(const LogicalPlan& plan);

// Fluent construction of a LogicalPlan. A PlanBuilder represents the
// open tail of a plan under construction: purely a logical-tree cursor —
// no pipelines, jobs or operator state exist until the plan is lowered
// against an Engine (engine/lowering.h). Where the engine used to hand
// out builders (q->Scan(...)), plans now start from the static Scan and
// are handed to the engine whole:
//
//   PlanBuilder pb = PlanBuilder::Scan(&lineitem, {"l_shipdate", ...});
//   pb.Filter(...).GroupBy(...);
//   pb.CollectResult();                  // or pb.OrderBy(...)
//   LogicalPlan plan = pb.Build();
//   ResultSet r = engine.CreateQuery(plan)->Execute();   // or
//   PreparedQuery pq = engine.Prepare(plan);             // many Executes
class PlanBuilder {
 public:
  // Root of a plan: a NUMA-local partitioned table scan projecting
  // `columns`. Samples the storage-side statistics (row count, cached
  // per-column sortedness probe) that lowering-time strategy choices
  // start from.
  static PlanBuilder Scan(const Table* table,
                          std::vector<std::string> columns);

  PlanBuilder(PlanBuilder&&) = default;
  PlanBuilder& operator=(PlanBuilder&&) = default;

  // --- column scope --------------------------------------------------------
  ExprPtr Col(std::string_view name) const { return scope().Col(name); }
  LogicalType ColType(std::string_view name) const {
    return scope().Type(name);
  }
  ColScope scope() const { return node_->scope(); }

  // --- intra-pipeline operators --------------------------------------------
  PlanBuilder& Filter(ExprPtr predicate);
  PlanBuilder& Project(std::vector<NamedExpr> exprs);
  template <typename... Rest>
  PlanBuilder& Project(NamedExpr first, Rest... rest) {
    std::vector<NamedExpr> v;
    v.reserve(1 + sizeof...(rest));
    v.push_back(std::move(first));
    (v.push_back(std::move(rest)), ...);
    return Project(std::move(v));
  }

  // Joins `build` as the build side; *this continues as the probe side.
  // Output columns are this side's columns followed by `build_payload`
  // (renamed as-is) — except for semi/anti joins, whose output is the
  // probe columns only. `residual`, if given, is re-invoked per lowering
  // against the combined scope (probe columns + build payload) and must
  // be pure. Whether the join runs hashed or merge-sorted is decided at
  // lowering time (or, for kAdaptive under runtime feedback, at the
  // pipeline boundary): HashJoin/MergeJoin force a strategy, Join takes
  // an optional per-join override and otherwise defers to the engine
  // knob. Kinds the merge join does not support always run hashed.
  PlanBuilder& Join(
      PlanBuilder build, std::vector<std::string> probe_keys,
      std::vector<std::string> build_keys,
      std::vector<std::string> build_payload, JoinKind kind,
      std::function<ExprPtr(const ColScope&)> residual = nullptr,
      std::optional<JoinStrategy> strategy = std::nullopt);
  PlanBuilder& HashJoin(
      PlanBuilder build, std::vector<std::string> probe_keys,
      std::vector<std::string> build_keys,
      std::vector<std::string> build_payload, JoinKind kind,
      std::function<ExprPtr(const ColScope&)> residual = nullptr) {
    return Join(std::move(build), std::move(probe_keys),
                std::move(build_keys), std::move(build_payload), kind,
                std::move(residual), JoinStrategy::kHash);
  }
  PlanBuilder& MergeJoin(
      PlanBuilder build, std::vector<std::string> probe_keys,
      std::vector<std::string> build_keys,
      std::vector<std::string> build_payload, JoinKind kind,
      std::function<ExprPtr(const ColScope&)> residual = nullptr) {
    return Join(std::move(build), std::move(probe_keys),
                std::move(build_keys), std::move(build_payload), kind,
                std::move(residual), JoinStrategy::kMerge);
  }

  // GROUP BY: the builder continues from the aggregation output with
  // columns [keys..., agg outputs...].
  PlanBuilder& GroupBy(std::vector<std::string> keys,
                       std::vector<AggItem> aggs);

  // --- terminals -----------------------------------------------------------
  // ORDER BY [LIMIT] (parallel sort / top-k heap at execution time).
  void OrderBy(std::vector<OrderItem> keys, int64_t limit = -1);
  // Unordered terminal: collects all rows.
  void CollectResult();

  // Freezes the plan. Requires a terminal (OrderBy/CollectResult); the
  // builder is spent afterwards.
  LogicalPlan Build();

 private:
  explicit PlanBuilder(std::shared_ptr<LogicalNode> node)
      : node_(std::move(node)) {}

  // Wraps the current tree in a fresh node of `kind` (current tree
  // becomes `input`) and returns the new mutable node.
  LogicalNode* Wrap(LogicalNode::Kind kind);

  std::shared_ptr<LogicalNode> node_;
  bool terminal_ = false;
};

}  // namespace morsel

#endif  // MORSELDB_ENGINE_LOGICAL_PLAN_H_
