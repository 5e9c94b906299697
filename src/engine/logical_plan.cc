#include "engine/logical_plan.h"

#include "common/hash.h"
#include "common/macros.h"

namespace morsel {

int IndexOfName(const std::vector<std::string>& names,
                std::string_view name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  MORSEL_CHECK_MSG(false, std::string(name).c_str());
  return -1;
}

int ColScope::Index(std::string_view name) const {
  return IndexOfName(names_, name);
}

namespace {

int CountNodes(const LogicalNode* n) {
  if (n == nullptr) return 0;
  return 1 + CountNodes(n->input.get()) + CountNodes(n->build.get());
}

bool NodeIsStale(const LogicalNode* n) {
  if (n == nullptr) return false;
  if (n->kind == LogicalNode::Kind::kScan &&
      n->table->epoch() != n->table_epoch) {
    return true;
  }
  return NodeIsStale(n->input.get()) || NodeIsStale(n->build.get());
}

// Deep copy with fresh scan statistics. Every leaf is a scan, so no
// subtree can be structurally shared with the original.
std::shared_ptr<const LogicalNode> RefreshNode(const LogicalNode* n) {
  auto out = std::make_shared<LogicalNode>();
  out->kind = n->kind;
  if (n->input != nullptr) out->input = RefreshNode(n->input.get());
  if (n->build != nullptr) out->build = RefreshNode(n->build.get());
  out->names = n->names;
  out->types = n->types;
  out->table = n->table;
  out->column_ids = n->column_ids;
  if (n->kind == LogicalNode::Kind::kScan) {
    out->scan_rows = static_cast<double>(n->table->NumRows());
    for (int col : n->column_ids) {
      out->scan_sorted_frac.push_back(
          n->table->ColumnSortedFraction(col));
    }
    out->table_epoch = n->table->epoch();
  } else {
    out->scan_rows = n->scan_rows;
    out->scan_sorted_frac = n->scan_sorted_frac;
    out->table_epoch = n->table_epoch;
  }
  if (n->predicate != nullptr) out->predicate = n->predicate->Clone();
  // Shared, not copied: the refreshed plan keeps feeding the same
  // learned-order cell, so re-lowered executions still start warm.
  out->learned_conjunct_order = n->learned_conjunct_order;
  for (const ExprPtr& e : n->exprs) out->exprs.push_back(e->Clone());
  out->probe_keys = n->probe_keys;
  out->build_keys = n->build_keys;
  out->build_payload = n->build_payload;
  out->join_kind = n->join_kind;
  out->strategy = n->strategy;
  out->residual = n->residual;
  out->group_keys = n->group_keys;
  for (const AggItem& a : n->aggs) {
    out->aggs.push_back(AggItem{
        a.func, a.input != nullptr ? a.input->Clone() : nullptr,
        a.out_name});
  }
  out->order_keys = n->order_keys;
  out->limit = n->limit;
  return out;
}

// --- PlanFingerprint -------------------------------------------------------

void FpU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
template <typename T>
void FpVal(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
void FpStr(std::string* out, std::string_view s) {
  FpVal(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}
void FpStrs(std::string* out, const std::vector<std::string>& v) {
  FpVal(out, static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) FpStr(out, s);
}

void FingerprintNode(const LogicalNode* n, std::string* out) {
  if (n == nullptr) {
    FpU8(out, 0);
    return;
  }
  FpU8(out, static_cast<uint8_t>(n->kind) + 1);
  FpStrs(out, n->names);
  FpVal(out, static_cast<uint32_t>(n->types.size()));
  for (LogicalType t : n->types) FpU8(out, static_cast<uint8_t>(t));
  switch (n->kind) {
    case LogicalNode::Kind::kScan:
      // Table identity, not contents: two plans over the same Table
      // object dedupe; statistics and epochs stay out so refreshed
      // copies of a plan keep their cache slot.
      FpVal(out, reinterpret_cast<uintptr_t>(n->table));
      FpVal(out, static_cast<uint32_t>(n->column_ids.size()));
      for (int c : n->column_ids) FpVal(out, static_cast<int32_t>(c));
      break;
    case LogicalNode::Kind::kFilter:
      n->predicate->AppendFingerprint(out);
      break;
    case LogicalNode::Kind::kProject:
      FpVal(out, static_cast<uint32_t>(n->exprs.size()));
      for (const ExprPtr& e : n->exprs) e->AppendFingerprint(out);
      break;
    case LogicalNode::Kind::kJoin: {
      FpStrs(out, n->probe_keys);
      FpStrs(out, n->build_keys);
      FpStrs(out, n->build_payload);
      FpU8(out, static_cast<uint8_t>(n->join_kind));
      FpU8(out, n->strategy.has_value()
                    ? static_cast<uint8_t>(*n->strategy) + 1
                    : 0);
      if (n->residual != nullptr) {
        // The factory is opaque; fingerprint the tree it produces
        // against this node's residual scope (probe columns + build
        // payload), mirroring the lowering pass. The contract that it
        // be a pure function of the scope makes this faithful.
        std::vector<std::string> rnames = n->input->names;
        std::vector<LogicalType> rtypes = n->input->types;
        for (const std::string& p : n->build_payload) {
          int bi = IndexOfName(n->build->names, p);
          rnames.push_back(p);
          rtypes.push_back(n->build->types[bi]);
        }
        ExprPtr r = n->residual(ColScope(std::move(rnames),
                                         std::move(rtypes)));
        FpU8(out, 1);
        r->AppendFingerprint(out);
      } else {
        FpU8(out, 0);
      }
      break;
    }
    case LogicalNode::Kind::kGroupBy:
      FpStrs(out, n->group_keys);
      FpVal(out, static_cast<uint32_t>(n->aggs.size()));
      for (const AggItem& a : n->aggs) {
        FpU8(out, static_cast<uint8_t>(a.func));
        FpStr(out, a.out_name);
        if (a.input != nullptr) {
          FpU8(out, 1);
          a.input->AppendFingerprint(out);
        } else {
          FpU8(out, 0);
        }
      }
      break;
    case LogicalNode::Kind::kOrderBy:
      FpVal(out, static_cast<uint32_t>(n->order_keys.size()));
      for (const OrderItem& o : n->order_keys) {
        FpStr(out, o.name);
        FpU8(out, o.ascending ? 1 : 0);
      }
      FpVal(out, static_cast<int64_t>(n->limit));
      break;
    case LogicalNode::Kind::kCollect:
      break;
  }
  FingerprintNode(n->input.get(), out);
  FingerprintNode(n->build.get(), out);
}

}  // namespace

int LogicalPlan::num_nodes() const { return CountNodes(root_.get()); }

uint64_t PlanFingerprint(const LogicalPlan& plan) {
  MORSEL_CHECK(plan.valid());
  std::string bytes;
  bytes.reserve(256);
  FingerprintNode(plan.root(), &bytes);
  return HashBytes(bytes.data(), bytes.size());
}

bool PlanIsStale(const LogicalPlan& plan) {
  return plan.valid() && NodeIsStale(plan.root());
}

LogicalPlan RefreshScanStats(const LogicalPlan& plan) {
  MORSEL_CHECK(plan.valid());
  return LogicalPlan(RefreshNode(plan.root()));
}

PlanBuilder PlanBuilder::Scan(const Table* table,
                              std::vector<std::string> columns) {
  auto node = std::make_shared<LogicalNode>();
  node->kind = LogicalNode::Kind::kScan;
  node->table = table;
  for (const std::string& c : columns) {
    int idx = table->schema().IndexOf(c);
    node->column_ids.push_back(idx);
    node->types.push_back(table->schema().field(idx).type);
    // Storage-side sortedness probe, sampled here (build time) and kept
    // for the plan's lifetime: it is cheap (<= ~8k pair compares per
    // column, cached in the column), and freezing it keeps repeated
    // lowerings of a prepared plan deterministic.
    node->scan_sorted_frac.push_back(table->ColumnSortedFraction(idx));
  }
  node->names = std::move(columns);
  node->scan_rows = static_cast<double>(table->NumRows());
  node->table_epoch = table->epoch();
  return PlanBuilder(std::move(node));
}

LogicalNode* PlanBuilder::Wrap(LogicalNode::Kind kind) {
  MORSEL_CHECK_MSG(node_ != nullptr && !terminal_,
                   "plan already terminated or built");
  auto next = std::make_shared<LogicalNode>();
  next->kind = kind;
  next->input = std::move(node_);
  // Default scope: unchanged (operators that reshape it overwrite).
  next->names = next->input->names;
  next->types = next->input->types;
  node_ = std::move(next);
  return node_.get();
}

PlanBuilder& PlanBuilder::Filter(ExprPtr predicate) {
  LogicalNode* n = Wrap(LogicalNode::Kind::kFilter);
  n->predicate = std::move(predicate);
  n->learned_conjunct_order = std::make_shared<std::atomic<uint64_t>>(0);
  return *this;
}

PlanBuilder& PlanBuilder::Project(std::vector<NamedExpr> exprs) {
  LogicalNode* n = Wrap(LogicalNode::Kind::kProject);
  n->names.clear();
  n->types.clear();
  for (NamedExpr& ne : exprs) {
    n->names.push_back(std::move(ne.name));
    n->types.push_back(ne.expr->type());
    n->exprs.push_back(std::move(ne.expr));
  }
  return *this;
}

PlanBuilder& PlanBuilder::Join(
    PlanBuilder build, std::vector<std::string> probe_keys,
    std::vector<std::string> build_keys,
    std::vector<std::string> build_payload, JoinKind kind,
    std::function<ExprPtr(const ColScope&)> residual,
    std::optional<JoinStrategy> strategy) {
  MORSEL_CHECK(probe_keys.size() == build_keys.size());
  MORSEL_CHECK_MSG(build.node_ != nullptr && !build.terminal_,
                   "join build side already terminated or built");
  // Resolve the names now so a malformed plan fails at build, not at
  // lowering (Index aborts on unknown names), and so the output schema
  // is known.
  ColScope probe_scope = scope();
  ColScope build_scope = build.scope();
  for (const std::string& k : probe_keys) (void)probe_scope.Index(k);
  for (const std::string& k : build_keys) (void)build_scope.Index(k);

  LogicalNode* n = Wrap(LogicalNode::Kind::kJoin);
  n->build = std::move(build.node_);
  if (kind != JoinKind::kSemi && kind != JoinKind::kAnti) {
    for (const std::string& p : build_payload) {
      n->names.push_back(p);
      n->types.push_back(build_scope.Type(p));
    }
  } else {
    for (const std::string& p : build_payload) (void)build_scope.Index(p);
  }
  n->probe_keys = std::move(probe_keys);
  n->build_keys = std::move(build_keys);
  n->build_payload = std::move(build_payload);
  n->join_kind = kind;
  n->strategy = strategy;
  n->residual = std::move(residual);
  return *this;
}

PlanBuilder& PlanBuilder::GroupBy(std::vector<std::string> keys,
                                  std::vector<AggItem> aggs) {
  ColScope in_scope = scope();
  LogicalNode* n = Wrap(LogicalNode::Kind::kGroupBy);
  n->names.clear();
  n->types.clear();
  for (const std::string& k : keys) {
    n->names.push_back(k);
    n->types.push_back(in_scope.Type(k));
  }
  for (const AggItem& a : aggs) {
    LogicalType input_type =
        a.input == nullptr ? LogicalType::kInt32 : a.input->type();
    if (a.input == nullptr) MORSEL_CHECK(a.func == AggFunc::kCount);
    n->names.push_back(a.out_name);
    n->types.push_back(AggStateType(a.func, input_type));
  }
  n->group_keys = std::move(keys);
  n->aggs = std::move(aggs);
  return *this;
}

void PlanBuilder::OrderBy(std::vector<OrderItem> keys, int64_t limit) {
  ColScope in_scope = scope();
  for (const OrderItem& k : keys) (void)in_scope.Index(k.name);
  LogicalNode* n = Wrap(LogicalNode::Kind::kOrderBy);
  n->order_keys = std::move(keys);
  n->limit = limit;
  terminal_ = true;
}

void PlanBuilder::CollectResult() {
  Wrap(LogicalNode::Kind::kCollect);
  terminal_ = true;
}

LogicalPlan PlanBuilder::Build() {
  MORSEL_CHECK_MSG(node_ != nullptr, "plan already built");
  MORSEL_CHECK_MSG(terminal_,
                   "plan has no terminal (OrderBy/CollectResult)");
  return LogicalPlan(std::move(node_));
}

}  // namespace morsel
