// Differential tests of the typed column-at-a-time kernels (DESIGN.md
// §16) against scalar row-at-a-time references kept here: key hashing,
// comparison and arithmetic, compiled LIKE, column-wise phase-1
// aggregation (including a table spill in the middle of a chunk), and
// the chunk-scoped arena (rewind, and ASan poisoning of rewound bytes).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/worker_context.h"
#include "exec/aggregation.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "exec/scan.h"
#include "numa/mem_stats.h"
#include "storage/table.h"

namespace morsel {
namespace {

constexpr int kRows = 64;

// A worker-bound ExecContext for driving kernels and sinks directly.
class KernelTest : public ::testing::Test {
 protected:
  KernelTest() {
    wctx_.topo = &topo_;
    wctx_.traffic = stats_.worker(0);
    ctx_.worker = &wctx_;
  }

  Topology topo_{1, 1, InterconnectKind::kFullyConnected};
  MemStatsRegistry stats_{1};
  WorkerContext wctx_;
  ExecContext ctx_;
};

// Every third row plus the last: a strictly ascending selection.
std::vector<int32_t> SomeRows(int n) {
  std::vector<int32_t> sel;
  for (int i = 0; i < n; i += 3) sel.push_back(i);
  if (sel.back() != n - 1) sel.push_back(n - 1);
  return sel;
}

// ---------------------------------------------------------------- hashing

// The row-at-a-time key hash the kernels replaced.
uint64_t RefHashRow(const Chunk& c, const std::vector<int>& key_cols,
                    int i) {
  uint64_t h = 0;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    const Vector& v = c.cols[key_cols[k]];
    uint64_t hk = 0;
    switch (v.type) {
      case LogicalType::kInt32:
        hk = Hash64(static_cast<uint64_t>(v.i32()[i]));
        break;
      case LogicalType::kInt64:
        hk = Hash64(static_cast<uint64_t>(v.i64()[i]));
        break;
      case LogicalType::kDouble:
        hk = Hash64(std::bit_cast<uint64_t>(v.f64()[i]));
        break;
      case LogicalType::kString:
        hk = HashString(v.str()[i]);
        break;
    }
    h = k == 0 ? hk : HashCombine(h, hk);
  }
  return h;
}

TEST(KernelHash, HashBytesIsStable) {
  // Values of the former out-of-line HashBytes: hashes feed partition
  // and slot choice, so they must not move.
  const std::pair<const char*, uint64_t> golden[] = {
      {"", 0xefd01f60ba992926ULL},
      {"a", 0x82a2a958a9bece5bULL},
      {"hello", 0x09602d080f4fb275ULL},
      {"12345678", 0x0decfc65dfd205c3ULL},
      {"123456789", 0x9524aa9e1feff07dULL},
      {"PROMO BRUSHED COPPER", 0x979f585b7ae051a1ULL},
      {"Customer#000000001", 0xb06bc7bdebb3d607ULL},
  };
  for (const auto& [s, h] : golden) EXPECT_EQ(HashString(s), h) << s;
}

TEST_F(KernelTest, HashRowsMatchRowAtATimeReference) {
  Rng rng(11);
  int32_t i32[kRows];
  int64_t i64[kRows];
  double f64[kRows];
  std::vector<std::string> backing(kRows);
  std::string_view str[kRows];
  const double specials[] = {0.0, -0.0, 1.5, -2.25,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()};
  for (int i = 0; i < kRows; ++i) {
    i32[i] = static_cast<int32_t>(rng.Uniform(-50, 50));
    i64[i] = rng.Uniform(-1000000, 1000000) * 1000003;
    f64[i] = i < 6 ? specials[i] : static_cast<double>(i) / 7.0;
    backing[i] = std::string(static_cast<size_t>(i % 19), 'a' + i % 5);
    str[i] = backing[i];
  }
  Chunk c;
  c.n = kRows;
  c.cols = {Vector{LogicalType::kInt32, i32}, Vector{LogicalType::kInt64, i64},
            Vector{LogicalType::kDouble, f64},
            Vector{LogicalType::kString, str}};
  const std::vector<std::vector<int>> keys = {
      {0}, {1}, {2}, {3}, {0, 1}, {3, 0}, {2, 3, 1}, {0, 1, 2, 3}, {1, 1}};
  const std::vector<int32_t> sel = SomeRows(kRows);
  for (const std::vector<int>& key : keys) {
    SCOPED_TRACE(::testing::PrintToString(key));
    // Dense: both forms are physically indexed.
    c.sel = nullptr;
    c.sel_n = 0;
    const uint64_t* h = HashRows(c, key, ctx_);
    const uint64_t* hp = HashRowsPacked(c, key, ctx_);
    for (int i = 0; i < kRows; ++i) {
      EXPECT_EQ(h[i], RefHashRow(c, key, i));
      EXPECT_EQ(hp[i], RefHashRow(c, key, i));
    }
    // Selected: HashRows at physical rows, HashRowsPacked at ranks.
    c.sel = sel.data();
    c.sel_n = static_cast<int>(sel.size());
    h = HashRows(c, key, ctx_);
    hp = HashRowsPacked(c, key, ctx_);
    for (int k = 0; k < c.sel_n; ++k) {
      EXPECT_EQ(h[sel[k]], RefHashRow(c, key, sel[k]));
      EXPECT_EQ(hp[k], RefHashRow(c, key, sel[k]));
    }
  }
}

TEST_F(KernelTest, ZeroKeyColumnsHashToZero) {
  // Scalar aggregation groups every row under hash 0; the arena is
  // filled with garbage first so an unwritten slot would show.
  uint8_t* junk = static_cast<uint8_t*>(ctx_.arena.Alloc(1 << 16));
  std::memset(junk, 0xab, 1 << 16);
  ctx_.arena.Reset();
  static const int64_t v[kRows] = {};
  Chunk c;
  c.n = kRows;
  c.cols = {Vector{LogicalType::kInt64, v}};
  const uint64_t* h = HashRows(c, {}, ctx_);
  for (int i = 0; i < kRows; ++i) EXPECT_EQ(h[i], 0u);
  const std::vector<int32_t> sel = SomeRows(kRows);
  c.sel = sel.data();
  c.sel_n = static_cast<int>(sel.size());
  h = HashRows(c, {}, ctx_);
  const uint64_t* hp = HashRowsPacked(c, {}, ctx_);
  for (int k = 0; k < c.sel_n; ++k) {
    EXPECT_EQ(h[sel[k]], 0u);
    EXPECT_EQ(hp[k], 0u);
  }
}

// ------------------------------------------------ comparison / arithmetic

// One operand of a binary node in the differential sweep: a column of
// the test chunk, or a literal of some type.
struct Operand {
  const char* name;
  LogicalType type;
  int col;  // -1: literal
  int64_t iv;
  double dv;
};

ExprPtr Make(const Operand& o) {
  if (o.col >= 0) return ColRef(o.col, o.type);
  switch (o.type) {
    case LogicalType::kInt32:
      return ConstI32(static_cast<int32_t>(o.iv));
    case LogicalType::kInt64:
      return ConstI64(o.iv);
    default:
      return ConstF64(o.dv);
  }
}

// The row-at-a-time operand reads the kernels replaced.
double RefF64(const Operand& o, const Chunk& c, int i) {
  if (o.col < 0) return o.type == LogicalType::kDouble ? o.dv : o.iv;
  const Vector& v = c.cols[o.col];
  switch (v.type) {
    case LogicalType::kInt32:
      return v.i32()[i];
    case LogicalType::kInt64:
      return static_cast<double>(v.i64()[i]);
    default:
      return v.f64()[i];
  }
}

int64_t RefI64(const Operand& o, const Chunk& c, int i) {
  if (o.col < 0) return o.iv;
  const Vector& v = c.cols[o.col];
  return v.type == LogicalType::kInt32 ? v.i32()[i] : v.i64()[i];
}

int32_t RefTest(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return 0;
}

class NumericKernelTest : public KernelTest {
 protected:
  NumericKernelTest() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    // Row r pairs column values so that equal, less, greater, zero
    // divisors, NaN and signed zeros all occur on both sides.
    const int32_t a32[] = {0, 1, -1, 7, -7, 3, 0, 12, -5, 2, 9, 0};
    const int64_t a64[] = {0, 1, 7, -7, 3, 0, -3, 12, 100, -100, 9, 0};
    const double af[] = {0.0, -0.0, nan, 1.0, -1.0, inf,
                         -inf, 3.0, 7.0, 0.5, nan, 12.0};
    const int32_t b32[] = {0, 3, 1, -1, 7, 0, 2, 12, 5, -2, 0, 4};
    const int64_t b64[] = {0, 0, 7, 7, -3, 3, 0, 12, -100, 100, 9, -1};
    const double bf[] = {-0.0, 0.0, 1.0, nan, -1.0, inf,
                         0.0, 3.0, -7.0, 0.25, nan, 12.0};
    for (int i = 0; i < kRows; ++i) {
      const int j = i % 12;
      c32_[0][i] = a32[j];
      c32_[1][i] = b32[(i + i / 12) % 12];
      c64_[0][i] = a64[j];
      c64_[1][i] = b64[(i + i / 12) % 12];
      cf_[0][i] = af[j];
      cf_[1][i] = bf[(i + i / 12) % 12];
    }
    chunk_.n = kRows;
    chunk_.cols = {Vector{LogicalType::kInt32, c32_[0]},
                   Vector{LogicalType::kInt64, c64_[0]},
                   Vector{LogicalType::kDouble, cf_[0]},
                   Vector{LogicalType::kInt32, c32_[1]},
                   Vector{LogicalType::kInt64, c64_[1]},
                   Vector{LogicalType::kDouble, cf_[1]}};
  }

  static std::vector<Operand> Lefts() {
    return {{"i32", LogicalType::kInt32, 0, 0, 0},
            {"i64", LogicalType::kInt64, 1, 0, 0},
            {"f64", LogicalType::kDouble, 2, 0, 0},
            {"lit_i32", LogicalType::kInt32, -1, 3, 3},
            {"lit_i64", LogicalType::kInt64, -1, -7, -7},
            {"lit_zero", LogicalType::kInt64, -1, 0, 0},
            {"lit_f64", LogicalType::kDouble, -1, 0, 1.0},
            {"lit_negzero", LogicalType::kDouble, -1, 0, -0.0},
            {"lit_nan", LogicalType::kDouble, -1, 0,
             std::numeric_limits<double>::quiet_NaN()}};
  }
  static std::vector<Operand> Rights() {
    std::vector<Operand> r = Lefts();
    r[0].col = 3;
    r[1].col = 4;
    r[2].col = 5;
    return r;
  }

  int32_t c32_[2][kRows];
  int64_t c64_[2][kRows];
  double cf_[2][kRows];
  Chunk chunk_;
};

TEST_F(NumericKernelTest, CmpMatchesThreeWayReference) {
  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                       CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  const std::vector<int32_t> sel = SomeRows(kRows);
  int checked = 0;
  for (const Operand& l : Lefts()) {
    for (const Operand& r : Rights()) {
      const bool dbl = l.type == LogicalType::kDouble ||
                       r.type == LogicalType::kDouble;
      for (CmpOp op : ops) {
        ExprPtr e = Cmp(op, Make(l), Make(r));
        for (bool selected : {false, true}) {
          SCOPED_TRACE(std::string(l.name) + " op" +
                       std::to_string(static_cast<int>(op)) + " " + r.name +
                       (selected ? " selected" : " dense"));
          Chunk c = chunk_;
          if (selected) {
            c.sel = sel.data();
            c.sel_n = static_cast<int>(sel.size());
          }
          Vector out;
          e->Eval(c, ctx_, &out);
          for (int k = 0; k < c.ActiveRows(); ++k) {
            const int i = c.RowAt(k);
            int three_way;
            if (dbl) {
              const double a = RefF64(l, c, i), b = RefF64(r, c, i);
              three_way = a < b ? -1 : (a > b ? 1 : 0);
            } else {
              const int64_t a = RefI64(l, c, i), b = RefI64(r, c, i);
              three_way = a < b ? -1 : (a > b ? 1 : 0);
            }
            ASSERT_EQ(out.i32()[i], RefTest(op, three_way)) << "row " << i;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

TEST_F(NumericKernelTest, ArithMatchesRowAtATimeReference) {
  const ArithOp ops[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                         ArithOp::kDiv};
  const std::vector<int32_t> sel = SomeRows(kRows);
  int checked = 0;
  for (const Operand& l : Lefts()) {
    for (const Operand& r : Rights()) {
      const bool dbl = l.type == LogicalType::kDouble ||
                       r.type == LogicalType::kDouble;
      for (ArithOp op : ops) {
        ExprPtr e = Arith(op, Make(l), Make(r));
        ASSERT_EQ(e->type(),
                  dbl ? LogicalType::kDouble : LogicalType::kInt64);
        for (bool selected : {false, true}) {
          SCOPED_TRACE(std::string(l.name) + " op" +
                       std::to_string(static_cast<int>(op)) + " " + r.name +
                       (selected ? " selected" : " dense"));
          Chunk c = chunk_;
          if (selected) {
            c.sel = sel.data();
            c.sel_n = static_cast<int>(sel.size());
          }
          Vector out;
          e->Eval(c, ctx_, &out);
          for (int k = 0; k < c.ActiveRows(); ++k) {
            const int i = c.RowAt(k);
            if (dbl) {
              const double a = RefF64(l, c, i), b = RefF64(r, c, i);
              double want = 0;
              switch (op) {
                case ArithOp::kAdd:
                  want = a + b;
                  break;
                case ArithOp::kSub:
                  want = a - b;
                  break;
                case ArithOp::kMul:
                  want = a * b;
                  break;
                case ArithOp::kDiv:
                  want = a / b;
                  break;
              }
              const double got = out.f64()[i];
              if (std::isnan(want)) {
                ASSERT_TRUE(std::isnan(got)) << "row " << i;
              } else {
                // Bitwise: -0.0 and +0.0 must not be confused.
                ASSERT_EQ(std::bit_cast<uint64_t>(got),
                          std::bit_cast<uint64_t>(want))
                    << "row " << i << ": " << got << " vs " << want;
              }
            } else {
              const int64_t a = RefI64(l, c, i), b = RefI64(r, c, i);
              int64_t want = 0;
              switch (op) {
                case ArithOp::kAdd:
                  want = a + b;
                  break;
                case ArithOp::kSub:
                  want = a - b;
                  break;
                case ArithOp::kMul:
                  want = a * b;
                  break;
                case ArithOp::kDiv:
                  want = b == 0 ? 0 : a / b;
                  break;
              }
              ASSERT_EQ(out.i64()[i], want) << "row " << i;
            }
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

TEST_F(NumericKernelTest, FoldedLiteralOperandIsUsed) {
  // A literal produced by constant folding (not written as one) must be
  // picked up as a literal operand: x < 1 + 2.
  ExprPtr e = FoldConstants(
      Lt(ColRef(1, LogicalType::kInt64), Add(ConstI32(1), ConstI64(2))));
  Vector out;
  e->Eval(chunk_, ctx_, &out);
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(out.i32()[i], c64_[0][i] < 3 ? 1 : 0);
  }
}

TEST_F(KernelTest, StringCmpMatchesReference) {
  const std::string vals[] = {"",   "a",  "ab", "abc", "abd", "b",
                              "ba", "aa", "ab", "",    "zz", "abc"};
  std::string_view left[kRows], right[kRows];
  for (int i = 0; i < kRows; ++i) {
    left[i] = vals[i % 12];
    right[i] = vals[(i * 5 + i / 12) % 12];
  }
  Chunk base;
  base.n = kRows;
  base.cols = {Vector{LogicalType::kString, left},
               Vector{LogicalType::kString, right}};
  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                       CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  const std::vector<int32_t> sel = SomeRows(kRows);
  // Operand shapes: column, or one of a few literals.
  const std::vector<std::string> lits = {"", "ab", "abc", "b"};
  for (CmpOp op : ops) {
    for (int lshape = -1; lshape < static_cast<int>(lits.size()); ++lshape) {
      for (int rshape = -1; rshape < static_cast<int>(lits.size());
           ++rshape) {
        ExprPtr l = lshape < 0 ? ColRef(0, LogicalType::kString)
                               : ConstStr(lits[lshape]);
        ExprPtr r = rshape < 0 ? ColRef(1, LogicalType::kString)
                               : ConstStr(lits[rshape]);
        ExprPtr e = Cmp(op, std::move(l), std::move(r));
        for (bool selected : {false, true}) {
          Chunk c = base;
          if (selected) {
            c.sel = sel.data();
            c.sel_n = static_cast<int>(sel.size());
          }
          Vector out;
          e->Eval(c, ctx_, &out);
          for (int k = 0; k < c.ActiveRows(); ++k) {
            const int i = c.RowAt(k);
            const std::string_view a =
                lshape < 0 ? left[i] : std::string_view(lits[lshape]);
            const std::string_view b =
                rshape < 0 ? right[i] : std::string_view(lits[rshape]);
            const int cmp = a.compare(b);
            ASSERT_EQ(out.i32()[i], RefTest(op, cmp < 0 ? -1 : cmp > 0))
                << "'" << a << "' op" << static_cast<int>(op) << " '" << b
                << "'";
          }
        }
      }
    }
  }
}

TEST_F(KernelTest, AndOrMatchScalarReference) {
  Rng rng(41);
  int32_t f[3][kRows];
  for (auto& col : f) {
    for (int32_t& v : col) v = static_cast<int32_t>(rng.Uniform(0, 1));
  }
  Chunk base;
  base.n = kRows;
  base.cols = {Vector{LogicalType::kInt32, f[0]},
               Vector{LogicalType::kInt32, f[1]},
               Vector{LogicalType::kInt32, f[2]}};
  auto col = [](int c) {
    return Ne(ColRef(c, LogicalType::kInt32), ConstI32(0));
  };
  const std::vector<int32_t> sel = SomeRows(kRows);
  for (int shape = 0; shape < 4; ++shape) {
    ExprPtr e;
    switch (shape) {
      case 0:
        e = And(col(0), col(1), col(2));
        break;
      case 1:
        e = Or(col(0), col(1), col(2));
        break;
      case 2:
        e = Or(And(col(0), col(1)), col(2));
        break;
      default:
        e = And(Or(col(0), Not(col(1))), col(2));
        break;
    }
    for (bool selected : {false, true}) {
      Chunk c = base;
      if (selected) {
        c.sel = sel.data();
        c.sel_n = static_cast<int>(sel.size());
      }
      Vector out;
      e->Eval(c, ctx_, &out);
      for (int k = 0; k < c.ActiveRows(); ++k) {
        const int i = c.RowAt(k);
        const bool a = f[0][i] != 0, b = f[1][i] != 0, d = f[2][i] != 0;
        const bool want = shape == 0   ? a && b && d
                          : shape == 1 ? a || b || d
                          : shape == 2 ? (a && b) || d
                                       : (a || !b) && d;
        ASSERT_EQ(out.i32()[i], want ? 1 : 0)
            << "shape " << shape << " row " << i;
      }
    }
  }
}

// ----------------------------------------------------------------- LIKE

TEST_F(KernelTest, CompiledLikeMatchesLikeMatch) {
  Rng rng(29);
  const char alphabet[] = {'a', 'b', 'c'};
  auto random_string = [&](int max_len) {
    std::string s(static_cast<size_t>(rng.Uniform(0, max_len)), 'a');
    for (char& ch : s) ch = alphabet[rng.Uniform(0, 2)];
    return s;
  };
  std::vector<std::string> values(kChunkCapacity);
  std::vector<std::string_view> views(kChunkCapacity);
  for (int i = 0; i < kChunkCapacity; ++i) {
    values[i] = random_string(9);
    views[i] = values[i];
  }
  Chunk c;
  c.n = kChunkCapacity;
  c.cols = {Vector{LogicalType::kString, views.data()}};
  int matches = 0;
  for (int p = 0; p < 400; ++p) {
    // '%'-only patterns (compiled); every 8th also gets a '_' so the
    // LikeMatch fallback stays covered by the same sweep.
    std::string pattern;
    const int parts = static_cast<int>(rng.Uniform(0, 4));
    if (rng.Uniform(0, 1) == 1) pattern += '%';
    for (int k = 0; k < parts; ++k) {
      pattern += random_string(3);
      if (k + 1 < parts || rng.Uniform(0, 1) == 1) pattern += '%';
    }
    if (p % 8 == 7) pattern.insert(pattern.size() / 2, "_");
    for (bool negate : {false, true}) {
      ExprPtr e = negate ? NotLike(ColRef(0, LogicalType::kString), pattern)
                         : Like(ColRef(0, LogicalType::kString), pattern);
      Vector out;
      e->Eval(c, ctx_, &out);
      for (int i = 0; i < c.n; ++i) {
        const bool want = LikeMatch(views[i], pattern) != negate;
        ASSERT_EQ(out.i32()[i] != 0, want)
            << "'" << views[i] << "' LIKE '" << pattern << "'";
        matches += !negate && want;
      }
    }
  }
  EXPECT_GT(matches, 1000);  // the sweep is not all misses
}

// ------------------------------------------------- phase-1 aggregation

TEST_F(KernelTest, UpdateColumnarFoldsInInputOrder) {
  // Non-dyadic doubles: a sum is bit-identical only in the same fold
  // order, so this pins "per group, input order" against a
  // row-at-a-time fold.
  const std::vector<AggSpec> specs = {
      {AggFunc::kCount, -1, LogicalType::kInt64},
      {AggFunc::kSum, 0, LogicalType::kDouble},
      {AggFunc::kMin, 0, LogicalType::kDouble},
      {AggFunc::kMax, 1, LogicalType::kInt32},
      {AggFunc::kSum, 2, LogicalType::kInt64}};
  GroupByState state({}, specs, /*num_worker_slots=*/1);
  const TupleLayout& layout = state.layout();
  Rng rng(3);
  double d[kRows];
  int32_t i32[kRows];
  int64_t i64[kRows];
  for (int i = 0; i < kRows; ++i) {
    d[i] = static_cast<double>(rng.Uniform(-1000000, 1000000)) / 997.0;
    i32[i] = static_cast<int32_t>(rng.Uniform(-1000, 1000));
    i64[i] = rng.Uniform(-1000000, 1000000);
  }
  Chunk in;
  in.n = kRows;
  in.cols = {Vector{LogicalType::kDouble, d}, Vector{LogicalType::kInt32, i32},
             Vector{LogicalType::kInt64, i64}};
  constexpr int kGroups = 5;
  std::vector<std::vector<uint8_t>> got(kGroups), want(kGroups);
  for (int g = 0; g < kGroups; ++g) {
    got[g].assign(static_cast<size_t>(layout.row_size()), 0);
    state.InitStates(got[g].data(), in, g);
    want[g] = got[g];
  }
  // Pairs hit groups repeatedly and out of order.
  std::vector<uint8_t*> rows;
  std::vector<int32_t> inputs;
  for (int i = kGroups; i < kRows; ++i) {
    const int g = static_cast<int>(rng.Uniform(0, kGroups - 1));
    rows.push_back(got[g].data());
    inputs.push_back(i);
    uint8_t* w = want[g].data();
    layout.SetI64(w, 0, layout.GetI64(w, 0) + 1);
    layout.SetF64(w, 1, layout.GetF64(w, 1) + d[i]);
    layout.SetF64(w, 2, std::min(layout.GetF64(w, 2), d[i]));
    layout.SetI64(w, 3, std::max<int64_t>(layout.GetI64(w, 3), i32[i]));
    layout.SetI64(w, 4, layout.GetI64(w, 4) + i64[i]);
  }
  state.UpdateColumnar(rows.data(), inputs.data(),
                       static_cast<int>(rows.size()), in);
  for (int g = 0; g < kGroups; ++g) {
    EXPECT_EQ(std::memcmp(got[g].data() + 16, want[g].data() + 16,
                          static_cast<size_t>(layout.row_size() - 16)),
              0)
        << "group " << g;
  }
}

// Collects the phase-2 output rows [key, count, sum, min]; MIN keeps
// its int32 input type.
struct CollectSink : Sink {
  std::map<int64_t, std::tuple<int64_t, double, int64_t>> groups;
  int duplicates = 0;
  void Consume(Chunk& c, ExecContext&) override {
    for (int k = 0; k < c.ActiveRows(); ++k) {
      const int i = c.RowAt(k);
      auto [it, fresh] = groups.try_emplace(
          c.cols[0].i64()[i], c.cols[1].i64()[i], c.cols[2].f64()[i],
          c.cols[3].i32()[i]);
      if (!fresh) ++duplicates;
    }
  }
};

TEST_F(KernelTest, Phase1SpillInTheMiddleOfAChunk) {
  // The local table spills at 3/4 of 4096 slots. Each chunk below first
  // hits groups already in the table, then inserts fresh ones, so the
  // table fills — and spills — after a chunk's hits were collected but
  // before they were folded, while the row buffer grows under them.
  const std::vector<AggSpec> specs = {
      {AggFunc::kCount, -1, LogicalType::kInt64},
      {AggFunc::kSum, 1, LogicalType::kDouble},
      {AggFunc::kMin, 2, LogicalType::kInt32}};
  GroupByState state({LogicalType::kInt64}, specs, /*num_worker_slots=*/1);
  AggPhase1Sink::Options opts;
  opts.adaptive = false;  // stay in local mode whatever the fill rate
  AggPhase1Sink sink(&state, opts);

  std::map<int64_t, std::tuple<int64_t, double, int64_t>> ref;
  std::vector<int64_t> keys(kChunkCapacity);
  std::vector<double> vals(kChunkCapacity);
  std::vector<int32_t> mins(kChunkCapacity);
  int64_t next_key = 0;
  Rng rng(17);
  for (int chunk_no = 0; chunk_no < 12; ++chunk_no) {
    for (int i = 0; i < kChunkCapacity; ++i) {
      // First 300 rows revisit recent groups; the rest open new ones.
      keys[i] = i < 300 && next_key > 0
                    ? next_key - 1 - rng.Uniform(0, std::min<int64_t>(
                                                        next_key - 1, 500))
                    : next_key++;
      vals[i] = static_cast<double>(rng.Uniform(-64, 64)) / 8.0;  // exact
      mins[i] = static_cast<int32_t>(rng.Uniform(-100000, 100000));
    }
    Chunk c;
    c.n = kChunkCapacity;
    c.cols = {Vector{LogicalType::kInt64, keys.data()},
              Vector{LogicalType::kDouble, vals.data()},
              Vector{LogicalType::kInt32, mins.data()}};
    // Odd chunks carry a selection (every row but each 7th).
    std::vector<int32_t> sel;
    if (chunk_no % 2 == 1) {
      for (int i = 0; i < kChunkCapacity; ++i) {
        if (i % 7 != 3) sel.push_back(i);
      }
      c.sel = sel.data();
      c.sel_n = static_cast<int>(sel.size());
    }
    for (int k = 0; k < c.ActiveRows(); ++k) {
      const int i = c.RowAt(k);
      auto [it, fresh] = ref.try_emplace(keys[i], 1, vals[i], mins[i]);
      if (!fresh) {
        auto& [cnt, sum, mn] = it->second;
        ++cnt;
        sum += vals[i];
        mn = std::min<int64_t>(mn, mins[i]);
      }
    }
    ctx_.arena.Reset();
    sink.Consume(c, ctx_);
  }
  sink.Finalize(ctx_);
  ASSERT_GT(sink.RowsProduced(), static_cast<int64_t>(ref.size()))
      << "no group was spilled twice: the table never spilled mid-stream";

  CollectSink out;
  Pipeline pipe(std::make_unique<AggPartitionSource>(&state), {}, &out);
  for (const MorselRange& r : pipe.source()->MakeRanges(topo_)) {
    Morsel m;
    m.partition = r.partition;
    m.begin = r.begin;
    m.end = r.end;
    ctx_.arena.Reset();
    pipe.source()->RunMorsel(m, pipe, ctx_);
  }
  EXPECT_EQ(out.duplicates, 0);
  EXPECT_EQ(out.groups, ref);
}

// ----------------------------------------------------------------- arena

TEST(Arena, RewindReusesBytes) {
  Arena arena;
  arena.Alloc(100);
  const Arena::Mark mark = arena.GetMark();
  void* a = arena.Alloc(4000);
  arena.Alloc(300000);  // spills into a second, oversized block
  arena.Rewind(mark);
  EXPECT_EQ(arena.Alloc(4000), a);
  EXPECT_EQ(arena.bytes_in_use(), 112u + 4000u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST_F(KernelTest, ScanKeepsOneChunkOfTemporaries) {
  // A 64-chunk morsel over a string column plus a computed predicate:
  // without the per-chunk rewind every chunk's views, flags and
  // selection would stack up in the arena (~1.5 MB here).
  Schema schema({{"s", LogicalType::kString}, {"x", LogicalType::kInt64}});
  Table t("t", schema, topo_);
  const int64_t rows = 64 * kChunkCapacity;
  for (int64_t i = 0; i < rows; ++i) {
    t.StrCol(0, 0)->Append(i % 3 == 0 ? "keep" : "drop");
    t.Int64Col(0, 1)->Append(i);
  }
  t.SealPartition(0);
  struct CountSink : Sink {
    int64_t rows = 0;
    void Consume(Chunk& c, ExecContext&) override { rows += c.ActiveRows(); }
  } sink;
  std::vector<std::unique_ptr<Operator>> ops;
  ops.push_back(std::make_unique<FilterOp>(
      Eq(ColRef(0, LogicalType::kString), ConstStr("keep"))));
  Pipeline pipe(
      std::make_unique<TableScanSource>(&t, std::vector<int>{0, 1}),
      std::move(ops), &sink);
  Morsel m;
  m.partition = 0;
  m.begin = 0;
  m.end = static_cast<uint64_t>(rows);
  ctx_.arena.Reset();
  pipe.source()->RunMorsel(m, pipe, ctx_);
  EXPECT_EQ(sink.rows, (rows + 2) / 3);
  EXPECT_LE(ctx_.arena.bytes_reserved(), size_t{1} << 18);  // one block
}

#if defined(__SANITIZE_ADDRESS__)
TEST(ArenaDeathTest, ReadAcrossRewindIsPoisoned) {
  // An operator that keeps a chunk's vector past the rewind reads
  // poisoned bytes.
  EXPECT_DEATH(
      {
        Arena arena;
        const Arena::Mark mark = arena.GetMark();
        auto* v = arena.AllocArray<int64_t>(16);
        v[3] = 42;
        arena.Rewind(mark);
        volatile int64_t read = v[3];
        (void)read;
      },
      "use-after-poison");
}
#else
TEST(ArenaDeathTest, ReadAcrossRewindIsPoisoned) {
  GTEST_SKIP() << "arena poisoning needs an AddressSanitizer build";
}
#endif

}  // namespace
}  // namespace morsel
