#include "tpch/tpch_queries.h"

#include <string>
#include <vector>

#include "common/macros.h"

namespace morsel {

namespace {

// Shorthand: plan builders use many two-element vectors.
using Names = std::vector<std::string>;

// nation scan restricted to one name, projected to the key only.
PlanBuilder NationKeyByName(const TpchData& db,
                            const std::string& name) {
  PlanBuilder n = PlanBuilder::Scan(db.nation.get(), {"n_nationkey", "n_name"});
  n.Filter(Eq(n.Col("n_name"), ConstStr(name)));
  return n;
}

// nations belonging to one region, projected to [n_nationkey, n_name].
PlanBuilder NationsOfRegion(const TpchData& db,
                            const std::string& region) {
  PlanBuilder r = PlanBuilder::Scan(db.region.get(), {"r_regionkey", "r_name"});
  r.Filter(Eq(r.Col("r_name"), ConstStr(region)));
  PlanBuilder n =
      PlanBuilder::Scan(db.nation.get(), {"n_nationkey", "n_regionkey", "n_name"});
  n.HashJoin(std::move(r), {"n_regionkey"}, {"r_regionkey"}, {},
             JoinKind::kSemi);
  return n;
}

ResultSet Q1(Engine& e, const TpchData& db) {
  PlanBuilder pb = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
       "l_discount", "l_tax", "l_shipdate"});
  pb.Filter(Le(pb.Col("l_shipdate"), ConstDate("1998-09-02")));
  ExprPtr disc_price = Mul(pb.Col("l_extendedprice"),
                           Sub(ConstF64(1.0), pb.Col("l_discount")));
  ExprPtr charge =
      Mul(Mul(pb.Col("l_extendedprice"),
              Sub(ConstF64(1.0), pb.Col("l_discount"))),
          Add(ConstF64(1.0), pb.Col("l_tax")));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, pb.Col("l_quantity"), "sum_qty"});
  aggs.push_back({AggFunc::kSum, pb.Col("l_extendedprice"), "sum_base_price"});
  aggs.push_back({AggFunc::kSum, std::move(disc_price), "sum_disc_price"});
  aggs.push_back({AggFunc::kSum, std::move(charge), "sum_charge"});
  aggs.push_back({AggFunc::kSum, pb.Col("l_discount"), "sum_disc"});
  aggs.push_back({AggFunc::kCount, nullptr, "count_order"});
  pb.GroupBy({"l_returnflag", "l_linestatus"}, std::move(aggs));
  ExprPtr cnt = ToF64(pb.Col("count_order"));
  std::vector<NamedExpr> proj;
  proj.push_back({"l_returnflag", pb.Col("l_returnflag")});
  proj.push_back({"l_linestatus", pb.Col("l_linestatus")});
  proj.push_back({"sum_qty", pb.Col("sum_qty")});
  proj.push_back({"sum_base_price", pb.Col("sum_base_price")});
  proj.push_back({"sum_disc_price", pb.Col("sum_disc_price")});
  proj.push_back({"sum_charge", pb.Col("sum_charge")});
  proj.push_back({"avg_qty",
                  Div(pb.Col("sum_qty"), ToF64(pb.Col("count_order")))});
  proj.push_back({"avg_price", Div(pb.Col("sum_base_price"),
                                   ToF64(pb.Col("count_order")))});
  proj.push_back({"avg_disc",
                  Div(pb.Col("sum_disc"), ToF64(pb.Col("count_order")))});
  proj.push_back({"count_order", pb.Col("count_order")});
  (void)cnt;
  pb.Project(std::move(proj));
  pb.OrderBy({{"l_returnflag", true}, {"l_linestatus", true}});
  return e.CreateQuery(pb.Build())->Execute();
}

ResultSet Q2(Engine& e, const TpchData& db) {

  // Subquery: minimum supply cost per part among EUROPE suppliers.
  PlanBuilder sup1 = PlanBuilder::Scan(db.supplier.get(), {"s_suppkey", "s_nationkey"});
  sup1.HashJoin(NationsOfRegion(db, "EUROPE"), {"s_nationkey"},
                {"n_nationkey"}, {}, JoinKind::kSemi);
  PlanBuilder mincost =
      PlanBuilder::Scan(db.partsupp.get(), {"ps_partkey", "ps_suppkey", "ps_supplycost"});
  mincost.HashJoin(std::move(sup1), {"ps_suppkey"}, {"s_suppkey"}, {},
                   JoinKind::kSemi);
  std::vector<AggItem> min_agg;
  min_agg.push_back({AggFunc::kMin, mincost.Col("ps_supplycost"), "min_cost"});
  mincost.GroupBy({"ps_partkey"}, std::move(min_agg));
  mincost.Project(NE("mc_partkey", mincost.Col("ps_partkey")),
                   NE("min_cost", mincost.Col("min_cost")));

  // Main: qualifying parts joined with their EUROPE suppliers.
  PlanBuilder part = PlanBuilder::Scan(db.part.get(),
                             {"p_partkey", "p_mfgr", "p_size", "p_type"});
  part.Filter(And(Eq(part.Col("p_size"), ConstI64(15)),
                  Like(part.Col("p_type"), "%BRASS")));

  PlanBuilder sup2 = PlanBuilder::Scan(
      db.supplier.get(), {"s_suppkey", "s_name", "s_address", "s_nationkey",
                          "s_phone", "s_acctbal", "s_comment"});
  sup2.HashJoin(NationsOfRegion(db, "EUROPE"), {"s_nationkey"},
                {"n_nationkey"}, {"n_name"}, JoinKind::kInner);

  PlanBuilder ps =
      PlanBuilder::Scan(db.partsupp.get(), {"ps_partkey", "ps_suppkey", "ps_supplycost"});
  ps.HashJoin(std::move(part), {"ps_partkey"}, {"p_partkey"}, {"p_mfgr"},
              JoinKind::kInner);
  ps.HashJoin(std::move(sup2), {"ps_suppkey"}, {"s_suppkey"},
              {"s_acctbal", "s_name", "n_name", "s_address", "s_phone",
               "s_comment"},
              JoinKind::kInner);
  ps.HashJoin(std::move(mincost), {"ps_partkey"}, {"mc_partkey"},
              {"min_cost"}, JoinKind::kInner,
              [](const ColScope& s) {
                return Eq(s.Col("ps_supplycost"), s.Col("min_cost"));
              });
  ps.Project(NE("s_acctbal", ps.Col("s_acctbal")),
              NE("s_name", ps.Col("s_name")),
              NE("n_name", ps.Col("n_name")),
              NE("p_partkey", ps.Col("ps_partkey")),
              NE("p_mfgr", ps.Col("p_mfgr")),
              NE("s_address", ps.Col("s_address")),
              NE("s_phone", ps.Col("s_phone")),
              NE("s_comment", ps.Col("s_comment")));
  ps.OrderBy({{"s_acctbal", false},
              {"n_name", true},
              {"s_name", true},
              {"p_partkey", true}},
             100);
  return e.CreateQuery(ps.Build())->Execute();
}

ResultSet Q3(Engine& e, const TpchData& db) {
  PlanBuilder cust = PlanBuilder::Scan(db.customer.get(), {"c_custkey", "c_mktsegment"});
  cust.Filter(Eq(cust.Col("c_mktsegment"), ConstStr("BUILDING")));
  PlanBuilder ord = PlanBuilder::Scan(
      db.orders.get(), {"o_orderkey", "o_custkey", "o_orderdate",
                        "o_shippriority"});
  ord.Filter(Lt(ord.Col("o_orderdate"), ConstDate("1995-03-15")));
  ord.HashJoin(std::move(cust), {"o_custkey"}, {"c_custkey"}, {},
               JoinKind::kSemi);
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"});
  li.Filter(Gt(li.Col("l_shipdate"), ConstDate("1995-03-15")));
  // lineitem and orders are both generated in orderkey order within each
  // partition, so this key-clustered join is left to the adaptive
  // strategy choice (merge when the stats confirm the clustering).
  li.Join(std::move(ord), {"l_orderkey"}, {"o_orderkey"},
          {"o_orderdate", "o_shippriority"}, JoinKind::kInner, nullptr,
          JoinStrategy::kAdaptive);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum,
                  Mul(li.Col("l_extendedprice"),
                      Sub(ConstF64(1.0), li.Col("l_discount"))),
                  "revenue"});
  li.GroupBy({"l_orderkey", "o_orderdate", "o_shippriority"},
             std::move(aggs));
  li.OrderBy({{"revenue", false}, {"o_orderdate", true}}, 10);
  return e.CreateQuery(li.Build())->Execute();
}

ResultSet Q4(Engine& e, const TpchData& db) {
  PlanBuilder li = PlanBuilder::Scan(db.lineitem.get(),
                           {"l_orderkey", "l_commitdate", "l_receiptdate"});
  li.Filter(Lt(li.Col("l_commitdate"), li.Col("l_receiptdate")));
  PlanBuilder ord = PlanBuilder::Scan(db.orders.get(),
                            {"o_orderkey", "o_orderdate", "o_orderpriority"});
  ord.Filter(And(Ge(ord.Col("o_orderdate"), ConstDate("1993-07-01")),
                 Lt(ord.Col("o_orderdate"), ConstDate("1993-10-01"))));
  // Both sides orderkey-clustered (see Q3) — adaptive semi join.
  ord.Join(std::move(li), {"o_orderkey"}, {"l_orderkey"}, {},
           JoinKind::kSemi, nullptr, JoinStrategy::kAdaptive);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "order_count"});
  ord.GroupBy({"o_orderpriority"}, std::move(aggs));
  ord.OrderBy({{"o_orderpriority", true}});
  return e.CreateQuery(ord.Build())->Execute();
}

ResultSet Q5(Engine& e, const TpchData& db) {
  PlanBuilder cust = PlanBuilder::Scan(db.customer.get(), {"c_custkey", "c_nationkey"});
  PlanBuilder ord =
      PlanBuilder::Scan(db.orders.get(), {"o_orderkey", "o_custkey", "o_orderdate"});
  ord.Filter(And(Ge(ord.Col("o_orderdate"), ConstDate("1994-01-01")),
                 Lt(ord.Col("o_orderdate"), ConstDate("1995-01-01"))));
  ord.HashJoin(std::move(cust), {"o_custkey"}, {"c_custkey"},
               {"c_nationkey"}, JoinKind::kInner);
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"});
  // Orderkey-clustered join (see Q3) — adaptive.
  li.Join(std::move(ord), {"l_orderkey"}, {"o_orderkey"},
          {"c_nationkey"}, JoinKind::kInner, nullptr,
          JoinStrategy::kAdaptive);
  PlanBuilder sup = PlanBuilder::Scan(db.supplier.get(), {"s_suppkey", "s_nationkey"});
  li.HashJoin(std::move(sup), {"l_suppkey"}, {"s_suppkey"}, {"s_nationkey"},
              JoinKind::kInner, [](const ColScope& s) {
                return Eq(s.Col("c_nationkey"), s.Col("s_nationkey"));
              });
  li.HashJoin(NationsOfRegion(db, "ASIA"), {"s_nationkey"},
              {"n_nationkey"}, {"n_name"}, JoinKind::kInner);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum,
                  Mul(li.Col("l_extendedprice"),
                      Sub(ConstF64(1.0), li.Col("l_discount"))),
                  "revenue"});
  li.GroupBy({"n_name"}, std::move(aggs));
  li.OrderBy({{"revenue", false}});
  return e.CreateQuery(li.Build())->Execute();
}

ResultSet Q6(Engine& e, const TpchData& db) {
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"});
  li.Filter(And(Ge(li.Col("l_shipdate"), ConstDate("1994-01-01")),
                 Lt(li.Col("l_shipdate"), ConstDate("1995-01-01")),
                 Ge(li.Col("l_discount"), ConstF64(0.05)),
                 Le(li.Col("l_discount"), ConstF64(0.07)),
                 Lt(li.Col("l_quantity"), ConstF64(24.0))));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum,
                  Mul(li.Col("l_extendedprice"), li.Col("l_discount")),
                  "revenue"});
  li.GroupBy({}, std::move(aggs));
  li.CollectResult();
  return e.CreateQuery(li.Build())->Execute();
}

ResultSet Q7(Engine& e, const TpchData& db) {
  auto nation_pair = [&](const char* key_name, const char* out_name) {
    PlanBuilder n = PlanBuilder::Scan(db.nation.get(), {"n_nationkey", "n_name"});
    n.Filter(InStr(n.Col("n_name"), {"FRANCE", "GERMANY"}));
    n.Project(NE(key_name, n.Col("n_nationkey")), NE(out_name, n.Col("n_name")));
    return n;
  };
  PlanBuilder sup = PlanBuilder::Scan(db.supplier.get(), {"s_suppkey", "s_nationkey"});
  sup.HashJoin(nation_pair("n1_key", "supp_nation"), {"s_nationkey"},
               {"n1_key"}, {"supp_nation"}, JoinKind::kInner);
  PlanBuilder cust = PlanBuilder::Scan(db.customer.get(), {"c_custkey", "c_nationkey"});
  cust.HashJoin(nation_pair("n2_key", "cust_nation"), {"c_nationkey"},
                {"n2_key"}, {"cust_nation"}, JoinKind::kInner);
  PlanBuilder ord = PlanBuilder::Scan(db.orders.get(), {"o_orderkey", "o_custkey"});
  ord.HashJoin(std::move(cust), {"o_custkey"}, {"c_custkey"},
               {"cust_nation"}, JoinKind::kInner);
  PlanBuilder li = PlanBuilder::Scan(db.lineitem.get(),
                           {"l_orderkey", "l_suppkey", "l_shipdate",
                            "l_extendedprice", "l_discount"});
  li.Filter(And(Ge(li.Col("l_shipdate"), ConstDate("1995-01-01")),
                Le(li.Col("l_shipdate"), ConstDate("1996-12-31"))));
  li.HashJoin(std::move(sup), {"l_suppkey"}, {"s_suppkey"}, {"supp_nation"},
              JoinKind::kInner);
  li.HashJoin(std::move(ord), {"l_orderkey"}, {"o_orderkey"},
              {"cust_nation"}, JoinKind::kInner,
              [](const ColScope& s) {
                return Or(And(Eq(s.Col("supp_nation"), ConstStr("FRANCE")),
                              Eq(s.Col("cust_nation"), ConstStr("GERMANY"))),
                          And(Eq(s.Col("supp_nation"), ConstStr("GERMANY")),
                              Eq(s.Col("cust_nation"), ConstStr("FRANCE"))));
              });
  li.Project(NE("supp_nation", li.Col("supp_nation")),
              NE("cust_nation", li.Col("cust_nation")),
              NE("l_year", ExtractYear(li.Col("l_shipdate"))),
              NE("volume", Mul(li.Col("l_extendedprice"),
                             Sub(ConstF64(1.0), li.Col("l_discount")))));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, li.Col("volume"), "revenue"});
  li.GroupBy({"supp_nation", "cust_nation", "l_year"}, std::move(aggs));
  li.OrderBy({{"supp_nation", true}, {"cust_nation", true}, {"l_year", true}});
  return e.CreateQuery(li.Build())->Execute();
}

ResultSet Q8(Engine& e, const TpchData& db) {
  PlanBuilder part = PlanBuilder::Scan(db.part.get(), {"p_partkey", "p_type"});
  part.Filter(Eq(part.Col("p_type"), ConstStr("ECONOMY ANODIZED STEEL")));

  PlanBuilder cust = PlanBuilder::Scan(db.customer.get(), {"c_custkey", "c_nationkey"});
  cust.HashJoin(NationsOfRegion(db, "AMERICA"), {"c_nationkey"},
                {"n_nationkey"}, {}, JoinKind::kSemi);
  PlanBuilder ord =
      PlanBuilder::Scan(db.orders.get(), {"o_orderkey", "o_custkey", "o_orderdate"});
  ord.Filter(And(Ge(ord.Col("o_orderdate"), ConstDate("1995-01-01")),
                 Le(ord.Col("o_orderdate"), ConstDate("1996-12-31"))));
  ord.HashJoin(std::move(cust), {"o_custkey"}, {"c_custkey"}, {},
               JoinKind::kSemi);

  PlanBuilder sup = PlanBuilder::Scan(db.supplier.get(), {"s_suppkey", "s_nationkey"});
  PlanBuilder all_nations =
      PlanBuilder::Scan(db.nation.get(), {"n_nationkey", "n_name"});

  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
       "l_discount"});
  li.HashJoin(std::move(part), {"l_partkey"}, {"p_partkey"}, {},
              JoinKind::kSemi);
  li.HashJoin(std::move(ord), {"l_orderkey"}, {"o_orderkey"},
              {"o_orderdate"}, JoinKind::kInner);
  li.HashJoin(std::move(sup), {"l_suppkey"}, {"s_suppkey"}, {"s_nationkey"},
              JoinKind::kInner);
  li.HashJoin(std::move(all_nations), {"s_nationkey"}, {"n_nationkey"},
              {"n_name"}, JoinKind::kInner);
  ExprPtr volume = Mul(li.Col("l_extendedprice"),
                       Sub(ConstF64(1.0), li.Col("l_discount")));
  ExprPtr brazil_volume =
      CaseWhen(Eq(li.Col("n_name"), ConstStr("BRAZIL")),
               Mul(li.Col("l_extendedprice"),
                   Sub(ConstF64(1.0), li.Col("l_discount"))),
               ConstF64(0.0));
  li.Project(NE("o_year", ExtractYear(li.Col("o_orderdate"))),
              NE("volume", std::move(volume)),
              NE("brazil_volume", std::move(brazil_volume)));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, li.Col("brazil_volume"), "sum_brazil"});
  aggs.push_back({AggFunc::kSum, li.Col("volume"), "sum_all"});
  li.GroupBy({"o_year"}, std::move(aggs));
  li.Project(NE("o_year", li.Col("o_year")),
              NE("mkt_share", Div(li.Col("sum_brazil"), li.Col("sum_all"))));
  li.OrderBy({{"o_year", true}});
  return e.CreateQuery(li.Build())->Execute();
}

ResultSet Q9(Engine& e, const TpchData& db) {
  PlanBuilder part = PlanBuilder::Scan(db.part.get(), {"p_partkey", "p_name"});
  part.Filter(Like(part.Col("p_name"), "%green%"));
  PlanBuilder sup = PlanBuilder::Scan(db.supplier.get(), {"s_suppkey", "s_nationkey"});
  PlanBuilder ps = PlanBuilder::Scan(db.partsupp.get(),
                           {"ps_partkey", "ps_suppkey", "ps_supplycost"});
  PlanBuilder ord = PlanBuilder::Scan(db.orders.get(), {"o_orderkey", "o_orderdate"});
  PlanBuilder nat = PlanBuilder::Scan(db.nation.get(), {"n_nationkey", "n_name"});

  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
       "l_extendedprice", "l_discount"});
  li.HashJoin(std::move(part), {"l_partkey"}, {"p_partkey"}, {},
              JoinKind::kSemi);
  li.HashJoin(std::move(sup), {"l_suppkey"}, {"s_suppkey"}, {"s_nationkey"},
              JoinKind::kInner);
  li.HashJoin(std::move(ps), {"l_partkey", "l_suppkey"},
              {"ps_partkey", "ps_suppkey"}, {"ps_supplycost"},
              JoinKind::kInner);
  li.HashJoin(std::move(ord), {"l_orderkey"}, {"o_orderkey"},
              {"o_orderdate"}, JoinKind::kInner);
  li.HashJoin(std::move(nat), {"s_nationkey"}, {"n_nationkey"}, {"n_name"},
              JoinKind::kInner);
  ExprPtr amount =
      Sub(Mul(li.Col("l_extendedprice"),
              Sub(ConstF64(1.0), li.Col("l_discount"))),
          Mul(li.Col("ps_supplycost"), li.Col("l_quantity")));
  li.Project(NE("nation", li.Col("n_name")),
              NE("o_year", ExtractYear(li.Col("o_orderdate"))),
              NE("amount", std::move(amount)));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, li.Col("amount"), "sum_profit"});
  li.GroupBy({"nation", "o_year"}, std::move(aggs));
  li.OrderBy({{"nation", true}, {"o_year", false}});
  return e.CreateQuery(li.Build())->Execute();
}

ResultSet Q10(Engine& e, const TpchData& db) {
  PlanBuilder ord = PlanBuilder::Scan(db.orders.get(),
                            {"o_orderkey", "o_custkey", "o_orderdate"});
  ord.Filter(And(Ge(ord.Col("o_orderdate"), ConstDate("1993-10-01")),
                 Lt(ord.Col("o_orderdate"), ConstDate("1994-01-01"))));
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"});
  li.Filter(Eq(li.Col("l_returnflag"), ConstStr("R")));
  // Orderkey-clustered join (see Q3) — adaptive.
  li.Join(std::move(ord), {"l_orderkey"}, {"o_orderkey"}, {"o_custkey"},
          JoinKind::kInner, nullptr, JoinStrategy::kAdaptive);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum,
                  Mul(li.Col("l_extendedprice"),
                      Sub(ConstF64(1.0), li.Col("l_discount"))),
                  "revenue"});
  li.GroupBy({"o_custkey"}, std::move(aggs));
  PlanBuilder cust = PlanBuilder::Scan(
      db.customer.get(), {"c_custkey", "c_name", "c_acctbal", "c_nationkey",
                          "c_address", "c_phone", "c_comment"});
  li.HashJoin(std::move(cust), {"o_custkey"}, {"c_custkey"},
              {"c_name", "c_acctbal", "c_nationkey", "c_address", "c_phone",
               "c_comment"},
              JoinKind::kInner);
  PlanBuilder nat = PlanBuilder::Scan(db.nation.get(), {"n_nationkey", "n_name"});
  li.HashJoin(std::move(nat), {"c_nationkey"}, {"n_nationkey"}, {"n_name"},
              JoinKind::kInner);
  li.Project(NE("c_custkey", li.Col("o_custkey")),
              NE("c_name", li.Col("c_name")),
              NE("revenue", li.Col("revenue")),
              NE("c_acctbal", li.Col("c_acctbal")),
              NE("n_name", li.Col("n_name")),
              NE("c_address", li.Col("c_address")),
              NE("c_phone", li.Col("c_phone")),
              NE("c_comment", li.Col("c_comment")));
  li.OrderBy({{"revenue", false}}, 20);
  return e.CreateQuery(li.Build())->Execute();
}

ResultSet Q11(Engine& e, const TpchData& db) {
  // Scalar subquery: total value of GERMANY's stock.
  double total = 0.0;
  {
    PlanBuilder sup = PlanBuilder::Scan(db.supplier.get(), {"s_suppkey", "s_nationkey"});
    sup.HashJoin(NationKeyByName(db, "GERMANY"), {"s_nationkey"},
                 {"n_nationkey"}, {}, JoinKind::kSemi);
    PlanBuilder ps = PlanBuilder::Scan(db.partsupp.get(),
                             {"ps_partkey", "ps_suppkey", "ps_supplycost",
                              "ps_availqty"});
    ps.HashJoin(std::move(sup), {"ps_suppkey"}, {"s_suppkey"}, {},
                JoinKind::kSemi);
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kSum,
                    Mul(ps.Col("ps_supplycost"),
                        ToF64(ps.Col("ps_availqty"))),
                    "total"});
    ps.GroupBy({}, std::move(aggs));
    ps.CollectResult();
    ResultSet r = e.CreateQuery(ps.Build())->Execute();
    total = r.F64(0, 0);
  }
  // Spec scales the fraction with 1/SF.
  double threshold =
      total * 0.0001 / (db.scale_factor > 0 ? db.scale_factor : 1.0);

  PlanBuilder sup = PlanBuilder::Scan(db.supplier.get(), {"s_suppkey", "s_nationkey"});
  sup.HashJoin(NationKeyByName(db, "GERMANY"), {"s_nationkey"},
               {"n_nationkey"}, {}, JoinKind::kSemi);
  PlanBuilder ps = PlanBuilder::Scan(
      db.partsupp.get(),
      {"ps_partkey", "ps_suppkey", "ps_supplycost", "ps_availqty"});
  ps.HashJoin(std::move(sup), {"ps_suppkey"}, {"s_suppkey"}, {},
              JoinKind::kSemi);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum,
                  Mul(ps.Col("ps_supplycost"), ToF64(ps.Col("ps_availqty"))),
                  "value"});
  ps.GroupBy({"ps_partkey"}, std::move(aggs));
  ps.Filter(Gt(ps.Col("value"), ConstF64(threshold)));
  ps.OrderBy({{"value", false}});
  return e.CreateQuery(ps.Build())->Execute();
}

ResultSet Q12(Engine& e, const TpchData& db) {
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_orderkey", "l_shipmode", "l_commitdate", "l_receiptdate",
       "l_shipdate"});
  li.Filter(And(InStr(li.Col("l_shipmode"), {"MAIL", "SHIP"}),
                 Lt(li.Col("l_commitdate"), li.Col("l_receiptdate")),
                 Lt(li.Col("l_shipdate"), li.Col("l_commitdate")),
                 Ge(li.Col("l_receiptdate"), ConstDate("1994-01-01")),
                 Lt(li.Col("l_receiptdate"), ConstDate("1995-01-01"))));
  PlanBuilder ord = PlanBuilder::Scan(db.orders.get(),
                            {"o_orderkey", "o_orderpriority"});
  // Orderkey-clustered join (see Q3) — adaptive.
  ord.Join(std::move(li), {"o_orderkey"}, {"l_orderkey"},
           {"l_shipmode"}, JoinKind::kInner, nullptr,
           JoinStrategy::kAdaptive);
  ExprPtr high = CaseWhen(
      InStr(ord.Col("o_orderpriority"), {"1-URGENT", "2-HIGH"}),
      ConstI64(1), ConstI64(0));
  ExprPtr low = CaseWhen(
      InStr(ord.Col("o_orderpriority"), {"1-URGENT", "2-HIGH"}),
      ConstI64(0), ConstI64(1));
  ord.Project(NE("l_shipmode", ord.Col("l_shipmode")),
               NE("high_line", std::move(high)),
               NE("low_line", std::move(low)));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, ord.Col("high_line"), "high_line_count"});
  aggs.push_back({AggFunc::kSum, ord.Col("low_line"), "low_line_count"});
  ord.GroupBy({"l_shipmode"}, std::move(aggs));
  ord.OrderBy({{"l_shipmode", true}});
  return e.CreateQuery(ord.Build())->Execute();
}

ResultSet Q13(Engine& e, const TpchData& db) {
  PlanBuilder ord = PlanBuilder::Scan(db.orders.get(), {"o_custkey", "o_comment"});
  ord.Filter(NotLike(ord.Col("o_comment"), "%special%requests%"));
  std::vector<AggItem> per_cust;
  per_cust.push_back({AggFunc::kCount, nullptr, "c_count"});
  ord.GroupBy({"o_custkey"}, std::move(per_cust));

  PlanBuilder cust = PlanBuilder::Scan(db.customer.get(), {"c_custkey"});
  cust.HashJoin(std::move(ord), {"c_custkey"}, {"o_custkey"}, {"c_count"},
                JoinKind::kLeftOuter);
  std::vector<AggItem> dist;
  dist.push_back({AggFunc::kCount, nullptr, "custdist"});
  cust.GroupBy({"c_count"}, std::move(dist));
  cust.OrderBy({{"custdist", false}, {"c_count", false}});
  return e.CreateQuery(cust.Build())->Execute();
}

ResultSet Q14(Engine& e, const TpchData& db) {
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_partkey", "l_extendedprice", "l_discount", "l_shipdate"});
  li.Filter(And(Ge(li.Col("l_shipdate"), ConstDate("1995-09-01")),
                Lt(li.Col("l_shipdate"), ConstDate("1995-10-01"))));
  PlanBuilder part = PlanBuilder::Scan(db.part.get(), {"p_partkey", "p_type"});
  li.HashJoin(std::move(part), {"l_partkey"}, {"p_partkey"}, {"p_type"},
              JoinKind::kInner);
  ExprPtr revenue = Mul(li.Col("l_extendedprice"),
                        Sub(ConstF64(1.0), li.Col("l_discount")));
  ExprPtr promo = CaseWhen(Like(li.Col("p_type"), "PROMO%"),
                           Mul(li.Col("l_extendedprice"),
                               Sub(ConstF64(1.0), li.Col("l_discount"))),
                           ConstF64(0.0));
  li.Project(NE("promo", std::move(promo)), NE("revenue", std::move(revenue)));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, li.Col("promo"), "sum_promo"});
  aggs.push_back({AggFunc::kSum, li.Col("revenue"), "sum_rev"});
  li.GroupBy({}, std::move(aggs));
  li.Project(NE("promo_revenue",
               Div(Mul(ConstF64(100.0), li.Col("sum_promo")),
                   li.Col("sum_rev"))));
  li.CollectResult();
  return e.CreateQuery(li.Build())->Execute();
}

// Shared Q15 revenue view: supplier revenue in 1996 Q1.
PlanBuilder Q15RevenueView(const TpchData& db) {
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"});
  li.Filter(And(Ge(li.Col("l_shipdate"), ConstDate("1996-01-01")),
                Lt(li.Col("l_shipdate"), ConstDate("1996-04-01"))));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum,
                  Mul(li.Col("l_extendedprice"),
                      Sub(ConstF64(1.0), li.Col("l_discount"))),
                  "total_revenue"});
  li.GroupBy({"l_suppkey"}, std::move(aggs));
  return li;
}

ResultSet Q15(Engine& e, const TpchData& db) {
  // The view is summed once and max(total_revenue) and its argmax keys
  // are read off that one result. Filtering a second, separately summed
  // copy against the max would drop the top supplier whenever the two
  // parallel sums round differently.
  PlanBuilder rev = Q15RevenueView(db);
  rev.CollectResult();
  ResultSet view = e.CreateQuery(rev.Build())->Execute();
  if (!view.ok()) return view;
  double max_rev = 0.0;
  std::vector<int64_t> top;
  for (int64_t r = 0; r < view.num_rows(); ++r) {
    const double v = view.F64(r, 1);
    if (top.empty() || v > max_rev) {
      max_rev = v;
      top.clear();
    }
    if (v == max_rev) top.push_back(view.I64(r, 0));
  }
  PlanBuilder sup = PlanBuilder::Scan(db.supplier.get(),
                            {"s_suppkey", "s_name", "s_address", "s_phone"});
  sup.Filter(InI64(sup.Col("s_suppkey"), std::move(top)));
  sup.Project(NE("s_suppkey", sup.Col("s_suppkey")),
              NE("s_name", sup.Col("s_name")),
              NE("s_address", sup.Col("s_address")),
              NE("s_phone", sup.Col("s_phone")),
              NE("total_revenue", ConstF64(max_rev)));
  sup.OrderBy({{"s_suppkey", true}});
  return e.CreateQuery(sup.Build())->Execute();
}

ResultSet Q16(Engine& e, const TpchData& db) {
  PlanBuilder part = PlanBuilder::Scan(db.part.get(),
                             {"p_partkey", "p_brand", "p_type", "p_size"});
  part.Filter(And(Ne(part.Col("p_brand"), ConstStr("Brand#45")),
                   NotLike(part.Col("p_type"), "MEDIUM POLISHED%"),
                   InI64(part.Col("p_size"),
                         {49, 14, 23, 45, 19, 3, 36, 9})));
  PlanBuilder bad_sup = PlanBuilder::Scan(db.supplier.get(), {"s_suppkey", "s_comment"});
  bad_sup.Filter(Like(bad_sup.Col("s_comment"), "%Customer%Complaints%"));

  PlanBuilder ps = PlanBuilder::Scan(db.partsupp.get(), {"ps_partkey", "ps_suppkey"});
  ps.HashJoin(std::move(part), {"ps_partkey"}, {"p_partkey"},
              {"p_brand", "p_type", "p_size"}, JoinKind::kInner);
  ps.HashJoin(std::move(bad_sup), {"ps_suppkey"}, {"s_suppkey"}, {},
              JoinKind::kAnti);
  // count(distinct ps_suppkey): dedupe then count.
  std::vector<AggItem> dedup;
  dedup.push_back({AggFunc::kCount, nullptr, "dummy"});
  ps.GroupBy({"p_brand", "p_type", "p_size", "ps_suppkey"},
             std::move(dedup));
  std::vector<AggItem> cnt;
  cnt.push_back({AggFunc::kCount, nullptr, "supplier_cnt"});
  ps.GroupBy({"p_brand", "p_type", "p_size"}, std::move(cnt));
  ps.OrderBy({{"supplier_cnt", false},
              {"p_brand", true},
              {"p_type", true},
              {"p_size", true}});
  return e.CreateQuery(ps.Build())->Execute();
}

ResultSet Q17(Engine& e, const TpchData& db) {
  // Per-part quantity threshold: 0.2 * avg(l_quantity).
  PlanBuilder avgq = PlanBuilder::Scan(db.lineitem.get(), {"l_partkey", "l_quantity"});
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, avgq.Col("l_quantity"), "sum_qty"});
  aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
  avgq.GroupBy({"l_partkey"}, std::move(aggs));
  avgq.Project(NE("t_partkey", avgq.Col("l_partkey")),
                NE("qty_threshold",
                 Mul(ConstF64(0.2),
                     Div(avgq.Col("sum_qty"), ToF64(avgq.Col("cnt"))))));

  PlanBuilder part = PlanBuilder::Scan(db.part.get(),
                             {"p_partkey", "p_brand", "p_container"});
  part.Filter(And(Eq(part.Col("p_brand"), ConstStr("Brand#23")),
                  Eq(part.Col("p_container"), ConstStr("MED BOX"))));

  PlanBuilder li = PlanBuilder::Scan(db.lineitem.get(),
                           {"l_partkey", "l_quantity", "l_extendedprice"});
  li.HashJoin(std::move(part), {"l_partkey"}, {"p_partkey"}, {},
              JoinKind::kSemi);
  li.HashJoin(std::move(avgq), {"l_partkey"}, {"t_partkey"},
              {"qty_threshold"}, JoinKind::kInner,
              [](const ColScope& s) {
                return Lt(s.Col("l_quantity"), s.Col("qty_threshold"));
              });
  std::vector<AggItem> sum;
  sum.push_back({AggFunc::kSum, li.Col("l_extendedprice"), "sum_price"});
  li.GroupBy({}, std::move(sum));
  li.Project(NE("avg_yearly", Div(li.Col("sum_price"), ConstF64(7.0))));
  li.CollectResult();
  return e.CreateQuery(li.Build())->Execute();
}

ResultSet Q18(Engine& e, const TpchData& db) {
  PlanBuilder big = PlanBuilder::Scan(db.lineitem.get(), {"l_orderkey", "l_quantity"});
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, big.Col("l_quantity"), "sum_qty"});
  big.GroupBy({"l_orderkey"}, std::move(aggs));
  big.Filter(Gt(big.Col("sum_qty"), ConstF64(300.0)));

  PlanBuilder ord = PlanBuilder::Scan(
      db.orders.get(),
      {"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"});
  ord.HashJoin(std::move(big), {"o_orderkey"}, {"l_orderkey"}, {"sum_qty"},
               JoinKind::kInner);
  PlanBuilder cust = PlanBuilder::Scan(db.customer.get(), {"c_custkey", "c_name"});
  ord.HashJoin(std::move(cust), {"o_custkey"}, {"c_custkey"}, {"c_name"},
               JoinKind::kInner);
  ord.Project(NE("c_name", ord.Col("c_name")),
               NE("c_custkey", ord.Col("o_custkey")),
               NE("o_orderkey", ord.Col("o_orderkey")),
               NE("o_orderdate", ord.Col("o_orderdate")),
               NE("o_totalprice", ord.Col("o_totalprice")),
               NE("sum_qty", ord.Col("sum_qty")));
  ord.OrderBy({{"o_totalprice", false}, {"o_orderdate", true}}, 100);
  return e.CreateQuery(ord.Build())->Execute();
}

ResultSet Q19(Engine& e, const TpchData& db) {
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_partkey", "l_quantity", "l_extendedprice", "l_discount",
       "l_shipinstruct", "l_shipmode"});
  li.Filter(And(Eq(li.Col("l_shipinstruct"), ConstStr("DELIVER IN PERSON")),
                InStr(li.Col("l_shipmode"), {"AIR", "REG AIR"})));
  PlanBuilder part = PlanBuilder::Scan(db.part.get(),
                             {"p_partkey", "p_brand", "p_container",
                              "p_size"});
  li.HashJoin(
      std::move(part), {"l_partkey"}, {"p_partkey"},
      {"p_brand", "p_container", "p_size"}, JoinKind::kInner,
      [](const ColScope& s) {
        auto branch = [&](const char* brand,
                          std::vector<std::string> containers, double qlo,
                          double qhi, int64_t smax) {
          return And(Eq(s.Col("p_brand"), ConstStr(brand)),
                      InStr(s.Col("p_container"), std::move(containers)),
                      Ge(s.Col("l_quantity"), ConstF64(qlo)),
                      Le(s.Col("l_quantity"), ConstF64(qhi)),
                      Ge(s.Col("p_size"), ConstI64(1)),
                      Le(s.Col("p_size"), ConstI64(smax)));
        };
        return Or(branch("Brand#12",
                          {"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1.0,
                          11.0, 5),
                   branch("Brand#23",
                          {"MED BAG", "MED BOX", "MED PKG", "MED PACK"},
                          10.0, 20.0, 10),
                   branch("Brand#34",
                          {"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20.0,
                          30.0, 15));
      });
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum,
                  Mul(li.Col("l_extendedprice"),
                      Sub(ConstF64(1.0), li.Col("l_discount"))),
                  "revenue"});
  li.GroupBy({}, std::move(aggs));
  li.CollectResult();
  return e.CreateQuery(li.Build())->Execute();
}

ResultSet Q20(Engine& e, const TpchData& db) {
  PlanBuilder sumq = PlanBuilder::Scan(
      db.lineitem.get(), {"l_partkey", "l_suppkey", "l_quantity",
                          "l_shipdate"});
  sumq.Filter(And(Ge(sumq.Col("l_shipdate"), ConstDate("1994-01-01")),
                  Lt(sumq.Col("l_shipdate"), ConstDate("1995-01-01"))));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, sumq.Col("l_quantity"), "sq"});
  sumq.GroupBy({"l_partkey", "l_suppkey"}, std::move(aggs));

  PlanBuilder part = PlanBuilder::Scan(db.part.get(), {"p_partkey", "p_name"});
  part.Filter(Like(part.Col("p_name"), "forest%"));

  PlanBuilder ps = PlanBuilder::Scan(db.partsupp.get(),
                           {"ps_partkey", "ps_suppkey", "ps_availqty"});
  ps.HashJoin(std::move(part), {"ps_partkey"}, {"p_partkey"}, {},
              JoinKind::kSemi);
  ps.HashJoin(std::move(sumq), {"ps_partkey", "ps_suppkey"},
              {"l_partkey", "l_suppkey"}, {"sq"}, JoinKind::kInner,
              [](const ColScope& s) {
                return Gt(ToF64(s.Col("ps_availqty")),
                          Mul(ConstF64(0.5), s.Col("sq")));
              });

  PlanBuilder sup = PlanBuilder::Scan(db.supplier.get(),
                            {"s_suppkey", "s_name", "s_address",
                             "s_nationkey"});
  sup.HashJoin(NationKeyByName(db, "CANADA"), {"s_nationkey"},
               {"n_nationkey"}, {}, JoinKind::kSemi);
  sup.HashJoin(std::move(ps), {"s_suppkey"}, {"ps_suppkey"}, {},
               JoinKind::kSemi);
  sup.Project(NE("s_name", sup.Col("s_name")),
               NE("s_address", sup.Col("s_address")));
  sup.OrderBy({{"s_name", true}});
  return e.CreateQuery(sup.Build())->Execute();
}

ResultSet Q21(Engine& e, const TpchData& db) {
  PlanBuilder sup = PlanBuilder::Scan(db.supplier.get(),
                            {"s_suppkey", "s_name", "s_nationkey"});
  sup.HashJoin(NationKeyByName(db, "SAUDI ARABIA"),
               {"s_nationkey"}, {"n_nationkey"}, {}, JoinKind::kSemi);

  PlanBuilder ord_f = PlanBuilder::Scan(db.orders.get(),
                              {"o_orderkey", "o_orderstatus"});
  ord_f.Filter(Eq(ord_f.Col("o_orderstatus"), ConstStr("F")));

  PlanBuilder l2 = PlanBuilder::Scan(db.lineitem.get(), {"l_orderkey", "l_suppkey"});
  l2.Project(NE("lo2", l2.Col("l_orderkey")), NE("ls2", l2.Col("l_suppkey")));

  PlanBuilder l3 = PlanBuilder::Scan(db.lineitem.get(),
                           {"l_orderkey", "l_suppkey", "l_commitdate",
                            "l_receiptdate"});
  l3.Filter(Gt(l3.Col("l_receiptdate"), l3.Col("l_commitdate")));
  l3.Project(NE("lo3", l3.Col("l_orderkey")), NE("ls3", l3.Col("l_suppkey")));

  PlanBuilder l1 = PlanBuilder::Scan(db.lineitem.get(),
                           {"l_orderkey", "l_suppkey", "l_commitdate",
                            "l_receiptdate"});
  l1.Filter(Gt(l1.Col("l_receiptdate"), l1.Col("l_commitdate")));
  l1.HashJoin(std::move(sup), {"l_suppkey"}, {"s_suppkey"}, {"s_name"},
              JoinKind::kInner);
  l1.HashJoin(std::move(ord_f), {"l_orderkey"}, {"o_orderkey"}, {},
              JoinKind::kSemi);
  l1.HashJoin(std::move(l2), {"l_orderkey"}, {"lo2"}, {"ls2"},
              JoinKind::kSemi, [](const ColScope& s) {
                return Ne(s.Col("ls2"), s.Col("l_suppkey"));
              });
  l1.HashJoin(std::move(l3), {"l_orderkey"}, {"lo3"}, {"ls3"},
              JoinKind::kAnti, [](const ColScope& s) {
                return Ne(s.Col("ls3"), s.Col("l_suppkey"));
              });
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "numwait"});
  l1.GroupBy({"s_name"}, std::move(aggs));
  l1.OrderBy({{"numwait", false}, {"s_name", true}}, 100);
  return e.CreateQuery(l1.Build())->Execute();
}

ResultSet Q22(Engine& e, const TpchData& db) {
  const std::vector<std::string> codes = {"13", "31", "23", "29",
                                          "30", "18", "17"};
  // Scalar: average positive balance of customers in the code set.
  double avg_bal = 0.0;
  {
    PlanBuilder cust = PlanBuilder::Scan(db.customer.get(), {"c_phone", "c_acctbal"});
    cust.Filter(And(InStr(Substr(cust.Col("c_phone"), 1, 2), codes),
                    Gt(cust.Col("c_acctbal"), ConstF64(0.0))));
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kSum, cust.Col("c_acctbal"), "sum_bal"});
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    cust.GroupBy({}, std::move(aggs));
    cust.CollectResult();
    ResultSet r = e.CreateQuery(cust.Build())->Execute();
    if (r.I64(0, 1) > 0) {
      avg_bal = r.F64(0, 0) / static_cast<double>(r.I64(0, 1));
    }
  }

  PlanBuilder ord = PlanBuilder::Scan(db.orders.get(), {"o_custkey"});
  PlanBuilder cust = PlanBuilder::Scan(db.customer.get(),
                             {"c_custkey", "c_phone", "c_acctbal"});
  cust.Filter(And(InStr(Substr(cust.Col("c_phone"), 1, 2), codes),
                  Gt(cust.Col("c_acctbal"), ConstF64(avg_bal))));
  cust.HashJoin(std::move(ord), {"c_custkey"}, {"o_custkey"}, {},
                JoinKind::kAnti);
  cust.Project(NE("cntrycode", Substr(cust.Col("c_phone"), 1, 2)),
                NE("c_acctbal", cust.Col("c_acctbal")));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "numcust"});
  aggs.push_back({AggFunc::kSum, cust.Col("c_acctbal"), "totacctbal"});
  cust.GroupBy({"cntrycode"}, std::move(aggs));
  cust.OrderBy({{"cntrycode", true}});
  return e.CreateQuery(cust.Build())->Execute();
}

}  // namespace

ResultSet RunTpchQuery(Engine& engine, const TpchData& db, int qnum) {
  switch (qnum) {
    case 1:
      return Q1(engine, db);
    case 2:
      return Q2(engine, db);
    case 3:
      return Q3(engine, db);
    case 4:
      return Q4(engine, db);
    case 5:
      return Q5(engine, db);
    case 6:
      return Q6(engine, db);
    case 7:
      return Q7(engine, db);
    case 8:
      return Q8(engine, db);
    case 9:
      return Q9(engine, db);
    case 10:
      return Q10(engine, db);
    case 11:
      return Q11(engine, db);
    case 12:
      return Q12(engine, db);
    case 13:
      return Q13(engine, db);
    case 14:
      return Q14(engine, db);
    case 15:
      return Q15(engine, db);
    case 16:
      return Q16(engine, db);
    case 17:
      return Q17(engine, db);
    case 18:
      return Q18(engine, db);
    case 19:
      return Q19(engine, db);
    case 20:
      return Q20(engine, db);
    case 21:
      return Q21(engine, db);
    case 22:
      return Q22(engine, db);
    default:
      MORSEL_CHECK_MSG(false, "TPC-H query number out of range");
  }
  return ResultSet();
}

}  // namespace morsel
