//===- perfbench/Workload.cpp - Workloads and request generators ---------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"
#include "db/Datagen.h"
#include "db/Queries.h"
#include <cassert>

using namespace qcf;
using namespace qcf::db;

namespace perfbench {

std::optional<WorkloadKind> parseWorkload(const std::string &Name) {
  for (WorkloadKind K : {WorkloadKind::Adhoc, WorkloadKind::Repeat,
                         WorkloadKind::Restart, WorkloadKind::Adaptive})
    if (Name == workloadName(K))
      return K;
  return std::nullopt;
}

const char *workloadName(WorkloadKind K) {
  switch (K) {
  case WorkloadKind::Adhoc:
    return "adhoc";
  case WorkloadKind::Repeat:
    return "repeat";
  case WorkloadKind::Restart:
    return "restart";
  case WorkloadKind::Adaptive:
    return "adaptive";
  }
  return "?";
}

WorkloadConfig configFor(WorkloadKind K) {
  WorkloadConfig C;
  C.Kind = K;
  switch (K) {
  case WorkloadKind::Adhoc:
    C.SampledOracle = true;
    break;
  case WorkloadKind::Repeat:
    C.Tier = "Craneline"; // ServerConfig's shipped default.
    C.Sf = 20;
    C.WithTpcds = true;
    break;
  case WorkloadKind::Restart:
    C.UsesL2 = true;
    C.PrepopulateL2 = true;
    C.PoolSize = 256;
    C.CacheCapacity = 64; // A quarter of the pool: L1 evicts, L2 serves.
    C.PoolSkew = 0.5;
    break;
  case WorkloadKind::Adaptive:
    C.OptTier = "MLVM-opt";
    C.Sf = 10;
    C.SampledOracle = true;
    break;
  }
  return C;
}

uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

uint64_t QueryParams::key() const {
  auto Field = [](int32_t V) {
    assert(V >= 0 && V < (1 << 20) && "parameter out of packing range");
    return static_cast<uint64_t>(V);
  };
  return (uint64_t(Template) << 60) | (Field(A) << 40) | (Field(B) << 20) |
         Field(C);
}

// --- Templates ---------------------------------------------------------------
//
// The shapes of the repository's TPC-H suite (db/Queries.cpp), with every
// constant a parameter. Dates are day offsets from 1992-01-01, the first
// order date the generator produces; ranges keep every predicate
// selective over the generated data.

namespace {

const char *const Segments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                "MACHINERY", "HOUSEHOLD"};
const char *const ShipModes[] = {"AIR", "MAIL", "SHIP", "TRUCK",
                                 "RAIL", "FOB", "REG AIR"};

ExprPtr day(int32_t Offset) {
  return litI64(rt::dateFromYmd(1992, 1, 1) + Offset);
}

std::vector<ExprPtr> exprs() { return {}; }
template <typename... Ts> std::vector<ExprPtr> exprs(Ts... E) {
  std::vector<ExprPtr> V;
  (V.push_back(std::move(E)), ...);
  return V;
}

AggSpec agg(AggKind K, ExprPtr Arg, const char *Name) {
  AggSpec A;
  A.Kind = K;
  A.Arg = std::move(Arg);
  A.Name = Name;
  return A;
}

ExprPtr discounted() {
  return mul(col("l_extendedprice"), sub(litDec(100), col("l_discount")));
}

ExprPtr dateWindow(const char *Col, int32_t From, int32_t Len) {
  return and_(ge(col(Col), day(From)), lt(col(Col), day(From + Len)));
}

Query h1(const QueryParams &P) {
  Query Q;
  Q.Name = "h1";
  PlanPtr S = filter(scan("lineitem"),
                     and_(le(col("l_shipdate"), day(P.A)),
                          le(col("l_quantity"), litDec(P.B))));
  std::vector<AggSpec> Aggs;
  Aggs.push_back(agg(AggKind::Sum, col("l_quantity"), "sum_qty"));
  Aggs.push_back(agg(AggKind::Sum, col("l_extendedprice"), "sum_price"));
  Aggs.push_back(agg(AggKind::Sum, discounted(), "sum_disc_price"));
  Aggs.push_back(agg(AggKind::Sum,
                     mul(discounted(), add(litDec(100), col("l_tax"))),
                     "sum_charge"));
  Aggs.push_back(agg(AggKind::Avg, col("l_quantity"), "avg_qty"));
  Aggs.push_back(agg(AggKind::Count, nullptr, "count_order"));
  PlanPtr A = aggregate(std::move(S),
                        exprs(col("l_returnflag"), col("l_linestatus")),
                        {"returnflag", "linestatus"}, std::move(Aggs));
  Q.Root = sortBy(std::move(A), {{"returnflag", false}, {"linestatus", false}});
  Q.Output = exprs(col("returnflag"), col("linestatus"), col("sum_qty"),
                   col("sum_price"), col("sum_disc_price"), col("sum_charge"),
                   col("avg_qty"), col("count_order"));
  return Q;
}

Query h3(const QueryParams &P) {
  Query Q;
  Q.Name = "h3";
  PlanPtr Customers = filter(scan("customer"),
                             eq(col("c_mktsegment"), litStr(Segments[P.C])));
  PlanPtr Orders = filter(scan("orders"), lt(col("o_orderdate"), day(P.A)));
  PlanPtr OC = hashJoin(std::move(Orders), std::move(Customers),
                        exprs(col("o_custkey")), exprs(col("c_custkey")), {});
  PlanPtr Items =
      filter(scan("lineitem"), gt(col("l_shipdate"), day(P.A + P.B)));
  PlanPtr J = hashJoin(std::move(Items), std::move(OC),
                       exprs(col("l_orderkey")), exprs(col("o_orderkey")),
                       {"o_orderdate"});
  std::vector<AggSpec> Aggs;
  Aggs.push_back(agg(AggKind::Sum, discounted(), "revenue"));
  PlanPtr A = aggregate(std::move(J),
                        exprs(col("l_orderkey"), col("o_orderdate")),
                        {"orderkey", "orderdate"}, std::move(Aggs));
  Q.Root = sortBy(std::move(A), {{"revenue", true}, {"orderkey", false}}, 10);
  Q.Output = exprs(col("orderkey"), col("revenue"), col("orderdate"));
  return Q;
}

Query h5(const QueryParams &P) {
  Query Q;
  Q.Name = "h5";
  PlanPtr Orders = filter(scan("orders"), dateWindow("o_orderdate", P.A, P.B));
  PlanPtr OC = hashJoin(std::move(Orders), scan("customer"),
                        exprs(col("o_custkey")), exprs(col("c_custkey")),
                        {"c_nationkey"});
  PlanPtr JL = hashJoin(scan("lineitem"), std::move(OC),
                        exprs(col("l_orderkey")), exprs(col("o_orderkey")),
                        {"c_nationkey"});
  PlanPtr JS = hashJoin(std::move(JL), scan("supplier"),
                        exprs(col("l_suppkey"), col("c_nationkey")),
                        exprs(col("s_suppkey"), col("s_nationkey")), {});
  PlanPtr JN = hashJoin(std::move(JS), scan("nation"),
                        exprs(col("c_nationkey")), exprs(col("n_nationkey")),
                        {"n_name"});
  std::vector<AggSpec> Aggs;
  Aggs.push_back(agg(AggKind::Sum, discounted(), "revenue"));
  PlanPtr A = aggregate(std::move(JN), exprs(col("n_name")), {"nation"},
                        std::move(Aggs));
  Q.Root = sortBy(std::move(A), {{"revenue", true}, {"nation", false}});
  Q.Output = exprs(col("nation"), col("revenue"));
  return Q;
}

Query h6(const QueryParams &P) {
  Query Q;
  Q.Name = "h6";
  PlanPtr S = filter(
      scan("lineitem"),
      and_(dateWindow("l_shipdate", P.A, 365),
           and_(between(col("l_discount"), litDec(P.B), litDec(P.B + 2)),
                lt(col("l_quantity"), litDec(P.C)))));
  std::vector<AggSpec> Aggs;
  Aggs.push_back(agg(AggKind::Sum,
                     mul(col("l_extendedprice"), col("l_discount")),
                     "revenue"));
  Aggs.push_back(agg(AggKind::Count, nullptr, "n"));
  Q.Root = aggregate(std::move(S), exprs(), {}, std::move(Aggs));
  Q.Output = exprs(col("revenue"), col("n"));
  return Q;
}

Query h10(const QueryParams &P) {
  Query Q;
  Q.Name = "h10";
  PlanPtr Orders = filter(scan("orders"), dateWindow("o_orderdate", P.A, P.B));
  PlanPtr OC = hashJoin(std::move(Orders), scan("customer"),
                        exprs(col("o_custkey")), exprs(col("c_custkey")),
                        {"c_nationkey"});
  PlanPtr Items =
      filter(scan("lineitem"), eq(col("l_returnflag"), litStr("R")));
  PlanPtr J = hashJoin(std::move(Items), std::move(OC),
                       exprs(col("l_orderkey")), exprs(col("o_orderkey")),
                       {"o_custkey", "c_nationkey"});
  std::vector<AggSpec> Aggs;
  Aggs.push_back(agg(AggKind::Sum, discounted(), "revenue"));
  PlanPtr A = aggregate(std::move(J),
                        exprs(col("o_custkey"), col("c_nationkey")),
                        {"custkey", "nationkey"}, std::move(Aggs));
  Q.Root = sortBy(std::move(A), {{"revenue", true}, {"custkey", false}}, 20);
  Q.Output = exprs(col("custkey"), col("nationkey"), col("revenue"));
  return Q;
}

Query h12(const QueryParams &P) {
  // Pair index C in [0, 21) -> the C-th unordered pair of ship modes.
  unsigned M1 = 0, M2 = 1;
  for (int32_t I = 0; I != P.C; ++I)
    if (++M2 == 7)
      M2 = ++M1 + 1;
  Query Q;
  Q.Name = "h12";
  PlanPtr Items = filter(scan("lineitem"),
                         and_(or_(eq(col("l_shipmode"), litStr(ShipModes[M1])),
                                  eq(col("l_shipmode"), litStr(ShipModes[M2]))),
                              dateWindow("l_receiptdate", P.A, P.B)));
  PlanPtr J = hashJoin(std::move(Items), scan("orders"),
                       exprs(col("l_orderkey")), exprs(col("o_orderkey")),
                       {"o_orderpriority"});
  auto High = [] {
    return or_(startsWith(col("o_orderpriority"), "1-"),
               startsWith(col("o_orderpriority"), "2-"));
  };
  std::vector<AggSpec> Aggs;
  Aggs.push_back(agg(AggKind::Sum, caseWhen(High(), litI64(1), litI64(0)),
                     "high_line_count"));
  Aggs.push_back(agg(AggKind::Sum, caseWhen(High(), litI64(0), litI64(1)),
                     "low_line_count"));
  PlanPtr A = aggregate(std::move(J), exprs(col("l_shipmode")), {"shipmode"},
                        std::move(Aggs));
  Q.Root = sortBy(std::move(A), {{"shipmode", false}});
  Q.Output = exprs(col("shipmode"), col("high_line_count"),
                   col("low_line_count"));
  return Q;
}

Query h14(const QueryParams &P) {
  Query Q;
  Q.Name = "h14";
  PlanPtr Items = filter(scan("lineitem"), dateWindow("l_shipdate", P.A, P.B));
  PlanPtr J = hashJoin(std::move(Items), scan("part"),
                       exprs(col("l_partkey")), exprs(col("p_partkey")),
                       {"p_type"});
  std::vector<AggSpec> Aggs;
  Aggs.push_back(agg(AggKind::Sum,
                     caseWhen(like(col("p_type"), "PROMO%"), discounted(),
                              litDec(0)),
                     "promo_revenue"));
  Aggs.push_back(agg(AggKind::Sum, discounted(), "total_revenue"));
  Q.Root = aggregate(std::move(J), exprs(), {}, std::move(Aggs));
  Q.Output = exprs(col("promo_revenue"), col("total_revenue"));
  return Q;
}

Query h18(const QueryParams &P) {
  Query Q;
  Q.Name = "h18";
  std::vector<AggSpec> Aggs;
  Aggs.push_back(agg(AggKind::Sum, col("l_quantity"), "sum_qty"));
  PlanPtr A = aggregate(scan("lineitem"), exprs(col("l_orderkey")),
                        {"orderkey"}, std::move(Aggs));
  A = filter(std::move(A), gt(col("sum_qty"), litDec(P.C)));
  Q.Root = sortBy(std::move(A), {{"sum_qty", true}, {"orderkey", false}}, 100);
  Q.Output = exprs(col("orderkey"), col("sum_qty"));
  return Q;
}

Query h19(const QueryParams &P) {
  Query Q;
  Q.Name = "h19";
  PlanPtr J = hashJoin(scan("lineitem"), scan("part"),
                       exprs(col("l_partkey")), exprs(col("p_partkey")),
                       {"p_brand"});
  auto Arm = [](const char *Brand, int32_t Lo) {
    return and_(eq(col("p_brand"), litStr(Brand)),
                between(col("l_quantity"), litDec(Lo), litDec(Lo + 1000)));
  };
  J = filter(std::move(J),
             or_(Arm("Brand#11", P.A),
                 or_(Arm("Brand#21", P.B), Arm("Brand#32", P.C))));
  std::vector<AggSpec> Aggs;
  Aggs.push_back(agg(AggKind::Sum, discounted(), "revenue"));
  Aggs.push_back(agg(AggKind::Count, litI64(1), "matched"));
  Q.Root = aggregate(std::move(J), exprs(), {}, std::move(Aggs));
  Q.Output = exprs(col("revenue"), col("matched"));
  return Q;
}

} // namespace

QueryParams drawParams(Rng &R) {
  return drawParams(R, static_cast<uint32_t>(R.nextBounded(NumTemplates)));
}

QueryParams drawParams(Rng &R, uint32_t Template) {
  QueryParams P;
  P.Template = Template;
  auto Pick = [&R](int64_t Lo, int64_t Hi) {
    return static_cast<int32_t>(R.nextRange(Lo, Hi));
  };
  switch (P.Template) {
  case 0: // h1: ship-date cutoff, quantity cap (cents).
    P.A = Pick(1800, 2400), P.B = Pick(1000, 5000);
    break;
  case 1: // h3: order-date cutoff, ship-date lag, segment.
    P.A = Pick(700, 2000), P.B = Pick(0, 60), P.C = Pick(0, 4);
    break;
  case 2: // h5: order-date window.
    P.A = Pick(0, 2000), P.B = Pick(180, 540);
    break;
  case 3: // h6: ship-date year, discount band, quantity cap.
    P.A = Pick(0, 2000), P.B = Pick(0, 8), P.C = Pick(1000, 5000);
    break;
  case 4: // h10: order-date window.
    P.A = Pick(0, 2200), P.B = Pick(60, 120);
    break;
  case 5: // h12: receipt-date window, ship-mode pair.
    P.A = Pick(0, 2000), P.B = Pick(300, 400), P.C = Pick(0, 20);
    break;
  case 6: // h14: ship-date window.
    P.A = Pick(0, 2200), P.B = Pick(20, 40);
    break;
  case 7: // h18: large-order threshold (cents).
    P.C = Pick(15000, 30000);
    break;
  default: // h19: three quantity bands (cents).
    P.A = Pick(100, 1000), P.B = Pick(1000, 2000), P.C = Pick(2000, 3000);
    break;
  }
  return P;
}

Query makeQuery(const QueryParams &P) {
  static Query (*const Makers[NumTemplates])(const QueryParams &) = {
      h1, h3, h5, h6, h10, h12, h14, h18, h19};
  assert(P.Template < NumTemplates && "unknown template");
  return Makers[P.Template](P);
}

QueryParams DistinctStream::next(uint64_t &Index) {
  std::lock_guard<std::mutex> Lock(Mutex);
  QueryParams P;
  do
    P = drawParams(R);
  while (!Seen.insert(P.key()).second);
  Index = History.size();
  History.push_back(P);
  return P;
}

QueryParams DistinctStream::at(uint64_t Index) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(Index < History.size() && "element not produced yet");
  return History[Index];
}

SkewedPool::SkewedPool(uint64_t Seed, size_t Size, double Theta)
    : Theta(Theta) {
  // Templates cycle with the pool index, so every seed's hot set has the
  // same template mix and only the literals differ.
  Rng R(Seed);
  std::unordered_set<uint64_t> Seen;
  while (Params.size() != Size) {
    QueryParams P = drawParams(R, Params.size() % NumTemplates);
    if (Seen.insert(P.key()).second)
      Params.push_back(P);
  }
}

RequestSource::RequestSource(const WorkloadConfig &Cfg, uint64_t Seed) {
  for (unsigned D = 0; D != Drivers; ++D)
    DriverRng.emplace_back(mixSeed(Seed, 100 + D));
  switch (Cfg.Kind) {
  case WorkloadKind::Adhoc:
  case WorkloadKind::Adaptive:
    Stream = std::make_unique<DistinctStream>(mixSeed(Seed, 10));
    break;
  case WorkloadKind::Restart:
    Pool = std::make_unique<SkewedPool>(mixSeed(Seed, 11), Cfg.PoolSize,
                                        Cfg.PoolSkew);
    for (size_t I = 0; I != Pool->size(); ++I)
      Fixed.push_back(std::make_shared<Query>(makeQuery(Pool->params(I))));
    break;
  case WorkloadKind::Repeat: {
    auto Add = [this](std::vector<Query> Suite) {
      for (Query &Q : Suite)
        Fixed.push_back(std::make_shared<Query>(std::move(Q)));
    };
    Add(tpchQueries());
    Add(tpcdsQueries());
    break;
  }
  }
}

Request RequestSource::next(unsigned Driver) {
  assert(Driver < DriverRng.size() && "driver out of range");
  Request R;
  if (Stream) {
    QueryParams P = Stream->next(R.Key);
    R.Q = std::make_shared<Query>(makeQuery(P));
    return R;
  }
  Rng &G = DriverRng[Driver];
  R.Key = Pool ? Pool->draw(G) : G.nextBounded(Fixed.size());
  R.Q = Fixed[R.Key];
  return R;
}

std::shared_ptr<const Query> RequestSource::query(uint64_t Key) const {
  if (Stream)
    return std::make_shared<Query>(makeQuery(Stream->at(Key)));
  return Fixed.at(Key);
}

std::vector<uint64_t> RequestSource::finiteKeys() const {
  std::vector<uint64_t> Keys;
  for (uint64_t K = 0; K != Fixed.size(); ++K)
    Keys.push_back(K);
  return Keys;
}

bool sampleForOracle(uint64_t Seed, uint64_t Key) {
  return mixSeed(Seed, Key) % 32 == 0;
}

std::unique_ptr<Catalog> makeCatalog(const WorkloadConfig &Cfg) {
  auto Cat = std::make_unique<Catalog>();
  generateTpchLike(*Cat, Cfg.Sf);
  if (Cfg.WithTpcds)
    generateTpcdsLike(*Cat, Cfg.Sf);
  return Cat;
}

} // namespace perfbench
