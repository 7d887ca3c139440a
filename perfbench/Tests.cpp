//===- perfbench/Tests.cpp - The benchmark's own checks -------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
//
// Generator determinism, the distinct-fingerprint property of the fresh
// streams, exact repetition of count metrics, the interpreter oracle, and
// the percentile and span self-time arithmetic. Built by perfbench's own
// CMake project:
//
//   cmake -S perfbench -B <dir> && cmake --build <dir> --target perfbench_tests
//   (cd <dir> && ./perfbench_tests)
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "backend/Cache.h"
#include "db/Codegen.h"
#include "support/TimeTrace.h"
#include <gtest/gtest.h>
#include <unordered_set>

using namespace perfbench;
using namespace qcf;

namespace {

const char *const WorkDir = "perfbench-test-work";

TEST(PerfbenchGenerator, AdhocRequestsHaveDistinctFingerprints) {
  WorkloadConfig Cfg = configFor(WorkloadKind::Adhoc);
  std::unique_ptr<db::Catalog> Cat = makeCatalog(Cfg);
  RequestSource Src(Cfg, 3);
  std::unordered_set<backend::ModuleFingerprint, backend::FingerprintHash> Fps;
  std::unordered_set<uint64_t> Keys;
  const size_t N = 6000;
  for (size_t I = 0; I != N; ++I) {
    Request R = Src.next(I % Drivers);
    EXPECT_TRUE(Keys.insert(R.Key).second);
    db::CompiledPlan Plan = db::compileQuery(*R.Q, *Cat);
    EXPECT_TRUE(Fps.insert(backend::fingerprintModule(*Plan.Module)).second)
        << "request " << I << " repeats an earlier module";
  }
  EXPECT_EQ(Fps.size(), N);
}

TEST(PerfbenchGenerator, DistinctStreamIsReproducible) {
  DistinctStream A(11), B(11), C(12);
  bool Differs = false;
  for (uint64_t I = 0; I != 2000; ++I) {
    uint64_t IA, IB, IC;
    QueryParams PA = A.next(IA), PB = B.next(IB), PC = C.next(IC);
    EXPECT_EQ(IA, I);
    EXPECT_EQ(PA.key(), PB.key());
    EXPECT_EQ(A.at(I).key(), PA.key());
    Differs |= PA.key() != PC.key();
  }
  EXPECT_TRUE(Differs);
}

TEST(PerfbenchGenerator, RestartPoolAndSkewAreReproducible) {
  WorkloadConfig Cfg = configFor(WorkloadKind::Restart);
  SkewedPool A(5, Cfg.PoolSize, Cfg.PoolSkew), B(5, Cfg.PoolSize, Cfg.PoolSkew);
  SkewedPool C(6, Cfg.PoolSize, Cfg.PoolSkew);
  ASSERT_EQ(A.size(), Cfg.PoolSize);
  std::unordered_set<uint64_t> Distinct;
  bool PoolDiffers = false;
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A.params(I).key(), B.params(I).key());
    Distinct.insert(A.params(I).key());
    PoolDiffers |= A.params(I).key() != C.params(I).key();
  }
  EXPECT_EQ(Distinct.size(), A.size());
  EXPECT_TRUE(PoolDiffers);

  // The same seed draws the same skewed sequence; a quarter of the pool
  // (the L1's capacity) takes about half of the traffic.
  RequestSource S1(Cfg, 9), S2(Cfg, 9), S3(Cfg, 10);
  size_t Hot = 0, N = 20000;
  bool DrawsDiffer = false;
  for (size_t I = 0; I != N; ++I) {
    unsigned D = I % Drivers;
    uint64_t K1 = S1.next(D).Key;
    EXPECT_EQ(K1, S2.next(D).Key);
    DrawsDiffer |= K1 != S3.next(D).Key;
    Hot += K1 < Cfg.CacheCapacity;
  }
  EXPECT_TRUE(DrawsDiffer);
  EXPECT_GT(Hot, N * 2 / 5);
  EXPECT_LT(Hot, N * 3 / 5);
}

TEST(PerfbenchCounts, SingleDriverReplayCountsRepeatExactly) {
  const std::pair<WorkloadKind, size_t> Runs[] = {
      {WorkloadKind::Adhoc, 60},
      {WorkloadKind::Restart, 400},
      {WorkloadKind::Repeat, 46},
      {WorkloadKind::Adaptive, 12}};
  for (auto [K, N] : Runs) {
    SCOPED_TRACE(workloadName(K));
    ReplayCounts A = replayCounts(K, 21, N, WorkDir);
    ReplayCounts B = replayCounts(K, 21, N, WorkDir);
    EXPECT_TRUE(A.SpansOk);
    EXPECT_TRUE(B.SpansOk);
    EXPECT_GT(A.QirInsts, 0u);
    EXPECT_EQ(A.QirInsts, B.QirInsts);
    EXPECT_EQ(A.Rows, B.Rows);
    EXPECT_EQ(A.L1Hits, B.L1Hits);
    EXPECT_EQ(A.L1Misses, B.L1Misses);
    EXPECT_EQ(A.L1Evictions, B.L1Evictions);
    EXPECT_EQ(A.L2Hits, B.L2Hits);
    EXPECT_EQ(A.L2Misses, B.L2Misses);
    EXPECT_EQ(A.L2Stores, B.L2Stores);
    EXPECT_EQ(A.Compiles, B.Compiles);
    switch (K) {
    case WorkloadKind::Adhoc: // Every request misses L1 and compiles.
      EXPECT_EQ(A.L1Misses, N);
      EXPECT_EQ(A.Compiles, N);
      break;
    case WorkloadKind::Restart: // L1 evicts; L2 serves; nothing compiles.
      EXPECT_GT(A.L1Evictions, 0u);
      EXPECT_EQ(A.L2Hits, A.L1Misses);
      EXPECT_EQ(A.Compiles, 0u);
      break;
    case WorkloadKind::Repeat: // Warm L1.
      EXPECT_EQ(A.L1Hits, N);
      EXPECT_EQ(A.Compiles, 0u);
      break;
    case WorkloadKind::Adaptive: // The fast tier compiles every unit.
      EXPECT_GE(A.Compiles, N);
      break;
    }
  }
}

TEST(PerfbenchCounts, CodeBlobBytesRepeatExactly) {
  std::vector<uint64_t> Keys = {0, 1, 2, 3, 4, 5};
  Instance A(WorkloadKind::Adhoc, 4, std::string(WorkDir) + "/l2-a", false,
             false);
  Instance B(WorkloadKind::Adhoc, 4, std::string(WorkDir) + "/l2-b", false,
             false);
  for (uint64_t K = 0; K != Keys.size(); ++K) { // Issue the stream keys.
    A.Source->next(0);
    B.Source->next(0);
  }
  SweepResult SA = sweepTiers(A, Keys), SB = sweepTiers(B, Keys);
  EXPECT_EQ(SA.Mismatches, 0u);
  ASSERT_EQ(SA.Tiers.size(), SB.Tiers.size());
  for (size_t T = 0; T != SA.Tiers.size(); ++T) {
    EXPECT_EQ(SA.Tiers[T].Tier, SB.Tiers[T].Tier);
    EXPECT_EQ(SA.Tiers[T].BlobBytes, SB.Tiers[T].BlobBytes);
    EXPECT_EQ(SA.Tiers[T].BlobBytes > 0, SA.Tiers[T].Tier != "interp");
  }
}

TEST(PerfbenchOracle, WrongDigestIsCounted) {
  Instance I(WorkloadKind::Adhoc, 8, std::string(WorkDir) + "/l2-o", true,
             false);
  Record R;
  do
    R.Key = I.Source->next(0).Key;
  while (!sampleForOracle(I.Seed, R.Key));
  Outcome O = I.Sys->run(0, *I.Source->query(R.Key));
  ASSERT_TRUE(O.Ok);
  R.Ok = true;
  R.Digest = O.Digest;
  size_t Checked = 0;
  EXPECT_EQ(countMismatches(I, {R}, &Checked), 0u);
  EXPECT_EQ(Checked, 1u);
  R.Digest ^= 1;
  EXPECT_EQ(countMismatches(I, {R}), 1u);
  R.Ok = false; // Failed requests are counted as failures, not checked.
  EXPECT_EQ(countMismatches(I, {R}), 0u);
}

TEST(PerfbenchArithmetic, Quantile) {
  std::vector<uint64_t> V;
  EXPECT_EQ(quantile(V, 0.5), 0);
  V = {7};
  EXPECT_EQ(quantile(V, 0.99), 7);
  for (uint64_t I = 1; I != 101; ++I)
    V.push_back(I);
  V.erase(V.begin()); // 1..100
  EXPECT_DOUBLE_EQ(quantile(V, 0.5), 50.5);
  EXPECT_DOUBLE_EQ(quantile(V, 0.99), 99.01);
  EXPECT_DOUBLE_EQ(quantile(V, 1.0), 100);
  EXPECT_DOUBLE_EQ(quantile(V, 0.0), 1);
}

Span span(SpanKind K, uint32_t Parent, uint64_t Start, uint64_t End,
          bool Async = false) {
  Span S;
  S.Kind = K;
  S.Parent = Parent;
  S.StartNs = Start;
  S.EndNs = End;
  S.Async = Async;
  return S;
}

TEST(PerfbenchArithmetic, SelfTimesSumToTheRoot) {
  std::vector<Span> Spans = {
      span(SpanKind::Request, NoParent, 0, 100),
      span(SpanKind::Admit, 0, 0, 10),
      span(SpanKind::Exec, 0, 20, 90),
      span(SpanKind::Cache, 2, 25, 70),
      span(SpanKind::Compile, 3, 30, 60), // On a worker; the cache waits.
      span(SpanKind::Compile, 2, 40, 85, /*Async=*/true),
  };
  std::vector<uint64_t> Self;
  std::string Err;
  ASSERT_TRUE(computeSelfTimes(Spans, Self, &Err)) << Err;
  EXPECT_EQ(Self, (std::vector<uint64_t>{20, 10, 25, 15, 30, 45}));

  std::vector<Span> Overlap = Spans;
  Overlap[1].EndNs = 21; // Admit now overlaps Exec.
  EXPECT_FALSE(computeSelfTimes(Overlap, Self, &Err));
  std::vector<Span> Outside = Spans;
  Outside[4].EndNs = 75; // Compile outlives its cache lookup.
  EXPECT_FALSE(computeSelfTimes(Outside, Self, &Err));
  std::vector<Span> Orphan = Spans;
  Orphan[2].Parent = 4; // A parent recorded after its child.
  EXPECT_FALSE(computeSelfTimes(Orphan, Self, &Err));
}

TEST(PerfbenchArithmetic, TracedRequestSpansNest) {
  RequestTrace T(1, 2);
  uint32_t Root = T.open(SpanKind::Request);
  uint32_t E = T.open(SpanKind::Exec);
  EXPECT_EQ(T.innermost(), E);
  EXPECT_EQ(T.innermostOf(SpanKind::Request), Root);
  uint64_t Now = nowNs();
  T.add(span(SpanKind::Compile, E, Now, Now));
  T.close(E);
  T.close(Root);
  std::vector<uint64_t> Self;
  std::string Err;
  EXPECT_TRUE(computeSelfTimes(T.spans(), Self, &Err)) << Err;
}

} // namespace
