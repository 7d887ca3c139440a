//===- perfbench/Bench.cpp - The benchmark's runs -------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "backend/Registry.h"
#include "db/Codegen.h"
#include "support/TimeTrace.h"
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <sched.h>
#include <sys/resource.h>
#include <thread>

using namespace qcf;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

/// The tiers of the back-end sweep (the paper's Table III without GCC,
/// whose ~170 ms per query would dominate the run).
const char *const SweepTiers[] = {"Interpreter", "Stencil",    "DirectEmit",
                                  "Craneline",   "MLVM-cheap", "MLVM-opt"};

/// Setups per untraced run; setup_s is their median.
constexpr unsigned SetupRepeats = 5;
/// Length of one block of the traced run's A/B alternation.
constexpr double TraceBlockSec = 0.5;
/// Modules per workload in the back-end sweep, and repetitions of each.
constexpr size_t SweepQueries = 6;
constexpr unsigned SweepReps = 3;

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

size_t warmupRequests(const WorkloadConfig &Cfg) {
  switch (Cfg.Kind) {
  case WorkloadKind::Adhoc:
    return 32;
  case WorkloadKind::Repeat:
    return 0; // Warms every stock query instead; see Instance().
  case WorkloadKind::Restart:
    return Cfg.PoolSize;
  case WorkloadKind::Adaptive:
    return 8;
  }
  return 0;
}

/// Runs \p Fn on every warm-up request of \p I.
void warmUp(Instance &I, const std::function<void(const db::Query &)> &Fn) {
  if (I.Cfg.Kind == WorkloadKind::Repeat) {
    for (int Pass = 0; Pass != 2; ++Pass)
      for (uint64_t Key : I.Source->finiteKeys())
        Fn(*I.Source->query(Key));
    return;
  }
  for (size_t N = warmupRequests(I.Cfg); N; --N)
    Fn(*I.Source->next(0).Q);
}

using RunFn = std::function<Outcome(unsigned Driver, const Request &R)>;

struct LoopResult {
  std::vector<Record> Records;
  double WallSec = 0;
};

/// Drivers closed-loop clients for \p Seconds: each sends its next
/// request when the previous one returns. The latency is the driver's own
/// timestamp pair around the entry-point call; building the query's plan
/// tree happens before the first timestamp.
LoopResult closedLoop(RequestSource &Src, double Seconds, const RunFn &Fn) {
  std::vector<std::vector<Record>> Per(Drivers);
  std::vector<uint64_t> EndNs(Drivers, 0);
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  std::vector<std::thread> Threads;
  for (unsigned D = 0; D != Drivers; ++D)
    Threads.emplace_back([&, D] {
      std::vector<Record> &Out = Per[D];
      Out.reserve(1 << 14);
      while (nowNs() < Deadline) {
        Request R = Src.next(D);
        uint64_t T0 = nowNs();
        Outcome O = Fn(D, R);
        uint64_t T1 = nowNs();
        Out.push_back({R.Key, T1 - Start, T1 - T0, O.Digest, O.Ok});
      }
      EndNs[D] = nowNs();
    });
  for (std::thread &T : Threads)
    T.join();
  LoopResult L;
  for (std::vector<Record> &V : Per)
    L.Records.insert(L.Records.end(), V.begin(), V.end());
  L.WallSec = 1e-9 * double(*std::max_element(EndNs.begin(), EndNs.end()) -
                            Start);
  return L;
}

/// The interpreter's digest of \p Q, or nothing when it traps.
std::optional<uint64_t> interpDigest(const Instance &I, const db::Query &Q) {
  std::unique_ptr<backend::Backend> Interp =
      backend::createBackend("Interpreter");
  db::CompiledPlan Plan = db::compileQuery(Q, *I.Cat);
  rt::OutputBuffer Out;
  db::ExecResult ER = db::executeQuery(Plan, *Interp, *I.Cat, &Out);
  if (ER.Trapped || ER.Cancelled)
    return std::nullopt;
  return Out.unorderedDigest();
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Rusage {
  double CpuMs = 0;
  double MinFlt = 0;
  double CtxSw = 0;
  double MaxRssMb = 0;

  static Rusage now() {
    rusage U{};
    getrusage(RUSAGE_SELF, &U);
    Rusage R;
    R.CpuMs = (U.ru_utime.tv_sec + U.ru_stime.tv_sec) * 1e3 +
              (U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-3;
    R.MinFlt = double(U.ru_minflt);
    R.CtxSw = double(U.ru_nvcsw + U.ru_nivcsw);
    R.MaxRssMb = double(U.ru_maxrss) / 1024.0;
    return R;
  }
};

/// Keys of the back-end sweep: the first stream elements (the warm-up's
/// queries) or a seeded choice from the finite workloads.
std::vector<uint64_t> sweepKeys(const Instance &I) {
  std::vector<uint64_t> Keys = I.Source->finiteKeys();
  if (Keys.empty()) {
    for (uint64_t K = 0; K != SweepQueries; ++K)
      Keys.push_back(K);
    return Keys;
  }
  Rng R(mixSeed(I.Seed, 7));
  for (size_t J = Keys.size() - 1; J; --J)
    std::swap(Keys[J], Keys[R.nextBounded(J + 1)]);
  Keys.resize(std::min(Keys.size(), SweepQueries));
  return Keys;
}

/// End-to-end figures of one closed loop, each the median over the run's
/// whole seconds of that second's value: the completion rate (completions
/// after the second's first one, over the time since it), and the p50 and
/// p99 latency of the requests completing in it. A slow second then moves
/// one window, not the result.
struct WindowStats {
  double Qps = 0, P50Ns = 0, P99Ns = 0;
};

WindowStats windowStats(const std::vector<Record> &Records, size_t NumWindows,
                        uint64_t WindowNs = 1000000000) {
  struct Window {
    std::vector<uint64_t> Lat;
    uint64_t Completed = 0, FirstNs = UINT64_MAX, LastNs = 0;
  };
  std::vector<Window> Windows(NumWindows);
  for (const Record &R : Records) {
    uint64_t I = R.EndNs / WindowNs;
    if (I >= NumWindows)
      continue; // Finished after the last whole window.
    Window &W = Windows[I];
    W.Lat.push_back(R.LatencyNs);
    if (R.Ok) {
      ++W.Completed;
      W.FirstNs = std::min(W.FirstNs, R.EndNs);
      W.LastNs = std::max(W.LastNs, R.EndNs);
    }
  }
  std::vector<double> Qps, P50, P99;
  for (Window &W : Windows) {
    std::sort(W.Lat.begin(), W.Lat.end());
    if (W.Completed > 1)
      Qps.push_back(double(W.Completed - 1) * 1e9 /
                    double(W.LastNs - W.FirstNs));
    P50.push_back(quantile(W.Lat, 0.50));
    P99.push_back(quantile(W.Lat, 0.99));
  }
  return {median(Qps), median(P50), median(P99)};
}

int runUntraced(const Options &O, const std::string &L2Dir) {
  std::vector<double> SetupSec;
  std::unique_ptr<Instance> I;
  for (unsigned R = 0; R != SetupRepeats; ++R) {
    I.reset();
    uint64_t T0 = nowNs();
    I = std::make_unique<Instance>(O.Kind, O.Seed, L2Dir, true, false);
    SetupSec.push_back(1e-9 * double(nowNs() - T0));
  }

  LoopResult L = closedLoop(*I->Source, O.Seconds,
                            [&](unsigned D, const Request &R) {
                              return I->Sys->run(D, *R.Q);
                            });
  Rusage U = Rusage::now();

  size_t Checked = 0;
  size_t Mismatches = countMismatches(*I, L.Records, &Checked);
  uint64_t Ok = 0;
  for (const Record &R : L.Records)
    Ok += R.Ok;
  WindowStats WS = windowStats(
      L.Records, std::max<size_t>(static_cast<size_t>(O.Seconds), 1));
  WindowStats Pooled = windowStats(L.Records, 1, UINT64_MAX);
  uint64_t Failed = (L.Records.size() - Ok) + Mismatches;
  std::fprintf(stderr,
               "perfbench %s seed %" PRIu64 ": %zu requests in %.2f s "
               "(whole run: %.1f qps, p50 %.4f ms, p99 %.4f ms), %zu "
               "checked against the interpreter, %zu mismatches\n",
               workloadName(O.Kind), O.Seed, L.Records.size(), L.WallSec,
               Pooled.Qps, Pooled.P50Ns * 1e-6,
               Pooled.P99Ns * 1e-6, Checked, Mismatches);
  printResult(Mismatches == 0, L.Records.size(), Failed,
              {{"qps", WS.Qps, "1/s"},
               {"latency_p50_ms", WS.P50Ns * 1e-6, "ms"},
               {"latency_p99_ms", WS.P99Ns * 1e-6, "ms"},
               {"peak_rss_mb", U.MaxRssMb, "MB"},
               {"setup_s", median(SetupSec), "s"}});
  return Mismatches ? 1 : 0;
}

/// Span self times summed per metric over the traced requests.
struct LayerSums {
  std::map<std::string, double> Ns;
  size_t Requests = 0;
  size_t Broken = 0; ///< Requests whose spans failed the nesting check.

  void add(const RequestTrace &T) {
    std::vector<Span> Spans = T.spans();
    std::vector<uint64_t> Self;
    std::string Err;
    if (!computeSelfTimes(Spans, Self, &Err)) {
      if (Broken++ == 0)
        std::fprintf(stderr, "perfbench: request %" PRIu64 ": %s\n", T.Id,
                     Err.c_str());
      return;
    }
    ++Requests;
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::string Name = spanName(S);
      if (S.Kind == SpanKind::Request)
        Name = "serve.self";
      else if (S.Kind == SpanKind::Cache)
        Name = "backend.cache_self";
      uint64_t V = S.Async ? S.EndNs - S.StartNs : Self[I];
      Ns[Name + "_ns"] += double(V);
    }
  }

  double mean(const std::string &Name) const {
    auto It = Ns.find(Name);
    return It == Ns.end() || !Requests ? 0 : It->second / double(Requests);
  }
};

int runTraced(const Options &O, const std::string &L2Dir) {
  Instance I(O.Kind, O.Seed, L2Dir, true, true);
  Replay &Rep = *I.Rep;
  Rep.tracer().Enabled.store(true);

  backend::CacheStats Cache0 =
      Rep.cache() ? Rep.cache()->stats() : backend::CacheStats();
  backend::DiskCacheStats Disk0 =
      I.ReplayDisk ? I.ReplayDisk->stats() : backend::DiskCacheStats();
  obs::Histogram &LoadNs = I.ReplayReg.histogram("cache.disk.load_ns");
  uint64_t LoadCount0 = LoadNs.count(), LoadSum0 = LoadNs.sumNs();
  backend::CompileServiceStats Svc0 = Rep.service().stats();

  // Alternate untraced blocks on the real entry point (A) with traced
  // replay blocks (B), so drift lands on both sides of the overhead ratio.
  std::vector<std::vector<std::unique_ptr<RequestTrace>>> Traces(Drivers);
  std::atomic<uint64_t> NextId{0};
  std::vector<Record> All;
  double ASec = 0, BSec = 0;
  size_t AReqs = 0, BReqs = 0;
  Rusage AUse;
  uint64_t Insts = 0, Rows = 0, Swaps = 0, MorselsFast = 0, Morsels = 0;
  std::mutex SumMutex; ///< Guards the sums above across drivers.
  unsigned Blocks = std::max(2u, 2 * unsigned(O.Seconds / (2 * TraceBlockSec)));
  for (unsigned B = 0; B != Blocks; ++B) {
    LoopResult L;
    if (B % 2 == 0) {
      Rusage U0 = Rusage::now();
      L = closedLoop(*I.Source, TraceBlockSec,
                     [&](unsigned D, const Request &R) {
                       return I.Sys->run(D, *R.Q);
                     });
      Rusage U1 = Rusage::now();
      AUse.CpuMs += U1.CpuMs - U0.CpuMs;
      AUse.MinFlt += U1.MinFlt - U0.MinFlt;
      AUse.CtxSw += U1.CtxSw - U0.CtxSw;
      ASec += L.WallSec;
      AReqs += L.Records.size();
    } else {
      L = closedLoop(*I.Source, TraceBlockSec,
                     [&](unsigned D, const Request &R) {
                       auto T = std::make_unique<RequestTrace>(NextId++, R.Key);
                       Outcome Out = Rep.run(*R.Q, T.get());
                       Traces[D].push_back(std::move(T));
                       uint64_t Fast = 0, Total = 0;
                       for (const db::PipelineStats &P : Out.Stats.Pipelines) {
                         Fast += P.MorselsFast;
                         Total += P.Morsels;
                       }
                       std::lock_guard<std::mutex> Lock(SumMutex);
                       Insts += Out.QirInsts;
                       Rows += Out.Stats.RowsOut;
                       Swaps += Out.Stats.OsrSwaps;
                       MorselsFast += Fast;
                       Morsels += Total;
                       return Out;
                     });
      BSec += L.WallSec;
      BReqs += L.Records.size();
    }
    All.insert(All.end(), L.Records.begin(), L.Records.end());
  }
  Rep.tracer().Enabled.store(false);

  LayerSums Layers;
  std::string SpanPath =
      O.WorkDir + "/spans-" + workloadName(O.Kind) + ".jsonl";
  std::FILE *SpanFile = std::fopen(SpanPath.c_str(), "w");
  for (auto &PerDriver : Traces)
    for (const std::unique_ptr<RequestTrace> &T : PerDriver) {
      Layers.add(*T);
      if (SpanFile)
        writeSpans(*T, SpanFile);
    }
  if (SpanFile)
    std::fclose(SpanFile);

  backend::CacheStats Cache1 = Rep.cache() ? Rep.cache()->stats() : Cache0;
  backend::DiskCacheStats Disk1 = I.ReplayDisk ? I.ReplayDisk->stats() : Disk0;
  backend::CompileServiceStats Svc1 = Rep.service().stats();
  uint64_t L1Lookups = Cache1.lookups() - Cache0.lookups();
  uint64_t L2Lookups =
      (Disk1.Hits + Disk1.Misses) - (Disk0.Hits + Disk0.Misses);
  uint64_t Loads = LoadNs.count() - LoadCount0;
  auto rejected = [](const backend::CompileServiceStats &S) {
    return S.RejectedForeground + S.RejectedBackground + S.RejectedTenant;
  };
  uint64_t Rejected = rejected(Svc1) - rejected(Svc0);

  SweepResult Sweep = sweepTiers(I, sweepKeys(I));
  size_t Checked = 0;
  size_t Mismatches = countMismatches(I, All, &Checked);
  uint64_t Failed = Mismatches;
  for (const Record &R : All)
    Failed += !R.Ok;
  uint64_t Unlinked = Rep.tracer().Unlinked.load();
  bool Correct = Mismatches == 0 && Sweep.Mismatches == 0 &&
                 Layers.Broken == 0 && Unlinked == 0 && Layers.Requests > 0;
  std::fprintf(stderr,
               "perfbench %s seed %" PRIu64 " traced: %zu untraced + %zu "
               "traced requests, %zu traced with nested spans, %zu broken, "
               "%" PRIu64 " unlinked compiles, %zu checked, %zu + %zu "
               "mismatches; spans in %s\n",
               workloadName(O.Kind), O.Seed, AReqs, BReqs, Layers.Requests,
               Layers.Broken, Unlinked, Checked, Mismatches, Sweep.Mismatches,
               SpanPath.c_str());

  double PerReq = BReqs ? 1.0 / double(BReqs) : 0;
  double PerA = AReqs ? 1.0 / double(AReqs) : 0;
  auto ratio = [](uint64_t Num, uint64_t Den) {
    return Den ? double(Num) / double(Den) : 0.0;
  };
  std::vector<Metric> M = {
      {"db.codegen_ns", Layers.mean("db.codegen_ns"), "ns"},
      {"db.qir_insts", double(Insts) * PerReq, "count"},
      {"db.exec_ns", Layers.mean("db.exec_ns"), "ns"},
      {"db.rows_out", double(Rows) * PerReq, "count"},
      {"serve.admit_wait_ns", Layers.mean("serve.admit_wait_ns"), "ns"},
      {"serve.self_ns", Layers.mean("serve.self_ns"), "ns"},
      {"backend.fingerprint_ns", Layers.mean("backend.fingerprint_ns"), "ns"},
      {"backend.cache_self_ns", Layers.mean("backend.cache_self_ns"), "ns"},
      {"backend.l1_hit_ratio", ratio(Cache1.Hits - Cache0.Hits, L1Lookups),
       "ratio"},
      {"backend.l1_entries",
       Rep.cache() ? double(Rep.cache()->size()) : 0.0, "count"},
      {"backend.l1_evictions",
       double(Cache1.Evictions - Cache0.Evictions) * PerReq, "count"},
      {"backend.l2_hit_ratio", ratio(Disk1.Hits - Disk0.Hits, L2Lookups),
       "ratio"},
      {"backend.l2_load_ns", ratio(LoadNs.sumNs() - LoadSum0, Loads), "ns"},
      {"direct.deserialize_ns", Layers.mean("direct.deserialize_ns"), "ns"},
      {"backend.svc_queue_wait_ns", Layers.mean("backend.svc_queue_wait_ns"),
       "ns"},
      {"backend.svc_rejected", double(Rejected), "count"},
      {"direct.compile_ns", Layers.mean("direct.compile_ns"), "ns"},
      {"mlvm_opt.compile_ns", Layers.mean("mlvm_opt.compile_ns"), "ns"},
      {"db.osr_swaps", double(Swaps) * PerReq, "count"},
      {"db.osr_fast_share", ratio(MorselsFast, Morsels), "frac"},
      {"db.osr_regret_ns", Sweep.RegretNs, "ns"},
      {"proc.cpu_ms_per_query", AUse.CpuMs * PerA, "ms"},
      {"proc.minflt_per_query", AUse.MinFlt * PerA, "count"},
      {"proc.ctxsw_per_query", AUse.CtxSw * PerA, "count"},
      {"obs.trace_overhead_frac",
       ASec > 0 && BSec > 0 && AReqs
           ? 1.0 - (double(BReqs) / BSec) / (double(AReqs) / ASec)
           : 0.0,
       "frac"},
      {"failed_frac", ratio(Failed, All.size()), "frac"},
  };
  for (const TierSweep &T : Sweep.Tiers) {
    std::string P = "sweep." + T.Tier;
    M.push_back({P + ".compile_ns", T.CompileNs, "ns"});
    M.push_back({P + ".exec_ns", T.ExecNs, "ns"});
    M.push_back({P + ".code_blob_bytes", T.BlobBytes, "bytes"});
  }
  printResult(Correct, All.size(), Failed, M);
  return Correct ? 0 : 1;
}

} // namespace

// --- Instance ----------------------------------------------------------------

Instance::Instance(WorkloadKind K, uint64_t Seed, std::string Dir,
                   bool WithSystem, bool WithReplay)
    : Cfg(configFor(K)), Seed(Seed), L2Dir(Cfg.UsesL2 ? std::move(Dir) : "") {
  Cat = makeCatalog(Cfg);
  Source = std::make_unique<RequestSource>(Cfg, Seed);
  // Servers take their L2 from the environment, as deployed ones do.
  ::unsetenv("QCF_CODE_CACHE_BYTES");
  if (L2Dir.empty()) {
    ::unsetenv("QCF_CODE_CACHE");
  } else {
    fs::remove_all(L2Dir);
    fs::create_directories(L2Dir);
    ::setenv("QCF_CODE_CACHE", L2Dir.c_str(), 1);
  }
  if (Cfg.PrepopulateL2) {
    // A first server writes every pool query's code to L2 and goes away;
    // the measured server starts over the same directory.
    System Writer(Cfg, *Cat);
    for (uint64_t Key : Source->finiteKeys())
      Writer.run(0, *Source->query(Key));
  }
  if (WithSystem) {
    Sys = std::make_unique<System>(Cfg, *Cat);
    warmUp(*this, [this](const db::Query &Q) { Sys->run(0, Q); });
  }
  if (WithReplay) {
    if (!L2Dir.empty())
      ReplayDisk =
          std::make_unique<backend::DiskCodeCache>(L2Dir, 0, &ReplayReg);
    Rep = std::make_unique<Replay>(Cfg, *Cat, ReplayDisk.get(), ReplayReg);
    warmUp(*this, [this](const db::Query &Q) { Rep->run(Q, nullptr); });
  }
}

Instance::~Instance() {
  Rep.reset();
  ReplayDisk.reset();
  Sys.reset();
  if (!L2Dir.empty()) {
    std::error_code Ec;
    fs::remove_all(L2Dir, Ec);
  }
}

// --- Checks and the sweep ----------------------------------------------------

size_t countMismatches(Instance &I, const std::vector<Record> &Records,
                       size_t *Checked) {
  std::vector<uint64_t> Keys;
  for (const Record &R : Records)
    if (R.Ok && (!I.Cfg.SampledOracle || sampleForOracle(I.Seed, R.Key)))
      Keys.push_back(R.Key);
  std::sort(Keys.begin(), Keys.end());
  Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());

  // The interpreter is slow; spread the keys over a few threads.
  std::vector<std::optional<uint64_t>> Expected(Keys.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      for (size_t J; (J = Next++) < Keys.size();)
        Expected[J] = interpDigest(I, *I.Source->query(Keys[J]));
    });
  for (std::thread &T : Threads)
    T.join();

  size_t Bad = 0;
  for (const Record &R : Records) {
    auto It = std::lower_bound(Keys.begin(), Keys.end(), R.Key);
    if (!R.Ok || It == Keys.end() || *It != R.Key)
      continue;
    const std::optional<uint64_t> &E = Expected[It - Keys.begin()];
    Bad += !E || *E != R.Digest;
  }
  if (Checked)
    *Checked = Keys.size();
  return Bad;
}

SweepResult sweepTiers(Instance &I, const std::vector<uint64_t> &Keys) {
  constexpr size_t NumTiers = std::size(SweepTiers);
  SweepResult Res;
  std::vector<std::vector<double>> Compile(NumTiers), Exec(NumTiers),
      Total(NumTiers), Blob(NumTiers);
  std::vector<double> Regret;
  db::ExecOptions EO;
  const bool Adaptive = I.Cfg.Kind == WorkloadKind::Adaptive;
  backend::CompileService Svc(CompileWorkers);

  for (uint64_t Key : Keys) {
    std::shared_ptr<const db::Query> Q = I.Source->query(Key);
    db::CompiledPlan Plan = db::compileQuery(*Q, *I.Cat);
    std::vector<std::vector<double>> C(NumTiers), E(NumTiers), W(NumTiers);
    std::vector<double> A;
    std::optional<uint64_t> Ref;
    for (unsigned Rep = 0; Rep != SweepReps; ++Rep) {
      for (size_t T = 0; T != NumTiers; ++T) {
        std::unique_ptr<backend::Backend> BE =
            backend::createBackend(SweepTiers[T]);
        rt::OutputBuffer Out;
        uint64_t T0 = nowNs();
        db::ExecResult ER = db::executeQuery(Plan, *BE, *I.Cat, &Out, EO);
        W[T].push_back(double(nowNs() - T0));
        C[T].push_back(double(ER.Stats.CompileNs));
        E[T].push_back(double(ER.Stats.ExecNs));
        uint64_t D = Out.unorderedDigest();
        if (T == 0 && !Ref && !ER.Trapped)
          Ref = D; // The interpreter runs first: the reference.
        Res.Mismatches += ER.Trapped || ER.Cancelled || !Ref || D != *Ref;
      }
      if (Adaptive) {
        // The workload's own configuration: DirectEmit now, MLVM-opt in
        // the background, swapped in at a morsel boundary.
        std::unique_ptr<backend::Backend> Fast =
            backend::createBackend(I.Cfg.Tier);
        std::unique_ptr<backend::Backend> Opt =
            backend::createBackend(I.Cfg.OptTier);
        db::ExecOptions AO = EO;
        AO.AdaptiveExec = true;
        AO.FastBackend = Fast.get();
        AO.Service = &Svc;
        rt::OutputBuffer Out;
        uint64_t T0 = nowNs();
        db::ExecResult ER = db::executeQuery(Plan, *Opt, *I.Cat, &Out, AO);
        A.push_back(double(nowNs() - T0));
        Res.Mismatches +=
            ER.Trapped || !Ref || Out.unorderedDigest() != *Ref;
      }
    }
    double DirectNs = 0, OptNs = 0;
    for (size_t T = 0; T != NumTiers; ++T) {
      Compile[T].push_back(median(C[T]));
      Exec[T].push_back(median(E[T]));
      Total[T].push_back(median(W[T]));
      std::unique_ptr<backend::Backend> BE =
          backend::createBackend(SweepTiers[T]);
      std::unique_ptr<backend::CompiledModule> M = BE->compile(*Plan.Module);
      std::vector<uint8_t> Bytes;
      Blob[T].push_back(M->serialize(Bytes) ? double(Bytes.size()) : 0.0);
      if (SweepTiers[T] == I.Cfg.Tier)
        DirectNs = Total[T].back();
      if (SweepTiers[T] == I.Cfg.OptTier)
        OptNs = Total[T].back();
    }
    if (Adaptive)
      Regret.push_back(median(A) - std::min(DirectNs, OptNs));
  }
  Svc.shutdown();

  auto mean = [](const std::vector<double> &V) {
    double S = 0;
    for (double X : V)
      S += X;
    return V.empty() ? 0 : S / double(V.size());
  };
  for (size_t T = 0; T != NumTiers; ++T)
    Res.Tiers.push_back({tierPrefix(SweepTiers[T]), mean(Compile[T]),
                         mean(Exec[T]), mean(Blob[T]), mean(Total[T])});
  Res.RegretNs = mean(Regret);
  return Res;
}

ReplayCounts replayCounts(WorkloadKind K, uint64_t Seed, size_t N,
                          const std::string &WorkDir) {
  Instance I(K, Seed, WorkDir + "/l2-counts", false, true);
  Replay &Rep = *I.Rep;
  backend::CacheStats C0 =
      Rep.cache() ? Rep.cache()->stats() : backend::CacheStats();
  backend::DiskCacheStats D0 =
      I.ReplayDisk ? I.ReplayDisk->stats() : backend::DiskCacheStats();
  Rep.tracer().Enabled.store(true);
  ReplayCounts R;
  for (size_t J = 0; J != N; ++J) {
    Request Req = I.Source->next(0);
    RequestTrace T(J, Req.Key);
    Outcome O = Rep.run(*Req.Q, &T);
    R.QirInsts += O.QirInsts;
    R.Rows += O.Rows;
    std::vector<Span> Spans = T.spans();
    std::vector<uint64_t> Self;
    R.SpansOk &= computeSelfTimes(Spans, Self, nullptr);
    for (const Span &S : Spans)
      R.Compiles += S.Kind == SpanKind::Compile && !S.Async;
  }
  Rep.tracer().Enabled.store(false);
  R.SpansOk &= Rep.tracer().Unlinked.load() == 0;
  if (backend::CachingBackend *C = Rep.cache()) {
    backend::CacheStats C1 = C->stats();
    R.L1Hits = C1.Hits - C0.Hits;
    R.L1Misses = C1.Misses - C0.Misses;
    R.L1Evictions = C1.Evictions - C0.Evictions;
  }
  if (I.ReplayDisk) {
    backend::DiskCacheStats D1 = I.ReplayDisk->stats();
    R.L2Hits = D1.Hits - D0.Hits;
    R.L2Misses = D1.Misses - D0.Misses;
    R.L2Stores = D1.Stores - D0.Stores;
  }
  return R;
}

namespace {

/// Pins the process to the last CPU it may run on. Each workload's request
/// path is serial (the driver waits for its compile worker), or, for
/// adaptive, made so: its background compile then shares the CPU with
/// execution, as on a server whose cores are all busy. One CPU avoids
/// cross-CPU wake-ups, which on a VM cost throughput and most of the
/// run-to-run steadiness (see README.md).
void pinToOneCpu() {
  cpu_set_t Allowed;
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return;
  for (int C = CPU_SETSIZE - 1; C >= 0; --C)
    if (CPU_ISSET(C, &Allowed)) {
      cpu_set_t Pin;
      CPU_ZERO(&Pin);
      CPU_SET(C, &Pin);
      sched_setaffinity(0, sizeof(Pin), &Pin);
      return;
    }
}

} // namespace

int runBenchmark(const Options &O) {
  pinToOneCpu();
  fs::create_directories(O.WorkDir);
  std::string L2Dir = O.WorkDir + "/l2-" + workloadName(O.Kind);
  return O.Trace ? runTraced(O, L2Dir) : runUntraced(O, L2Dir);
}

} // namespace perfbench
