//===- perfbench/Bench.h - The benchmark's runs -----------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark run: set a workload up, drive it in a closed loop for a
/// fixed time, check every checked digest against the interpreter, and
/// print one JSON result line. The untraced run reports the end-to-end
/// metrics; the traced run reports the per-layer metrics (README.md lists
/// both, with the workload each should move).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_PERFBENCH_BENCH_H
#define QCF_PERFBENCH_BENCH_H

#include "Replay.h"
#include "Workload.h"
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  WorkloadKind Kind = WorkloadKind::Adhoc;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for L2 blobs and the span file; created if missing.
  std::string WorkDir = ".";
};

/// Runs the benchmark and prints its result line. \returns the exit code:
/// nonzero when a digest disagrees with the interpreter or a traced
/// request's spans do not nest.
int runBenchmark(const Options &O);

/// A workload, set up: data, request source, and the entry points.
struct Instance {
  Instance(WorkloadKind K, uint64_t Seed, std::string L2Dir, bool WithSystem,
           bool WithReplay);
  ~Instance();

  Instance(const Instance &) = delete;
  Instance &operator=(const Instance &) = delete;

  const WorkloadConfig Cfg;
  const uint64_t Seed;
  const std::string L2Dir; ///< Empty when the workload has no L2.
  std::unique_ptr<qcf::db::Catalog> Cat;
  std::unique_ptr<RequestSource> Source;
  std::unique_ptr<System> Sys;
  qcf::obs::MetricsRegistry ReplayReg;
  std::unique_ptr<qcf::backend::DiskCodeCache> ReplayDisk;
  std::unique_ptr<Replay> Rep;
};

/// One sent request as the driver saw it.
struct Record {
  uint64_t Key = 0;
  uint64_t EndNs = 0; ///< Completion, relative to the loop's start.
  uint64_t LatencyNs = 0;
  uint64_t Digest = 0;
  bool Ok = false;
};

/// Interpreter digests for the keys the oracle checks (sampled or all,
/// per WorkloadConfig::SampledOracle), compared with every record of
/// those keys. \returns the number of records that disagree.
size_t countMismatches(Instance &I, const std::vector<Record> &Records,
                       size_t *Checked = nullptr);

/// Table III on a workload's modules: per tier, mean compile and exec
/// time and serialized code size over \p Keys.
struct TierSweep {
  std::string Tier; ///< Metric prefix ("interp", "direct", ...).
  double CompileNs = 0, ExecNs = 0, BlobBytes = 0;
  /// Mean blocking compile+exec wall time (the static-tier oracle).
  double TotalNs = 0;
};
struct SweepResult {
  std::vector<TierSweep> Tiers;
  /// Adaptive workload: mean AdaptiveExec wall time minus the better
  /// static tier's (DirectEmit or MLVM-opt), per query.
  double RegretNs = 0;
  size_t Mismatches = 0; ///< Tier digests differing from the interpreter.
};
SweepResult sweepTiers(Instance &I, const std::vector<uint64_t> &Keys);

/// Counts of a single-driver traced replay of \p N requests; they repeat
/// exactly for a seed.
struct ReplayCounts {
  uint64_t QirInsts = 0, Rows = 0;
  uint64_t L1Hits = 0, L1Misses = 0, L1Evictions = 0;
  uint64_t L2Hits = 0, L2Misses = 0, L2Stores = 0;
  uint64_t Compiles = 0; ///< Tier compile spans.
  bool SpansOk = true;
};
ReplayCounts replayCounts(WorkloadKind K, uint64_t Seed, size_t N,
                          const std::string &WorkDir);

} // namespace perfbench

#endif // QCF_PERFBENCH_BENCH_H
