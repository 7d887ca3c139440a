//===- perfbench/Workload.h - Workloads and request generators --*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four serving-path workloads of the benchmark and the seeded request
/// generators behind them. Everything here is a pure function of the seed:
/// the same seed gives the same query stream and the same skewed draws over
/// the same data, so counts measured over a fixed number of requests repeat
/// exactly (Tests.cpp checks this).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_PERFBENCH_WORKLOAD_H
#define QCF_PERFBENCH_WORKLOAD_H

#include "db/Plan.h"
#include "db/Table.h"
#include "support/Rng.h"
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace perfbench {

enum class WorkloadKind { Adhoc, Repeat, Restart, Adaptive };

std::optional<WorkloadKind> parseWorkload(const std::string &Name);
const char *workloadName(WorkloadKind K);

/// How one workload drives the system. See README.md for why each
/// workload exists and which layers it stresses.
struct WorkloadConfig {
  WorkloadKind Kind = WorkloadKind::Adhoc;
  /// Serving tier; for Adaptive the tier execution starts on.
  std::string Tier = "DirectEmit";
  /// Adaptive only: the optimized tier compiled in the background.
  std::string OptTier;
  double Sf = 1.0;            ///< TPC-H scale factor (1.0 = ~6000 lineitems).
  bool WithTpcds = false;     ///< Also load the TPC-DS-like star schema.
  size_t CacheCapacity = 0;   ///< L1 entries (0 = unbounded).
  bool UsesL2 = false;        ///< Server has a DiskCodeCache.
  bool PrepopulateL2 = false; ///< Setup fills L2 with a first Server.
  size_t PoolSize = 0;        ///< Restart: distinct parameter sets.
  double PoolSkew = 0;        ///< Restart: Zipf theta over the pool.
  /// Adhoc/adaptive requests are checked against the interpreter when
  /// sampleForOracle() picks their key; the others check every key.
  bool SampledOracle = false;
};

WorkloadConfig configFor(WorkloadKind K);

/// Every workload runs one closed-loop driver, one executor thread (the
/// executor's default) and one compile worker, pinned to one CPU; see
/// README.md "Choices" for the steadiness this buys on a VM.
constexpr unsigned Drivers = 1;
constexpr unsigned CompileWorkers = 1;

/// Mixes \p Seed with \p Salt into an independent stream seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

/// Literal parameters of one instance of a TPC-H template, drawn
/// qgen-style: the template shape is fixed and only the constants vary,
/// so each distinct parameter set is a distinct QIR module.
struct QueryParams {
  uint32_t Template = 0;
  int32_t A = 0, B = 0, C = 0;

  /// Injective packing (each field fits its bit range by construction);
  /// used for the distinctness check.
  uint64_t key() const;
};

constexpr unsigned NumTemplates = 9;

/// Draws a template and its literals; the second form fixes the template.
QueryParams drawParams(qcf::Rng &R);
QueryParams drawParams(qcf::Rng &R, uint32_t Template);
qcf::db::Query makeQuery(const QueryParams &P);

/// An endless, deterministic stream of pairwise-distinct parameter sets:
/// a draw that repeats an earlier one is redrawn. next() is thread-safe;
/// element I is the same for every run with the same seed, whichever
/// driver thread happens to take it.
class DistinctStream {
public:
  explicit DistinctStream(uint64_t Seed) : R(Seed) {}

  /// Returns the next element and stores its index in \p Index.
  QueryParams next(uint64_t &Index);

  /// Element \p Index, which next() must already have produced.
  QueryParams at(uint64_t Index) const;

private:
  mutable std::mutex Mutex; ///< Guards everything below.
  qcf::Rng R;
  std::unordered_set<uint64_t> Seen;
  std::vector<QueryParams> History;
};

/// The restart workload's finite pool of distinct parameter sets and its
/// skewed request distribution.
class SkewedPool {
public:
  SkewedPool(uint64_t Seed, size_t Size, double Theta);

  size_t size() const { return Params.size(); }
  const QueryParams &params(size_t I) const { return Params[I]; }
  /// Draws a pool index: low indices are hot.
  size_t draw(qcf::Rng &R) const { return R.nextZipf(Params.size(), Theta); }

private:
  std::vector<QueryParams> Params;
  double Theta;
};

/// One request a driver sends: the query and the key naming it. Equal
/// keys mean equal queries (same digest expected).
struct Request {
  uint64_t Key = 0;
  std::shared_ptr<const qcf::db::Query> Q;
};

/// Produces each workload's request stream for any number of drivers.
class RequestSource {
public:
  RequestSource(const WorkloadConfig &Cfg, uint64_t Seed);

  /// The next request of driver \p Driver. Thread-safe for distinct
  /// drivers (each driver must be used by one thread at a time).
  Request next(unsigned Driver);

  /// The query named by \p Key (for the interpreter oracle and the
  /// back-end sweep). Keys of the fresh streams must have been issued.
  std::shared_ptr<const qcf::db::Query> query(uint64_t Key) const;

  /// Every key of the finite workloads (repeat, restart); empty for the
  /// fresh streams.
  std::vector<uint64_t> finiteKeys() const;

private:
  std::unique_ptr<DistinctStream> Stream;   ///< adhoc, adaptive
  std::unique_ptr<SkewedPool> Pool;         ///< restart
  std::vector<std::shared_ptr<const qcf::db::Query>> Fixed; ///< repeat/restart
  std::vector<qcf::Rng> DriverRng;          ///< One per driver.
};

/// Whether the oracle checks key \p Key of a sampled workload.
bool sampleForOracle(uint64_t Seed, uint64_t Key);

/// Generates the workload's tables with the generators' default seeds: the
/// data is fixed per scale factor, like dbgen output, and the benchmark
/// seed varies only the request stream.
std::unique_ptr<qcf::db::Catalog> makeCatalog(const WorkloadConfig &Cfg);

} // namespace perfbench

#endif // QCF_PERFBENCH_WORKLOAD_H
