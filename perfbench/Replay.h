//===- perfbench/Replay.h - Entry points, plain and traced ------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two ways the benchmark sends a request into QCF:
///
///  - System: the real public entry points, untraced. serve::Server::execute
///    for the serving workloads; db::executeQuery with AdaptiveExec for the
///    adaptive one. End-to-end metrics come only from here.
///  - Replay: the same sequence of public calls Server::execute makes
///    (AdmissionGate, db::compileQuery, a CachingBackend over the same
///    CompileService and DiskCodeCache, db::executeQuery), with spans
///    around each call. The tier sits behind TierShim, a pass-through
///    Backend that times compile and deserialize; the cache sits behind
///    CacheShim, which times the lookup. A compile that runs on a service
///    worker is linked to its request by the module pointer the request
///    passed in.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_PERFBENCH_REPLAY_H
#define QCF_PERFBENCH_REPLAY_H

#include "Spans.h"
#include "Workload.h"
#include "backend/Cache.h"
#include "backend/CompileService.h"
#include "backend/DiskCache.h"
#include "db/Executor.h"
#include "serve/Server.h"
#include <atomic>
#include <unordered_map>

namespace perfbench {

/// What one request did, from either entry point. Not Ok means rejected,
/// trapped or cancelled.
struct Outcome {
  bool Ok = false;
  uint64_t Digest = 0;
  uint64_t Rows = 0;
  uint64_t QirInsts = 0; ///< Replay only: instructions in the plan module.
  qcf::db::QueryStats Stats; ///< Replay only.
};

/// The real entry points; see file comment.
class System {
public:
  /// Builds the entry point for \p Cfg over \p Cat. Serving workloads take
  /// their L2 from $QCF_CODE_CACHE, as a deployed Server does.
  System(const WorkloadConfig &Cfg, const qcf::db::Catalog &Cat);
  ~System();

  System(const System &) = delete;
  System &operator=(const System &) = delete;

  Outcome run(unsigned Driver, const qcf::db::Query &Q);

private:
  const WorkloadConfig Cfg;
  const qcf::db::Catalog &Cat;
  qcf::obs::MetricsRegistry Reg;
  std::unique_ptr<qcf::serve::Server> Srv; ///< Serving workloads.
  std::vector<uint64_t> Sessions;          ///< One per driver.
  // Adaptive workload.
  std::unique_ptr<qcf::backend::CompileService> Svc;
  std::unique_ptr<qcf::backend::Backend> Fast, Opt;
};

struct CacheCall;

/// Routes spans recorded inside back-ends to their requests.
class Tracer {
public:
  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> Unlinked{0}; ///< Spans no request could claim.

  void link(const void *Module, CacheCall *C);
  void unlink(const void *Module);
  CacheCall *find(const void *Module) const;

  void begin(RequestTrace *T);
  void end(RequestTrace *T);
  /// The only request in flight, or null (the adaptive workload has one
  /// driver, so its background compiles belong to the running request).
  RequestTrace *soleInFlight() const;

private:
  mutable std::mutex Mutex; ///< Guards Links and InFlight.
  std::unordered_map<const void *, CacheCall *> Links;
  std::vector<RequestTrace *> InFlight;
};

/// Pass-through back-end that records the tier's compile and deserialize
/// spans; see file comment.
class TierShim : public qcf::backend::Backend {
public:
  TierShim(std::unique_ptr<qcf::backend::Backend> Inner, Tracer &Tr);

  using Backend::compile;
  std::string name() const override { return Inner->name(); }
  std::string cacheConfig() const override;
  std::unique_ptr<qcf::backend::CompiledModule>
  compile(const qcf::qir::Module &M,
          const qcf::backend::CompileOptions &Opts) override;
  std::unique_ptr<qcf::backend::CompiledModule>
  deserialize(const uint8_t *Data, size_t Len) override;

private:
  std::unique_ptr<qcf::backend::Backend> Inner;
  Tracer &Tr;
  const char *Tier; ///< Metric prefix ("direct", "mlvm_opt", ...).
};

/// Pass-through back-end in front of a CachingBackend that records the
/// cache span and the fingerprint.
class CacheShim : public qcf::backend::Backend {
public:
  CacheShim(qcf::backend::CachingBackend &Cache, Tracer &Tr)
      : Cache(Cache), Tr(Tr) {}

  using Backend::compile;
  std::string name() const override { return Cache.name(); }
  std::unique_ptr<qcf::backend::CompiledModule>
  compile(const qcf::qir::Module &M,
          const qcf::backend::CompileOptions &Opts) override;

private:
  qcf::backend::CachingBackend &Cache;
  Tracer &Tr;
};

/// The traced mirror of System; see file comment.
class Replay {
public:
  /// \p Disk is the L2 (null = none) and must outlive this object.
  Replay(const WorkloadConfig &Cfg, const qcf::db::Catalog &Cat,
         qcf::backend::DiskCodeCache *Disk, qcf::obs::MetricsRegistry &Reg);
  ~Replay();

  Replay(const Replay &) = delete;
  Replay &operator=(const Replay &) = delete;

  /// Runs \p Q; records spans into \p T when tracing is enabled.
  Outcome run(const qcf::db::Query &Q, RequestTrace *T);

  Tracer &tracer() { return Tr; }
  qcf::backend::CompileService &service() { return *Svc; }
  /// Null for the adaptive workload, which has no cache.
  qcf::backend::CachingBackend *cache() { return Cache.get(); }

private:
  const WorkloadConfig Cfg;
  const qcf::db::Catalog &Cat;
  qcf::obs::MetricsRegistry &Reg;
  Tracer Tr;
  std::unique_ptr<qcf::backend::CompileService> Svc;
  std::unique_ptr<qcf::backend::CachingBackend> Cache; ///< Owns a TierShim.
  std::unique_ptr<CacheShim> Front;
  std::unique_ptr<qcf::serve::AdmissionGate> Gate;
  std::unique_ptr<TierShim> Fast, Opt; ///< Adaptive workload.
};

/// Metric prefix of a back-end name: "DirectEmit" -> "direct".
const char *tierPrefix(const std::string &BackendName);

/// Instructions over all functions of \p M.
uint64_t countInsts(const qcf::qir::Module &M);

} // namespace perfbench

#endif // QCF_PERFBENCH_REPLAY_H
