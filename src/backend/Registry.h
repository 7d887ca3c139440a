//===- backend/Registry.h - Back-end registry and adaptive mode -*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction of every QCF back-end by name, plus the adaptive back-end
/// (§III-C): compilation starts with low-latency DirectEmit; once a
/// function has executed a few times, a simple code-size heuristic decides
/// whether to recompile with MLVM-optimized, after which subsequent
/// executions use the optimized code. With a CompileService attached, the
/// optimizing recompile runs on a service worker at Background priority
/// and the swap goes through the one tier-swap protocol
/// (backend/TierSwap.h) — callers never stall on MLVM.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_REGISTRY_H
#define QCF_BACKEND_REGISTRY_H

#include "backend/Backend.h"
#include "backend/CompileService.h"
#include "backend/TierSwap.h"
#include "direct/DirectEmit.h"
#include "mlvm/Mlvm.h"
#include <atomic>
#include <deque>
#include <vector>

namespace qcf::backend {

/// Creates a back-end by its Table III name: "Interpreter", "Stencil",
/// "DirectEmit", "Craneline", "MLVM-cheap", "MLVM-opt", "GCC",
/// "Adaptive". \returns nullptr for unknown names.
std::unique_ptr<Backend> createBackend(const std::string &Name);

/// All Table III back-end names, in the paper's order.
std::vector<std::string> allBackendNames();

/// The adaptive back-end. compile() uses DirectEmit; callers then invoke
/// AdaptiveModule::noteExecution() after executions, which recompiles
/// with MLVM-opt when the size heuristic deems optimization beneficial.
/// Both tiers are members, shared by every module this back-end
/// compiles, so modules must not outlive their back-end. Under
/// db::ExecOptions::AdaptiveExec the executor runs the two tiers
/// directly (fastTier() -> optTier()) through its morsel-boundary swap.
class AdaptiveBackend : public Backend {
public:
  AdaptiveBackend() = default;
  explicit AdaptiveBackend(CompileService *Service) : Service(Service) {}

  using Backend::compile;

  std::string name() const override { return "Adaptive"; }
  std::unique_ptr<CompiledModule> compile(const qir::Module &M,
                                          const CompileOptions &Opts) override;

  Backend &fastTier() { return Fast; }
  Backend &optTier() { return Opt; }

  /// Size threshold above which optimized recompilation pays off.
  uint32_t PromoteSizeThreshold = 48;
  /// Executions before promotion is considered.
  uint32_t PromoteAfterRuns = 3;
  /// When non-null, promotions are submitted here (Background priority)
  /// instead of recompiling on the calling thread. Must outlive every
  /// module this back-end compiles.
  CompileService *Service = nullptr;

private:
  direct::DirectBackend Fast;
  /// MLVM keeps its per-compile state thread_local, so concurrent
  /// promotions of different modules may share this instance.
  mlvm::MlvmBackend Opt{mlvm::MlvmOptions::opt()};
};

/// The module the adaptive back-end hands out. Thread-safe: entry() is
/// one acquire load of the function's TierCell, and promotion publishes
/// every function's optimized TierEntry through a TierSwap, so exactly
/// one optimizing compile is ever submitted per module.
class AdaptiveModule : public CompiledModule {
public:
  /// \p Opt compiles the optimized tier and must outlive this module.
  /// \p Reg receives promotion metrics (count + submit-to-install
  /// latency); null means the process-wide registry.
  AdaptiveModule(const qir::Module &M, std::unique_ptr<CompiledModule> Fast,
                 Backend &Opt, uint32_t SizeThreshold, uint32_t RunsThreshold,
                 CompileService *Service = nullptr,
                 obs::MetricsRegistry *Reg = nullptr);

  void *entry(const std::string &Name) override;

  /// Records one execution of \p Name. Without a service this recompiles
  /// with the optimizing tier on the calling thread when the heuristic
  /// fires; with one it submits the recompile and returns immediately,
  /// and a later call installs it once it has landed. \returns true if
  /// the optimized tier was installed by this call.
  bool noteExecution(const std::string &Name);

  bool isPromoted() const { return Swap.landed(); }
  /// True while an optimizing recompile is queued or running.
  bool promotionPending() const { return Swap.inFlight(); }
  /// Blocks until an in-flight promotion (if any) has landed.
  void waitForPromotion() { install(Swap.wait()); }

private:
  /// Publishes \p Opt's entry for every function. \returns false for a
  /// null \p Opt (nothing landed for this caller).
  bool install(CompiledModule *Opt);

  struct FnTier {
    FnTier(std::string Name, void *FastFn)
        : Name(std::move(Name)),
          FastEntry{FastFn, TierFast, tierContract(this->Name)},
          Cell(&FastEntry) {}
    const std::string Name;
    const TierEntry FastEntry;
    TierEntry OptEntry; ///< Written once, by the installer, before publish.
    TierCell Cell;
    std::atomic<uint32_t> Runs{0};
  };
  FnTier *find(const std::string &Name);

  const qir::Module &M;
  std::unique_ptr<CompiledModule> Fast;
  Backend &Opt;
  uint32_t SizeThreshold, RunsThreshold;
  CompileService *Service;
  obs::MetricsRegistry *Reg;
  std::atomic<uint64_t> PromoteSubmitNs{0}; ///< When the recompile started.
  std::deque<FnTier> Fns;
  /// Last member: destroyed first, so a still-running recompile is
  /// settled before anything it could touch goes away.
  TierSwap Swap;
};

} // namespace qcf::backend

#endif // QCF_BACKEND_REGISTRY_H
