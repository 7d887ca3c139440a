//===- backend/Registry.cpp - Back-end registry ----------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "backend/Registry.h"
#include "craneline/Craneline.h"
#include "gccjit/Gccjit.h"
#include "interp/Interp.h"
#include "stencil/Stencil.h"

using namespace qcf;
using namespace qcf::backend;

std::unique_ptr<Backend> backend::createBackend(const std::string &Name) {
  if (Name == "Interpreter")
    return std::make_unique<interp::InterpBackend>();
  if (Name == "DirectEmit")
    return std::make_unique<direct::DirectBackend>();
  if (Name == "Stencil")
    return std::make_unique<stencil::StencilBackend>();
  if (Name == "Craneline")
    return std::make_unique<craneline::CranelineBackend>();
  if (Name == "MLVM-cheap")
    return std::make_unique<mlvm::MlvmBackend>(mlvm::MlvmOptions::cheap());
  if (Name == "MLVM-opt")
    return std::make_unique<mlvm::MlvmBackend>(mlvm::MlvmOptions::opt());
  if (Name == "GCC")
    return std::make_unique<gccjit::GccBackend>();
  if (Name == "Adaptive")
    return std::make_unique<AdaptiveBackend>();
  return nullptr;
}

std::vector<std::string> backend::allBackendNames() {
  return {"Interpreter", "Stencil",  "DirectEmit", "Craneline",
          "MLVM-cheap",  "MLVM-opt", "GCC"};
}

AdaptiveModule::AdaptiveModule(const qir::Module &M,
                               std::unique_ptr<CompiledModule> Fast,
                               Backend &Opt, uint32_t SizeThreshold,
                               uint32_t RunsThreshold, CompileService *Service,
                               obs::MetricsRegistry *Reg)
    : M(M), Fast(std::move(Fast)), Opt(Opt), SizeThreshold(SizeThreshold),
      RunsThreshold(RunsThreshold), Service(Service),
      Reg(Reg ? Reg : &obs::MetricsRegistry::global()) {
  for (const auto &F : M.functions())
    Fns.emplace_back(F->name(), this->Fast->entry(F->name()));
}

AdaptiveModule::FnTier *AdaptiveModule::find(const std::string &Name) {
  for (FnTier &F : Fns)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

void *AdaptiveModule::entry(const std::string &Name) {
  FnTier *F = find(Name);
  return F ? F->Cell.load()->Fn : nullptr;
}

bool AdaptiveModule::install(CompiledModule *OptMod) {
  if (!OptMod)
    return false;
  // A function the optimized tier lacks stays on its fast entry (the
  // cell refuses an entry without code).
  for (FnTier &F : Fns) {
    F.OptEntry =
        TierEntry{OptMod->entry(F.Name), TierOpt, F.FastEntry.Contract};
    F.Cell.publish(&F.OptEntry);
  }
  // Promotion observability: how often tiers swap, and how long a
  // function stays on the fast tier after the heuristic fires.
  Reg->counter("adaptive.promotions").inc();
  if (uint64_t T0 = PromoteSubmitNs.load(std::memory_order_relaxed))
    Reg->histogram("adaptive.promote.ns").observe(nowNs() - T0);
  return true;
}

bool AdaptiveModule::noteExecution(const std::string &Name) {
  if (Swap.inFlight())
    return install(Swap.poll());
  FnTier *F = find(Name);
  if (isPromoted() || !F ||
      F->Runs.fetch_add(1, std::memory_order_relaxed) + 1 < RunsThreshold)
    return false;
  // Size/benefit heuristic (§III-C): recompile large functions only.
  const qir::Function *QF = M.functionByName(Name);
  if (!QF || QF->sizeHeuristic() < SizeThreshold)
    return false;
  // Only the first caller past the threshold claims the swap; with a
  // service the compile runs on a worker and callers keep executing the
  // fast tier. An inline (no service) or degraded (post-shutdown) compile
  // has already landed, so install right away instead of on a later call.
  PromoteSubmitNs.store(nowNs(), std::memory_order_relaxed);
  Swap.submit(Service, M, Opt);
  return install(Swap.poll());
}

std::unique_ptr<CompiledModule>
AdaptiveBackend::compile(const qir::Module &M, const CompileOptions &Opts) {
  // The fast-tier compile runs under the caller's full ObsContext (its
  // phases appear as compile.DirectEmit.*); the Adaptive wrapper itself
  // adds no phases, so no CompileObs of its own — only promotion metrics,
  // which AdaptiveModule reports as they happen.
  return std::make_unique<AdaptiveModule>(M, Fast.compile(M, Opts), Opt,
                                          PromoteSizeThreshold,
                                          PromoteAfterRuns, Service,
                                          Opts.Obs.Metrics);
}
