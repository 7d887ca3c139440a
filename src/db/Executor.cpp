//===- db/Executor.cpp - Morsel-driven query execution ---------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "db/Executor.h"
#include "backend/Registry.h"
#include "backend/TierSwap.h"
#include "qir/Clone.h"
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <optional>
#include <thread>

using namespace qcf;
using namespace qcf::db;
using backend::TierCell;
using backend::TierEntry;

namespace {

/// How one runPipeline call fanned out; lands in PipelineStats.
struct PipelineRunInfo {
  unsigned Workers = 1;
  uint64_t MinWorkerMorsels = 0;
  uint64_t Morsels = 0;
  uint64_t TierMorsels[2] = {0, 0}; ///< Indexed by TierEntry::Tier.
  uint64_t TierRows[2] = {0, 0};
  uint64_t TierNs[2] = {0, 0};
};

/// Per-worker morsel accounting, merged after the join. Owned by the
/// QueryRuntime (not the runPipeline frame) so a trap's longjmp on the
/// serial path cannot leak it.
struct WorkerAcct {
  uint64_t Morsels = 0;
  uint64_t TierMorsels[2] = {0, 0};
  uint64_t TierRows[2] = {0, 0};
  uint64_t TierNs[2] = {0, 0};
};

/// Signature of every compiled pipeline entry point: scan [Begin, End) of
/// the pipeline's source with all cross-morsel state behind Ctx.
using PipeFn = void (*)(void *Ctx, int64_t Begin, int64_t End);

/// The swap policy of one pipeline on top of its TierSwap: when to take
/// the optimized tier, whether to publish it into the TierCell, and the
/// outcome stats. atPickup is called by every worker at every morsel
/// pickup; once the swap has settled (landed, cancelled, or never
/// submitted) it is a single acquire flag check.
struct OsrDriver {
  OsrDriver(TierCell &Cell, backend::TierSwap &Swap, std::string FnName,
            uint64_t Contract, const ExecOptions &Opts)
      : Cell(Cell), Swap(Swap), FnName(std::move(FnName)), Contract(Contract),
        ForceMorsel(Opts.OsrForceSwapMorsel),
        MinRowsRemaining(Opts.OsrMinRowsRemaining),
        MorselSize(Opts.MorselSize), Inert(!Swap.inFlight()) {}

  /// Worker-side hook, invoked before executing global morsel \p Idx of
  /// a pipeline over \p Rows source rows.
  void atPickup(uint64_t Idx, uint64_t Rows) {
    if (!Swap.inFlight())
      return;
    int64_t I = static_cast<int64_t>(Idx);
    if (I < ForceMorsel)
      return;
    backend::CompiledModule *Opt;
    if (I == ForceMorsel) {
      // Deterministic cutover: block on the compile so morsel ForceMorsel
      // is the first to run optimized code (exact when single-threaded;
      // parallel workers keep draining fast-tier morsels meanwhile).
      uint64_t W0 = nowNs();
      Opt = Swap.wait();
      WaitNs.fetch_add(nowNs() - W0, std::memory_order_relaxed);
    } else {
      Opt = Swap.poll();
    }
    if (Opt)
      install(Opt, Idx, Rows);
  }

  TierCell &Cell;
  backend::TierSwap &Swap;
  const std::string FnName;
  const uint64_t Contract;
  const int64_t ForceMorsel;
  const uint64_t MinRowsRemaining;
  const uint64_t MorselSize;
  const bool Inert; ///< No optimized compile was accepted for this pipeline.

  /// Swap target. Written by the one worker that received the landed
  /// module, strictly before the release store in Cell.publish(); the
  /// code itself stays pinned by Swap.
  TierEntry OptEntry;
  backend::CompiledModule *OptModule = nullptr;

  std::atomic<bool> Installed{false};
  std::atomic<bool> SkippedPolicy{false};
  std::atomic<bool> Mismatch{false};
  std::atomic<int64_t> SwapMorsel{-1};
  std::atomic<uint64_t> SwapNs{0};
  std::atomic<uint64_t> WaitNs{0};

private:
  /// Publishes the optimized tier, or records why not. Runs at most once:
  /// only one caller ever receives the landed module.
  void install(backend::CompiledModule *Opt, uint64_t Idx, uint64_t Rows) {
    // Rows-remaining policy: rows at or after this morsel. The swap
    // itself is one atomic store, so the default threshold of 1
    // publishes whenever any work remains.
    uint64_t Claimed = std::min(Rows, Idx * MorselSize);
    if (Rows - Claimed < MinRowsRemaining) {
      SkippedPolicy.store(true, std::memory_order_relaxed);
      return;
    }
    OptModule = Opt;
    OptEntry = TierEntry{Opt->entry(FnName), backend::TierOpt, Contract};
    if (!Cell.publish(&OptEntry)) {
      Mismatch.store(true, std::memory_order_relaxed);
      return;
    }
    SwapMorsel.store(static_cast<int64_t>(Idx), std::memory_order_relaxed);
    SwapNs.store(nowNs(), std::memory_order_relaxed);
    Installed.store(true, std::memory_order_release);
  }
};

/// Runs one pipeline over [0, Rows), morsel-parallel when allowed. With
/// \p Osr attached the loop always goes morsel-by-morsel (even single-
/// threaded) so every morsel boundary is a potential cutover point, and
/// each worker re-reads the entry from \p Cell at every pickup.
PipelineRunInfo runPipeline(TierCell &Cell, void *Ctx, uint64_t Rows,
                            bool Parallel, const ExecOptions &Opts,
                            OsrDriver *Osr, std::vector<WorkerAcct> &Acct) {
  ExecControl *Ctl = Opts.Control;
  // With a cancellation token attached the loop always goes morsel-by-
  // morsel (like OSR), so a cancel or deadline takes effect within one
  // morsel instead of one whole pipeline.
  if (!Osr && !Ctl &&
      (!Parallel || Opts.NumThreads <= 1 || Rows < Opts.MorselSize * 2)) {
    const TierEntry *E = Cell.load();
    reinterpret_cast<PipeFn>(E->Fn)(Ctx, 0, static_cast<int64_t>(Rows));
    PipelineRunInfo R{1, 1};
    R.Morsels = 1;
    R.TierMorsels[E->Tier & 1] = 1;
    R.TierRows[E->Tier & 1] = Rows;
    return R;
  }

  uint64_t NumMorsels = (Rows + Opts.MorselSize - 1) / Opts.MorselSize;
  if (NumMorsels == 0)
    return {1, 0};
  // Cap the fan-out at the morsel supply: spawning NumThreads - 1 workers
  // unconditionally creates threads whose only act is to observe the
  // cursor past Rows and exit. Each worker is pre-assigned its first
  // morsel statically (worker T starts at T * MorselSize) and the shared
  // cursor starts past the pre-assigned region, so every spawned thread
  // runs at least one morsel by construction, not by scheduling luck.
  unsigned Workers = 1;
  if (Parallel && Opts.NumThreads > 1)
    Workers =
        static_cast<unsigned>(std::min<uint64_t>(Opts.NumThreads, NumMorsels));
  std::atomic<uint64_t> Next{static_cast<uint64_t>(Workers) * Opts.MorselSize};
  Acct.assign(Workers, WorkerAcct());
  auto Worker = [&](unsigned T) {
    WorkerAcct &A = Acct[T];
    uint64_t Begin = static_cast<uint64_t>(T) * Opts.MorselSize;
    while (Begin < Rows) {
      uint64_t Idx = Begin / Opts.MorselSize;
      // Cancellation check at the same morsel-pickup boundary the OSR
      // hook uses: unclaimed morsels stay unclaimed, claimed ones are
      // never torn.
      if (Ctl && Ctl->stopped())
        break;
      if (Osr)
        Osr->atPickup(Idx, Rows);
      // Re-read the entry at every pickup — including the statically
      // pre-assigned first morsel, so a swap landing between spawn and
      // first pickup is honored rather than missed (the entry is never
      // captured at spawn time).
      const TierEntry *E = Cell.load();
      uint64_t End = std::min(Rows, Begin + Opts.MorselSize);
      uint64_t T0 = Osr ? nowNs() : 0;
      reinterpret_cast<PipeFn>(E->Fn)(Ctx, static_cast<int64_t>(Begin),
                                      static_cast<int64_t>(End));
      unsigned Tier = E->Tier & 1;
      ++A.Morsels;
      ++A.TierMorsels[Tier];
      A.TierRows[Tier] += End - Begin;
      if (Osr)
        A.TierNs[Tier] += nowNs() - T0;
      Begin = Next.fetch_add(Opts.MorselSize);
    }
  };
  if (Workers == 1) {
    Worker(0);
  } else {
    std::vector<std::thread> Threads;
    for (unsigned T = 1; T < Workers; ++T)
      Threads.emplace_back(Worker, T);
    Worker(0);
    for (std::thread &T : Threads)
      T.join();
  }

  PipelineRunInfo R;
  R.Workers = Workers;
  R.MinWorkerMorsels = Acct[0].Morsels;
  for (const WorkerAcct &A : Acct) {
    R.MinWorkerMorsels = std::min(R.MinWorkerMorsels, A.Morsels);
    R.Morsels += A.Morsels;
    for (int I = 0; I != 2; ++I) {
      R.TierMorsels[I] += A.TierMorsels[I];
      R.TierRows[I] += A.TierRows[I];
      R.TierNs[I] += A.TierNs[I];
    }
  }
  return R;
}

/// What one pipeline resolves to before its morsel loop runs: the entry
/// cell workers re-read, an optional swap driver, and the module entries
/// (sort comparator) resolve against.
struct ResolvedCode {
  TierCell *Cell = nullptr;
  OsrDriver *Osr = nullptr;
  backend::CompiledModule *Module = nullptr;
};

/// Per-query runtime state shared by the blocking, async, and adaptive
/// paths.
struct QueryRuntime {
  QueryRuntime(const CompiledPlan &Plan, const Catalog &Cat,
               rt::OutputBuffer *Out)
      : Plan(Plan), Cat(Cat), Ctx(Plan.NumCtxSlots, 0),
        Tables(Plan.Objects.size()), Buffers(Plan.Objects.size()) {
    Ctx[0] = reinterpret_cast<uint64_t>(Out);
    Ctx[1] = reinterpret_cast<uint64_t>(&QueryArena);
  }

  /// Source row count of pipeline \p P.
  uint64_t sourceRows(const PipelineDesc &P) const {
    switch (P.Src) {
    case PipelineDesc::Source::TableScan: {
      const Table *T = Cat.find(P.SourceTable);
      assert(T && "unknown table at execution");
      return T->numRows();
    }
    case PipelineDesc::Source::HtScan:
      return Tables[P.SourceObject]->count();
    case PipelineDesc::Source::SortedScan: {
      const RuntimeObject &Obj = Plan.Objects[P.SourceObject];
      uint64_t Count = Ctx[Obj.CountSlot];
      if (Obj.Limit && Count > Obj.Limit)
        Count = Obj.Limit;
      return Count;
    }
    }
    QCF_UNREACHABLE("invalid pipeline source");
  }

  /// Creates the runtime objects pipeline \p PI fills.
  void createObjects(size_t PI) {
    const PipelineDesc &P = Plan.Pipelines[PI];
    for (size_t OI = 0; OI != Plan.Objects.size(); ++OI) {
      const RuntimeObject &Obj = Plan.Objects[OI];
      if (Obj.ProducerPipeline != static_cast<int>(PI))
        continue;
      uint64_t Expected = sourceRows(P);
      if (Obj.K == RuntimeObject::Kind::SortBuffer) {
        Buffers[OI] =
            std::make_unique<uint8_t[]>((Expected + 1) * Obj.RowStride);
        Ctx[Obj.Slot] = reinterpret_cast<uint64_t>(Buffers[OI].get());
        Ctx[Obj.CountSlot] = 0;
      } else {
        Tables[OI] = std::make_unique<rt::HashTable>(
            Expected, static_cast<uint32_t>(Obj.PayloadBytes));
        Ctx[Obj.Slot] = reinterpret_cast<uint64_t>(Tables[OI].get());
      }
    }
  }

  /// Runs every pipeline, resolving code through \p Resolve (which may
  /// block — e.g. waiting for that pipeline's compile ticket — and
  /// returns the pipeline's entry cell, optional swap driver, and
  /// comparator source). Fills PipeStats with per-pipeline rows, wall
  /// time, and morsel/tier accounting, and emits one timeline slice per
  /// pipeline when a sink is attached.
  template <typename ResolveFn>
  rt::TrapCode runAllImpl(const ExecOptions &Opts, ResolveFn Resolve) {
    PipeStats.resize(Plan.Pipelines.size());
    ExecControl *Ctl = Opts.Control;
    return rt::runWithTrapGuard([&] {
      for (size_t PI = 0; PI != Plan.Pipelines.size(); ++PI) {
        const PipelineDesc &P = Plan.Pipelines[PI];
        if (Ctl && Ctl->stopped()) {
          CancelObserved = true;
          break;
        }
        createObjects(PI);

        // A null cell from Resolve means "stop now": the query was
        // cancelled while waiting on this pipeline's compile.
        ResolvedCode RC = Resolve(PI);
        if (!RC.Cell) {
          CancelObserved = true;
          break;
        }
        uint64_t Rows = sourceRows(P);
        uint64_t StartNs = nowNs();
        PipelineRunInfo Run = runPipeline(*RC.Cell, Ctx.data(), Rows,
                                          P.ParallelSafe, Opts, RC.Osr,
                                          AcctScratch);

        // Sort step after a materialization pipeline. The comparator
        // resolves through the current tier (an installed swap covers it
        // too: the sliced unit carries the comparator alongside the
        // pipeline function).
        if (P.SortObject >= 0) {
          const RuntimeObject &Obj = Plan.Objects[P.SortObject];
          void *Cmp = nullptr;
          if (RC.Osr && RC.Osr->Installed.load(std::memory_order_acquire))
            Cmp = RC.Osr->OptModule->entry(Obj.CmpFnName);
          if (!Cmp)
            Cmp = RC.Module->entry(Obj.CmpFnName);
          assert(Cmp && "missing comparator entry point");
          rt_sort(reinterpret_cast<void *>(Ctx[Obj.Slot]), Ctx[Obj.CountSlot],
                  Obj.RowStride, Cmp);
        }

        uint64_t DurNs = nowNs() - StartNs;
        PipelineStats &S = PipeStats[PI];
        S.Rows = Rows;
        S.ExecNs = DurNs;
        S.Workers = Run.Workers;
        S.MinWorkerMorsels = Run.MinWorkerMorsels;
        S.Morsels = Run.Morsels;
        S.MorselsFast = Run.TierMorsels[backend::TierFast];
        S.MorselsOpt = Run.TierMorsels[backend::TierOpt];
        S.RowsFast = Run.TierRows[backend::TierFast];
        S.RowsOpt = Run.TierRows[backend::TierOpt];
        S.NsFast = Run.TierNs[backend::TierFast];
        S.NsOpt = Run.TierNs[backend::TierOpt];
        if (obs::TraceSink *Sink = Opts.Obs.Sink)
          Sink->completeEvent("db.pipeline." + P.FnName, "exec", StartNs,
                              DurNs);
        // Workers break out of the morsel loop when the token fires; a
        // pipeline interrupted that way must not feed partial state into
        // the next one. Both signals are monotonic, so re-checking here
        // observes everything any worker observed.
        if (Ctl && Ctl->stopped()) {
          CancelObserved = true;
          break;
        }
      }
    });
  }

  /// Module-per-pipeline form used by the blocking and async paths: one
  /// static entry per pipeline, no swap driver. \p ModuleFor returning
  /// null stops the query (cancelled while waiting on that compile).
  rt::TrapCode
  runAll(const ExecOptions &Opts,
         const std::function<backend::CompiledModule *(size_t)> &ModuleFor) {
    return runAllImpl(Opts, [&](size_t PI) -> ResolvedCode {
      const PipelineDesc &P = Plan.Pipelines[PI];
      backend::CompiledModule *CM = ModuleFor(PI);
      if (!CM)
        return ResolvedCode{};
      void *Fn = CM->entry(P.FnName);
      assert(Fn && "missing pipeline entry point");
      StaticEntries.push_back(
          TierEntry{Fn, backend::TierFast,
                    backend::tierContract(P.FnName, Plan.NumCtxSlots)});
      StaticCells.emplace_back(&StaticEntries.back());
      return ResolvedCode{&StaticCells.back(), nullptr, CM};
    });
  }

  const CompiledPlan &Plan;
  const Catalog &Cat;
  std::vector<uint64_t> Ctx;
  Arena QueryArena;
  std::vector<std::unique_ptr<rt::HashTable>> Tables;
  std::vector<std::unique_ptr<uint8_t[]>> Buffers;
  std::vector<PipelineStats> PipeStats;
  /// The query's ExecControl fired (or Resolve signalled a cancelled
  /// compile wait) and the pipeline loop stopped early.
  bool CancelObserved = false;
  /// Stable storage for per-pipeline entries/cells (deques: growth never
  /// moves elements a running pipeline still reads).
  std::deque<TierEntry> StaticEntries;
  std::deque<TierCell> StaticCells;
  std::vector<WorkerAcct> AcctScratch;
};

/// Publishes the always-on structural query metrics and the spanning
/// timeline slice, and mirrors QueryStats into the legacy seconds fields.
void finishQuery(const ExecOptions &Opts, ExecResult &Result,
                 rt::OutputBuffer *Out, uint64_t RowsBefore,
                 uint64_t QueryStartNs) {
  QueryStats &S = Result.Stats;
  S.RowsOut = Out ? Out->numRows() - RowsBefore : 0;
  Result.CompileSec = 1e-9 * (Opts.AsyncCompile ? S.AsyncStallNs : S.CompileNs);
  Result.ExecSec = 1e-9 * S.ExecNs;

  obs::MetricsRegistry &Reg = Opts.Obs.registry();
  Reg.counter("db.queries").inc();
  Reg.counter("db.query.rows").add(S.RowsOut);
  Reg.histogram("db.query.exec_ns").observe(S.ExecNs);
  if (Opts.AsyncCompile)
    Reg.histogram("db.query.async_stall_ns").observe(S.AsyncStallNs);
  else
    Reg.histogram("db.query.compile_ns").observe(S.CompileNs);
  if (Result.Trapped)
    Reg.counter("db.query.traps").inc();
  if (Result.Cancelled)
    Reg.counter("db.query.cancelled").inc();

  if (obs::TraceSink *Sink = Opts.Obs.Sink) {
    Sink->completeEvent("db.query", "exec", QueryStartNs,
                        nowNs() - QueryStartNs);
    if (Result.Trapped)
      Sink->instantEvent("db.trap", "exec");
  }
}

/// Slices \p Plan into one module per pipeline: the pipeline function plus
/// the comparator of the object it sorts. \returns empty if some function
/// is not claimed by any pipeline (unknown shape: caller falls back to
/// whole-module compilation).
std::vector<std::unique_ptr<qir::Module>>
slicePlanModules(const CompiledPlan &Plan) {
  std::vector<std::unique_ptr<qir::Module>> Units;
  size_t Claimed = 0;
  for (const PipelineDesc &P : Plan.Pipelines) {
    auto Unit = std::make_unique<qir::Module>();
    qir::cloneSymbols(*Plan.Module, *Unit);
    const qir::Function *Fn = Plan.Module->functionByName(P.FnName);
    if (!Fn)
      return {};
    qir::cloneFunctionInto(*Fn, *Unit);
    ++Claimed;
    if (P.SortObject >= 0) {
      const qir::Function *Cmp =
          Plan.Module->functionByName(Plan.Objects[P.SortObject].CmpFnName);
      if (!Cmp)
        return {};
      qir::cloneFunctionInto(*Cmp, *Unit);
      ++Claimed;
    }
    Units.push_back(std::move(Unit));
  }
  if (Claimed != Plan.Module->functions().size())
    return {};
  return Units;
}

ExecResult executeQueryAsync(const CompiledPlan &Plan, backend::Backend &BE,
                             const Catalog &Cat, rt::OutputBuffer *Out,
                             const ExecOptions &Opts) {
  std::vector<std::unique_ptr<qir::Module>> Units = slicePlanModules(Plan);
  if (Units.empty()) {
    // Unsliceable plan: degrade to the blocking path.
    ExecOptions Sync = Opts;
    Sync.AsyncCompile = false;
    return executeQuery(Plan, BE, Cat, Out, Sync);
  }

  uint64_t QueryStartNs = nowNs();
  uint64_t RowsBefore = Out ? Out->numRows() : 0;
  backend::CompileOptions CO{Opts.Obs};
  CO.Cancel = Opts.Control;
  CO.Mem = Opts.CompileMem;
  CO.FairnessKey = Opts.CompileFairnessKey;

  // Units must outlive the service (running jobs reference them), so the
  // transient service is declared after them.
  std::optional<backend::CompileService> Local;
  backend::CompileService *Svc = Opts.Service;
  if (!Svc) {
    Local.emplace(Opts.AsyncCompileWorkers ? Opts.AsyncCompileWorkers : 1);
    Svc = &*Local;
  }

  // Submit everything up front, in execution order: workers compile ahead
  // while earlier pipelines execute. A Rejected submission (shared
  // bounded service under a storm) leaves an invalid ticket; that unit
  // falls back to an inline compile when its pipeline starts.
  std::vector<backend::CompileTicket> Tickets;
  Tickets.reserve(Units.size());
  for (auto &U : Units)
    Tickets.push_back(
        Svc->submit(*U, BE, backend::CompilePriority::Foreground, CO).Ticket);

  ExecResult Result;
  QueryRuntime RT(Plan, Cat, Out);
  std::vector<std::shared_ptr<backend::CompiledModule>> Compiled(Units.size());

  ExecControl *Ctl = Opts.Control;
  std::vector<uint64_t> StallNs(Units.size(), 0);
  uint64_t ExecStartNs = nowNs();
  rt::TrapCode Code = RT.runAll(Opts, [&](size_t PI) -> backend::CompiledModule * {
    uint64_t WaitStartNs = nowNs();
    if (Tickets[PI].valid()) {
      if (Ctl) {
        // Cancellable stall: tick the ticket, check the token. A fired
        // token tries cancel-before-run so an abandoned compile does not
        // hold a service slot; if the job is already running it finishes
        // on the worker and is discarded.
        while (!Tickets[PI].waitFor(1'000'000)) {
          if (Ctl->stopped()) {
            Tickets[PI].cancel();
            break;
          }
        }
        Compiled[PI] = Tickets[PI].poll();
      } else {
        Compiled[PI] = Tickets[PI].wait();
      }
    }
    if (!Compiled[PI] && Ctl && Ctl->stopped())
      return nullptr; // Cancelled: stop the query, skip the fallback.
    if (!Compiled[PI]) // Rejected submit, or service shut down mid-query.
      Compiled[PI] = BE.compile(*Units[PI], CO);
    StallNs[PI] = nowNs() - WaitStartNs;
    if (obs::TraceSink *Sink = Opts.Obs.Sink)
      Sink->completeEvent("db.compile_stall", "exec", WaitStartNs,
                          StallNs[PI]);
    return Compiled[PI].get();
  });
  Result.Stats.ExecNs = nowNs() - ExecStartNs;
  if (Code != rt::TrapCode::None) {
    Result.Trapped = true;
    Result.Trap = Code;
  }
  Result.Cancelled = RT.CancelObserved;
  Result.Stats.Pipelines = std::move(RT.PipeStats);
  for (size_t PI = 0; PI != Units.size(); ++PI) {
    if (PI < Result.Stats.Pipelines.size())
      Result.Stats.Pipelines[PI].StallNs = StallNs[PI];
    Result.Stats.AsyncStallNs += StallNs[PI];
  }

  // A trap aborts the pipeline loop with tickets still outstanding; they
  // reference Units, which die with this frame. Cancel what has not
  // started and wait out what has — no worker may outlive the query.
  for (backend::CompileTicket &T : Tickets)
    if (!T.cancel())
      T.wait();
  finishQuery(Opts, Result, Out, RowsBefore, QueryStartNs);
  return Result;
}

/// Mid-query adaptive recompilation (DESIGN.md "Mid-query tier swap"):
/// execution starts on the cheap tier immediately, the optimized tier
/// compiles on the service, and each pipeline publishes the optimized
/// entry at a morsel boundary once it lands.
ExecResult executeQueryAdaptive(const CompiledPlan &Plan, backend::Backend &BE,
                                const Catalog &Cat, rt::OutputBuffer *Out,
                                const ExecOptions &Opts) {
  std::vector<std::unique_ptr<qir::Module>> Units = slicePlanModules(Plan);
  if (Units.empty()) {
    // Unsliceable plan: degrade to the blocking path on the fast tier
    // (starting immediately is the mode's contract; the optimized tier
    // would have nothing to swap into mid-pipeline anyway).
    ExecOptions Sync = Opts;
    Sync.AdaptiveExec = false;
    Sync.AsyncCompile = false;
    if (Opts.FastBackend)
      return executeQuery(Plan, *Opts.FastBackend, Cat, Out, Sync);
    return executeQuery(Plan, BE, Cat, Out, Sync);
  }

  uint64_t QueryStartNs = nowNs();
  uint64_t RowsBefore = Out ? Out->numRows() : 0;
  backend::CompileOptions CO{Opts.Obs};
  CO.Cancel = Opts.Control;
  CO.Mem = Opts.CompileMem;
  CO.FairnessKey = Opts.CompileFairnessKey;

  // The two tiers. The Adaptive back-end resolves to its own pair
  // (DirectEmit -> MLVM-opt); otherwise BE is the optimized tier and
  // QCF_FAST_TIER selects the back-end that bridges its compile latency
  // (default DirectEmit; "Stencil" drops one rung further down the
  // ladder).
  backend::Backend *Opt = &BE;
  backend::Backend *Fast = Opts.FastBackend;
  std::unique_ptr<backend::Backend> OwnedFast;
  if (auto *AB = dynamic_cast<backend::AdaptiveBackend *>(&BE)) {
    Fast = &AB->fastTier();
    Opt = &AB->optTier();
  } else if (!Fast) {
    const char *FastName = std::getenv("QCF_FAST_TIER");
    OwnedFast = backend::createBackend(FastName && *FastName ? FastName
                                                             : "DirectEmit");
    if (!OwnedFast)
      OwnedFast = backend::createBackend("DirectEmit");
    Fast = OwnedFast.get();
  }

  // Units must outlive the service and the swaps (running jobs reference
  // them), so both are declared after them.
  std::optional<backend::CompileService> Local;
  backend::CompileService *Svc = Opts.Service;
  if (!Svc) {
    Local.emplace(Opts.AsyncCompileWorkers ? Opts.AsyncCompileWorkers : 1);
    Svc = &*Local;
  }

  ExecResult Result;
  // The optimized tier is queued first (Background priority: it is
  // speculative until a pipeline decides to swap), then the fast tier
  // compiles synchronously so execution starts right away. A Rejected
  // optimized-tier submit (bounded shared service under load) leaves that
  // swap unclaimed: the pipeline runs the fast tier to completion —
  // speculative work is exactly what the service sheds first.
  uint64_t CompileStartNs = nowNs();
  std::vector<backend::TierSwap> Swaps(Units.size());
  for (size_t PI = 0; PI != Units.size(); ++PI)
    Swaps[PI].submit(Svc, *Units[PI], *Opt, CO);
  std::vector<std::unique_ptr<backend::CompiledModule>> FastMods(Units.size());
  for (size_t PI = 0; PI != Units.size(); ++PI)
    FastMods[PI] = Fast->compile(*Units[PI], CO);
  Result.Stats.CompileNs = nowNs() - CompileStartNs;

  QueryRuntime RT(Plan, Cat, Out);
  std::deque<TierEntry> FastEntries;
  std::deque<TierCell> Cells;
  std::deque<OsrDriver> Drivers;

  uint64_t ExecStartNs = nowNs();
  rt::TrapCode Code = RT.runAllImpl(Opts, [&](size_t PI) -> ResolvedCode {
    const PipelineDesc &P = Plan.Pipelines[PI];
    if (!FastMods[PI]) // Cancelled fast-tier compile (caching fast tier).
      return ResolvedCode{};
    uint64_t Contract = backend::tierContract(P.FnName, Plan.NumCtxSlots);
    void *Fn = FastMods[PI]->entry(P.FnName);
    assert(Fn && "missing pipeline entry point");
    FastEntries.push_back(TierEntry{Fn, backend::TierFast, Contract});
    Cells.emplace_back(&FastEntries.back());
    Drivers.emplace_back(Cells.back(), Swaps[PI], P.FnName, Contract, Opts);
    return ResolvedCode{&Cells.back(), &Drivers.back(), FastMods[PI].get()};
  });
  Result.Stats.ExecNs = nowNs() - ExecStartNs;
  if (Code != rt::TrapCode::None) {
    Result.Trapped = true;
    Result.Trap = Code;
  }
  Result.Cancelled = RT.CancelObserved;
  Result.Stats.Pipelines = std::move(RT.PipeStats);

  // Swap outcomes: stats, exec.osr.* metrics, timeline markers. (A trap
  // leaves later pipelines without drivers; their swaps are settled
  // below without counting as "too late".)
  obs::MetricsRegistry &Reg = Opts.Obs.registry();
  for (size_t PI = 0; PI != Drivers.size(); ++PI) {
    OsrDriver &D = Drivers[PI];
    uint64_t Stall = D.WaitNs.load(std::memory_order_relaxed);
    int64_t Swap = D.SwapMorsel.load(std::memory_order_relaxed);
    if (PI < Result.Stats.Pipelines.size()) {
      Result.Stats.Pipelines[PI].SwapMorsel = Swap;
      Result.Stats.Pipelines[PI].OsrStallNs = Stall;
    }
    Result.Stats.OsrStallNs += Stall;
    if (Stall)
      Reg.histogram("exec.osr.stall_ns").observe(Stall);
    if (D.Inert)
      continue;
    if (D.Installed.load(std::memory_order_acquire)) {
      ++Result.Stats.OsrSwaps;
      Reg.counter("exec.osr.swaps").inc();
      if (Swap >= 0)
        Reg.histogram("exec.osr.swap_morsel").observe(
            static_cast<uint64_t>(Swap));
      if (obs::TraceSink *Sink = Opts.Obs.Sink)
        Sink->instantEvent("db.osr.swap." + Plan.Pipelines[PI].FnName, "exec",
                           D.SwapNs.load(std::memory_order_relaxed));
    } else if (D.Mismatch.load(std::memory_order_relaxed)) {
      Reg.counter("exec.osr.contract_mismatch").inc();
    } else if (D.SkippedPolicy.load(std::memory_order_relaxed)) {
      Reg.counter("exec.osr.skipped").inc();
    } else {
      // Compile never landed while the pipeline ran.
      Reg.counter("exec.osr.too_late").inc();
    }
  }

  // Outstanding optimized compiles reference Units, which die with this
  // frame: each TierSwap cancels its job if it has not started and waits
  // out a running one.
  Drivers.clear();
  Swaps.clear();
  finishQuery(Opts, Result, Out, RowsBefore, QueryStartNs);
  return Result;
}

} // namespace

ExecResult db::executeQuery(const CompiledPlan &Plan, backend::Backend &BE,
                            const Catalog &Cat, rt::OutputBuffer *Out,
                            const ExecOptions &Opts) {
  if (Opts.AdaptiveExec) {
    ExecOptions Adaptive = Opts;
    Adaptive.AsyncCompile = false; // AdaptiveExec subsumes async compilation.
    return executeQueryAdaptive(Plan, BE, Cat, Out, Adaptive);
  }
  if (Opts.AsyncCompile)
    return executeQueryAsync(Plan, BE, Cat, Out, Opts);

  uint64_t QueryStartNs = nowNs();
  uint64_t RowsBefore = Out ? Out->numRows() : 0;

  ExecResult Result;
  if (Opts.Control && Opts.Control->stopped()) {
    // Cancelled before compilation started (e.g. an already-expired
    // deadline): report it without paying for the compile.
    Result.Cancelled = true;
    finishQuery(Opts, Result, Out, RowsBefore, QueryStartNs);
    return Result;
  }

  backend::CompileOptions CO{Opts.Obs};
  CO.Cancel = Opts.Control;
  CO.Mem = Opts.CompileMem;
  CO.FairnessKey = Opts.CompileFairnessKey;
  uint64_t CompileStartNs = nowNs();
  auto Compiled = BE.compile(*Plan.Module, CO);
  Result.Stats.CompileNs = nowNs() - CompileStartNs;
  if (!Compiled) {
    // Only a caching back-end with Opts.Control attached returns null:
    // the token fired during its compile wait.
    Result.Cancelled = true;
    finishQuery(Opts, Result, Out, RowsBefore, QueryStartNs);
    return Result;
  }

  QueryRuntime RT(Plan, Cat, Out);
  uint64_t ExecStartNs = nowNs();
  rt::TrapCode Code = RT.runAll(
      Opts, [&](size_t) -> backend::CompiledModule * { return Compiled.get(); });
  Result.Stats.ExecNs = nowNs() - ExecStartNs;
  if (Code != rt::TrapCode::None) {
    Result.Trapped = true;
    Result.Trap = Code;
  }
  Result.Cancelled = RT.CancelObserved;
  Result.Stats.Pipelines = std::move(RT.PipeStats);
  finishQuery(Opts, Result, Out, RowsBefore, QueryStartNs);
  return Result;
}
