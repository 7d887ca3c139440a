//===- backend/TierSwap.h - The one tier-swap protocol ----------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The protocol every tier swap in QCF goes through: the §III-C adaptive
/// back-end's promotion (AdaptiveModule) and the executor's mid-query
/// morsel-boundary swap (AdaptiveExec). Code runs through a \ref TierCell
/// holding an immutable \ref TierEntry; a \ref TierSwap owns the life of
/// the one speculative optimizing compile that may replace it.
///
/// A swap goes: submit (one CAS claim; the compile is queued at
/// Background priority) -> poll/wait (exactly one caller receives the
/// landed module, which the TierSwap pins for its own lifetime) -> that
/// caller fills a new TierEntry and publishes it with one release store.
/// Readers re-load the cell (acquire) before every call, so they run the
/// complete old entry or the complete new one — never a mix — and the
/// pinned code outlives every reader as long as the TierSwap does.
///
/// Memory ordering inside TierSwap: the submitter writes the ticket (or
/// the inline result) before the release store that makes the state
/// Pending; the sole prober writes the pinned module before the release
/// store that makes it Landed. Every reader acquires the state first.
/// See DESIGN.md "Mid-query tier swap".
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_TIERSWAP_H
#define QCF_BACKEND_TIERSWAP_H

#include "backend/CompileService.h"
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace qcf::backend {

/// Tier ids used in TierEntry and the per-tier execution accounting.
enum TierId : uint32_t { TierFast = 0, TierOpt = 1 };

/// One published entry point: the code pointer, which tier it belongs to,
/// and its context-compatibility token. Immutable once published.
struct TierEntry {
  void *Fn = nullptr;
  uint32_t Tier = TierFast;
  /// Context-compatibility contract: two entries may be swapped for one
  /// another only if their tokens match, i.e. they were compiled from the
  /// same QIR function against the same ctx slot layout. See
  /// \ref tierContract.
  uint64_t Contract = 0;
};

/// The contract token of function \p FnName under a plan with
/// \p NumCtxSlots context slots (0 for plain functions). Both tiers of a
/// swap are compiled from the identical QIR, so matching tokens are
/// guaranteed by construction; the check exists to reject foreign
/// entries (a different function, a plan recompiled against a different
/// slot layout) if a future tier source wires in incompatible code.
inline uint64_t tierContract(const std::string &FnName,
                             uint32_t NumCtxSlots = 0) {
  uint64_t H = 1469598103934665603ull; // FNV-1a
  for (char C : FnName) {
    H ^= static_cast<uint8_t>(C);
    H *= 1099511628211ull;
  }
  H ^= uint64_t(NumCtxSlots) * 0x9e3779b97f4a7c15ull;
  return H;
}

/// The atomic cell callers re-read before every call (the executor: at
/// every morsel pickup). Holds a pointer to an immutable TierEntry owned
/// by whoever owns the cell, which must outlive every reader.
class TierCell {
public:
  explicit TierCell(const TierEntry *Initial) : Cur(Initial) {}

  TierCell(const TierCell &) = delete;
  TierCell &operator=(const TierCell &) = delete;

  /// The entry to run next. Acquire: pairs with the release store in
  /// publish(), so the pointee is fully visible.
  const TierEntry *load() const { return Cur.load(std::memory_order_acquire); }

  /// Publishes \p Next as the current entry. Refuses (returning false,
  /// cell unchanged) when \p Next is null, has no code, or violates the
  /// context-compatibility contract of the currently published entry.
  bool publish(const TierEntry *Next) {
    const TierEntry *Prev = Cur.load(std::memory_order_relaxed);
    if (!Next || !Next->Fn || Next->Contract != Prev->Contract)
      return false;
    Cur.store(Next, std::memory_order_release);
    return true;
  }

private:
  std::atomic<const TierEntry *> Cur;
};

/// The full life of one speculative optimizing compile. Thread-safe: any
/// number of threads may submit, poll and wait concurrently. The submitted
/// module and back-end must outlive the TierSwap, whose destructor
/// cancels the job if it has not started and otherwise waits it out.
class TierSwap {
public:
  TierSwap() = default;
  TierSwap(const TierSwap &) = delete;
  TierSwap &operator=(const TierSwap &) = delete;

  ~TierSwap() {
    if (Ticket.valid() && !Ticket.cancel())
      Ticket.wait();
  }

  /// Claims the swap and starts compiling \p M with \p BE: on \p Svc at
  /// Background priority, or inline on the calling thread when \p Svc is
  /// null. Only one call ever claims; a Rejected submit (queue full or
  /// tenant share exhausted) re-arms the claim so a later call can retry.
  /// \returns true if this call started the compile.
  bool submit(CompileService *Svc, const qir::Module &M, Backend &BE,
              const CompileOptions &Opts = CompileOptions()) {
    uint8_t S = Idle;
    if (!St.compare_exchange_strong(S, Submitting, std::memory_order_acquire))
      return false;
    if (!Svc) {
      Pinned = BE.compile(M, Opts);
      St.store(Pinned ? Pending : Failed, std::memory_order_release);
      return Pinned != nullptr;
    }
    SubmitOutcome O = Svc->submit(M, BE, CompilePriority::Background, Opts);
    if (!O.accepted()) {
      St.store(Idle, std::memory_order_release);
      return false;
    }
    Ticket = std::move(O.Ticket);
    St.store(Pending, std::memory_order_release);
    return true;
  }

  /// Never blocks. \returns the landed module to exactly one caller —
  /// pinned for this TierSwap's lifetime, so that caller can publish its
  /// entries — and null to every other caller and while still compiling.
  CompiledModule *poll() {
    uint8_t S = Pending;
    if (!St.compare_exchange_strong(S, Probing, std::memory_order_acquire))
      return nullptr;
    // Sole prober: Pinned is ours. done() before poll(), so a job that
    // finishes between the two calls is not mistaken for a cancelled one.
    if (!Pinned) {
      if (!Ticket.done()) {
        St.store(Pending, std::memory_order_release);
        return nullptr;
      }
      Pinned = Ticket.poll(); // Null: cancelled (shed or service shutdown).
    }
    St.store(Pinned ? Landed : Failed, std::memory_order_release);
    return Pinned.get();
  }

  /// Blocks until the compile is terminal. \returns the module if this
  /// caller received it (as poll()), else null.
  CompiledModule *wait() {
    uint8_t S;
    while ((S = St.load(std::memory_order_acquire)) == Submitting)
      std::this_thread::yield(); // Another thread is mid-submit.
    if (S == Idle)
      return nullptr;
    Ticket.wait(); // Written once, before Pending: safe to read now.
    while (inFlight()) {
      if (CompiledModule *P = poll())
        return P;
      std::this_thread::yield(); // A concurrent poll() holds the probe.
    }
    return nullptr;
  }

  /// True from the claim until the landed module is handed out or the
  /// job is found cancelled. One acquire load.
  bool inFlight() const {
    uint8_t S = St.load(std::memory_order_acquire);
    return S == Submitting || S == Pending || S == Probing;
  }

  /// True once poll()/wait() has handed out the landed module.
  bool landed() const { return St.load(std::memory_order_acquire) == Landed; }

private:
  enum : uint8_t { Idle, Submitting, Pending, Probing, Landed, Failed };

  std::atomic<uint8_t> St{Idle};
  CompileTicket Ticket; ///< Written once, by the claimant, before Pending.
  std::shared_ptr<CompiledModule> Pinned; ///< Written by the claimant (inline
                                          ///< compile) or the sole prober.
};

} // namespace qcf::backend

#endif // QCF_BACKEND_TIERSWAP_H
