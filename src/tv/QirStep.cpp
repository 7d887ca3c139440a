//===- tv/QirStep.cpp - QIR reference stepper ------------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The QIR side of the co-simulation. What each instruction computes —
/// masking at every narrow width, the exact trap conditions, i1 comparison
/// as unsigned 0/1, cvttsd2si saturation — is qir/Semantics.h, the header
/// the interpreter instantiates too, so the validator and the differential
/// oracle share one definition. This file is the validator's adaptor for
/// it: the synthetic memory model of tv/Sim.h instead of real memory, Call
/// events and the intrinsic helpers instead of host calls, phi incomings as
/// one parallel move, fuel and event caps, and a symbolic term next to
/// every concrete lane for counterexample reports.
///
//===----------------------------------------------------------------------===//

#include "qir/Semantics.h"
#include "tv/Sim.h"
#include <cstdio>

using namespace qcf;
using namespace qcf::tv;
using qir::Opcode;
using qir::Type;
using qir::sem::Flow;
using qir::sem::maskFor;

namespace {

/// The symbolic value domain: lanes plus the term of each.
struct Val {
  uint64_t Lo = 0, Hi = 0;
  TermRef LoT = NO_TERM, HiT = NO_TERM;
};

/// Width a term of type \p Ty is built at: the integer width, else 64.
unsigned termBits(Type Ty) {
  return qir::isIntType(Ty) && Ty != Type::I128 ? qir::intBits(Ty) : 64;
}

/// Term operator of an arithmetic, compare or conversion instruction. The
/// S*Trap ops build the wrapping operator: on overflow the round ends in a
/// Trap event before the result can be observed.
TermOp termOp(const qir::Inst &I) {
  switch (I.Op) {
  case Opcode::Add: case Opcode::SAddTrap: return TermOp::Add;
  case Opcode::Sub: case Opcode::SSubTrap: return TermOp::Sub;
  case Opcode::Mul: case Opcode::SMulTrap: return TermOp::Mul;
  case Opcode::SDiv: return TermOp::SDiv;
  case Opcode::UDiv: return TermOp::UDiv;
  case Opcode::SRem: return TermOp::SRem;
  case Opcode::And: return TermOp::And;
  case Opcode::Or: return TermOp::Or;
  case Opcode::Xor: return TermOp::Xor;
  case Opcode::Shl: return TermOp::Shl;
  case Opcode::LShr: return TermOp::LShr;
  case Opcode::AShr: return TermOp::AShr;
  case Opcode::RotR: return TermOp::RotR;
  case Opcode::Neg: return TermOp::Neg;
  case Opcode::Not: return TermOp::Not;
  case Opcode::Crc32: return TermOp::Crc32;
  case Opcode::LongMulFold: return TermOp::LMulFold;
  case Opcode::FAdd: return TermOp::FAdd;
  case Opcode::FSub: return TermOp::FSub;
  case Opcode::FMul: return TermOp::FMul;
  case Opcode::FDiv: return TermOp::FDiv;
  case Opcode::FNeg: return TermOp::FNeg;
  case Opcode::SExt: return TermOp::SExt;
  case Opcode::Trunc: return TermOp::Trunc;
  case Opcode::SIToFP: return TermOp::SIToFP;
  case Opcode::FPToSI: return TermOp::FPToSI;
  case Opcode::ICmp:
    switch (I.cmpPred()) {
    case qir::CmpPred::Eq: return TermOp::CmpEq;
    case qir::CmpPred::Ne: return TermOp::CmpNe;
    case qir::CmpPred::SLt: return TermOp::CmpSLt;
    case qir::CmpPred::SLe: return TermOp::CmpSLe;
    case qir::CmpPred::SGt: return TermOp::CmpSGt;
    case qir::CmpPred::SGe: return TermOp::CmpSGe;
    case qir::CmpPred::ULt: return TermOp::CmpULt;
    case qir::CmpPred::ULe: return TermOp::CmpULe;
    case qir::CmpPred::UGt: return TermOp::CmpUGt;
    case qir::CmpPred::UGe: return TermOp::CmpUGe;
    }
    break;
  case Opcode::FCmp:
    switch (I.cmpPred()) {
    case qir::CmpPred::Eq: return TermOp::FCmpEq;
    case qir::CmpPred::Ne: return TermOp::FCmpNe;
    case qir::CmpPred::SLt: case qir::CmpPred::ULt: return TermOp::FCmpLt;
    case qir::CmpPred::SLe: case qir::CmpPred::ULe: return TermOp::FCmpLe;
    case qir::CmpPred::SGt: case qir::CmpPred::UGt: return TermOp::FCmpGt;
    case qir::CmpPred::SGe: case qir::CmpPred::UGe: return TermOp::FCmpGe;
    }
    break;
  default:
    break;
  }
  QCF_UNREACHABLE("opcode has no term operator");
}

/// One round of the reference stepper, and its adaptor for
/// qir::sem::step.
class Stepper {
public:
  using Value = Val;

  Stepper(const qir::Function &F, const qir::Module &M,
          const SlotLayout &Slots, const RoundCtx &RC, TermArena &TA)
      : F(F), M(M), Slots(Slots), RC(RC), TA(TA), Regs(F.numInsts()) {
    Mem.OracleSeed = RC.OracleSeed;
    Mem.PrivLo = SlotSpaceBase;
    Mem.PrivHi = SlotSpaceBase + std::max<uint64_t>(Slots.Span, 16);
  }

  Trace run(const std::vector<uint64_t> &ArgLanes,
            const std::vector<TermRef> &ArgTerms);

  // The adaptor; see qir/Semantics.h.
  const qir::Function &fn() const { return F; }
  Val &def(const qir::Inst &) { return Regs[Idx]; }
  const Val &use(qir::ValueId V) const {
    return V < Regs.size() ? Regs[V] : Regs[0];
  }
  Flow trap(rt::TrapCode Code) {
    push(Event::Trap).TrapCode = static_cast<int>(Code);
    return Flow::Exit;
  }
  void sym(const qir::Inst &I, Val &D);
  Flow preassigned(const qir::Inst &) { return Flow::Next; }
  Flow stackSlot(const qir::Inst &I);
  Flow load(const qir::Inst &I);
  Flow store(const qir::Inst &I);
  Flow atomicAdd(const qir::Inst &I);
  Flow call(const qir::Inst &I);
  Flow branch(qir::BlockId To);
  Flow ret(const qir::Inst &I);
  Flow unreachable(const qir::Inst &) {
    push(Event::Fault);
    return Flow::Exit;
  }

private:
  /// Appends an event stamped with the global digest and the position.
  Event &push(Event::Kind K) {
    Event &E = TR.Events.emplace_back();
    E.K = K;
    E.Digest = Mem.globalDigest();
    char B[48];
    std::snprintf(B, sizeof(B), "block %u inst %u", Cur, Idx);
    E.Where = B;
    return E;
  }

  TermRef loadTerm(uint64_t Addr, unsigned Sz) {
    TermRef T = ST.load(Addr, Sz);
    if (T != NO_TERM)
      return T;
    if (!Mem.isPriv(Addr) && Mem.globalClean(Addr, Sz))
      return TA.oracleLoad(Addr, Sz * 8);
    return NO_TERM;
  }

  const qir::Function &F;
  const qir::Module &M;
  const SlotLayout &Slots;
  const RoundCtx &RC;
  TermArena &TA;
  Trace TR;
  MemModel Mem;
  StoreTerms ST;
  std::vector<Val> Regs;
  qir::BlockId Cur = 0;
  uint32_t Idx = 0;
  unsigned EvCall = 0;
};

void Stepper::sym(const qir::Inst &I, Val &D) {
  const Val &A = use(I.A), &B = use(I.B);
  unsigned W = termBits(I.Ty);
  switch (I.Op) {
  case Opcode::ConstInt:
  case Opcode::ConstF64:
  case Opcode::ConstPtr:
    D.LoT = TA.constant(D.Lo, W);
    return;
  case Opcode::ZExt:
    D.LoT = I.Ty == Type::I128 ? A.LoT : TA.unary(TermOp::ZExt, A.LoT, W);
    return;
  case Opcode::Bitcast:
  case Opcode::ExtractLo:
    D.LoT = A.LoT;
    return;
  case Opcode::ExtractHi:
    D.LoT = A.HiT;
    return;
  case Opcode::PackD128:
  case Opcode::PackI128:
    D.LoT = A.LoT;
    D.HiT = B.LoT;
    return;
  case Opcode::Select: // The copied value brought its Hi term along.
    D.LoT = TA.select(A.LoT, B.LoT, use(I.C).LoT, W);
    return;
  case Opcode::Gep: {
    TermRef T = A.LoT;
    if (I.Imm)
      T = TA.binary(TermOp::Add, T, TA.constant(I.Imm, 64), 64);
    if (I.B != qir::INVALID_VALUE)
      T = TA.binary(TermOp::Add, T,
                    TA.binary(TermOp::Mul, B.LoT, TA.constant(I.C, 64), 64),
                    64);
    D.LoT = T;
    return;
  }
  case Opcode::ICmp:
    if (F.valueType(I.A) == Type::I128)
      return;
    W = termBits(F.valueType(I.A));
    break;
  case Opcode::FCmp:
    W = 64;
    break;
  default:
    if (I.Ty == Type::I128) // Terms are at most 64 bits wide.
      return;
    break;
  }
  D.LoT = qir::numValueOperands(I.Op) == 1
              ? TA.unary(termOp(I), A.LoT, W)
              : TA.binary(termOp(I), A.LoT, B.LoT, W);
}

Flow Stepper::stackSlot(const qir::Inst &) {
  Val &D = Regs[Idx];
  auto It = Slots.SlotAddr.find(Idx);
  D.Lo = It != Slots.SlotAddr.end() ? It->second : SlotSpaceBase;
  D.LoT = TA.constant(D.Lo, 64);
  return Flow::Next;
}

Flow Stepper::load(const qir::Inst &I) {
  Val &D = Regs[Idx];
  uint64_t Addr = use(I.A).Lo;
  unsigned Sz = qir::typeSize(I.Ty);
  if (Sz == 16) {
    D.Lo = Mem.load(Addr, 8);
    D.Hi = Mem.load(Addr + 8, 8);
    D.LoT = loadTerm(Addr, 8);
    D.HiT = loadTerm(Addr + 8, 8);
  } else {
    D.Lo = Mem.load(Addr, Sz);
    D.LoT = loadTerm(Addr, Sz);
  }
  return Flow::Next;
}

Flow Stepper::store(const qir::Inst &I) {
  uint64_t Addr = use(I.A).Lo;
  const Val &B = use(I.B);
  unsigned Sz = qir::typeSize(I.Ty);
  if (Sz == 16) {
    Mem.store(Addr, B.Lo, 8);
    Mem.store(Addr + 8, B.Hi, 8);
    ST.store(Addr, 8, B.LoT);
    ST.store(Addr + 8, 8, B.HiT);
  } else {
    Mem.store(Addr, B.Lo, Sz);
    ST.store(Addr, Sz, B.LoT);
  }
  return Flow::Next;
}

Flow Stepper::atomicAdd(const qir::Inst &I) {
  Val &D = Regs[Idx];
  uint64_t Addr = use(I.A).Lo;
  unsigned Sz = I.Ty == Type::I32 ? 4 : 8;
  uint64_t Old = Mem.load(Addr, Sz);
  Mem.store(Addr, (Old + use(I.B).Lo) & maskFor(I.Ty), Sz);
  ST.store(Addr, Sz, NO_TERM);
  D.Lo = Old;
  D.LoT = NO_TERM;
  return Flow::Next;
}

Flow Stepper::call(const qir::Inst &I) {
  Val &D = Regs[Idx];
  const qir::RuntimeSig &Sig = M.symbol(F.callee(I));
  uint64_t SV[6] = {};
  TermRef STm[6] = {NO_TERM, NO_TERM, NO_TERM, NO_TERM, NO_TERM, NO_TERM};
  uint8_t SB[6] = {64, 64, 64, 64, 64, 64};
  unsigned NS = 0;
  const qir::ValueId *CA = F.callArgs(I);
  for (unsigned K = 0; K != F.numCallArgs(I); ++K) {
    const Val &S = Regs[CA[K]];
    Type Ty = F.valueType(CA[K]);
    if (NS + (qir::isTwoLane(Ty) ? 2 : 1) > 6) {
      TR.Skip = true;
      TR.Error = "call with more than 6 argument slots";
      return Flow::Exit;
    }
    SV[NS] = S.Lo;
    STm[NS] = S.LoT;
    SB[NS] = static_cast<uint8_t>(termBits(Ty));
    ++NS;
    if (qir::isTwoLane(Ty)) {
      SV[NS] = S.Hi;
      STm[NS] = S.HiT;
      ++NS;
    }
  }

  if (Sig.Name == "rt_trap")
    return trap(static_cast<rt::TrapCode>(SV[0]));

  uint64_t Lo, Hi;
  int TC;
  if (stepIntrinsic(Sig.Name, SV, Lo, Hi, TC)) {
    if (TC != static_cast<int>(rt::TrapCode::None))
      return trap(static_cast<rt::TrapCode>(TC));
    if (Sig.RetType != Type::Void) {
      D.Lo = Lo & maskFor(Sig.RetType);
      D.Hi = qir::isTwoLane(Sig.RetType) ? Hi : 0;
      D.LoT = intrinsicResultTerm(TA, Sig.Name, STm);
      D.HiT = NO_TERM;
    }
    return Flow::Next;
  }

  Event &E = push(Event::Call);
  E.Sym = Sig.Name;
  E.NumArgs = NS;
  for (unsigned K = 0; K != NS; ++K) {
    E.Args[K] = SV[K];
    E.ArgT[K] = STm[K];
    E.ArgBits[K] = SB[K];
    if (Mem.isPriv(SV[K])) {
      size_t Len = std::min<uint64_t>(Slots.MaxSnap, Mem.PrivHi - SV[K]);
      for (const auto &[SlotV, Addr] : Slots.SlotAddr) {
        uint32_t Size = Slots.SlotSize.at(SlotV);
        if (SV[K] >= Addr && SV[K] < Addr + Size) {
          Len = Addr + Size - SV[K];
          break;
        }
      }
      E.Snap[K] = Mem.snapshot(SV[K], Len);
    }
  }

  if (Sig.RetType != Type::Void) {
    D.Lo = RC.callRet(EvCall, 0) & maskFor(Sig.RetType);
    D.LoT = TA.callRet(EvCall, 0);
    if (qir::isTwoLane(Sig.RetType)) {
      D.Hi = RC.callRet(EvCall, 1);
      D.HiT = TA.callRet(EvCall, 1);
    }
  }
  ++EvCall;
  return Flow::Next;
}

Flow Stepper::branch(qir::BlockId To) {
  const qir::Block &B = F.block(To);
  // Phi incomings are a parallel move: read all sources against the
  // pre-jump register state, then commit.
  std::vector<std::pair<uint32_t, Val>> Upd;
  for (uint32_t J = B.Begin; J != B.End; ++J) {
    const qir::Inst &Ph = F.Insts[J];
    if (Ph.Op != Opcode::Phi)
      continue;
    const qir::PhiIn *Ins = F.phiIncomings(Ph);
    for (unsigned K = 0; K != F.numPhiIncomings(Ph); ++K)
      if (Ins[K].Pred == Cur) {
        Upd.emplace_back(J, Regs[Ins[K].Val]);
        break;
      }
  }
  for (auto &[V, S] : Upd)
    Regs[V] = S;
  Cur = To;
  Idx = B.Begin;
  return Flow::Jump;
}

Flow Stepper::ret(const qir::Inst &I) {
  Event &E = push(Event::Ret);
  if (I.A != qir::INVALID_VALUE) {
    const Val &S = Regs[I.A];
    E.RetLo = S.Lo;
    E.RetHi = S.Hi;
    E.RetLoT = S.LoT;
    E.RetHiT = S.HiT;
  }
  return Flow::Exit;
}

Trace Stepper::run(const std::vector<uint64_t> &ArgLanes,
                   const std::vector<TermRef> &ArgTerms) {
  unsigned Lane = 0;
  for (unsigned P = 0; P != F.numParams(); ++P) {
    Val &S = Regs[F.paramValue(P)];
    S.Lo = ArgLanes[Lane];
    S.LoT = ArgTerms[Lane];
    ++Lane;
    if (qir::isTwoLane(F.paramTypes()[P])) {
      S.Hi = ArgLanes[Lane];
      S.HiT = ArgTerms[Lane];
      ++Lane;
    }
  }

  Idx = F.block(0).Begin;
  for (uint64_t Fuel = 100000;;) {
    if (Fuel-- == 0 || TR.Events.size() >= MaxEvents) {
      TR.Bounded = true;
      break;
    }
    Flow Fl = qir::sem::step(*this, F.Insts[Idx]);
    if (Fl == Flow::Next)
      ++Idx;
    else if (Fl == Flow::Exit)
      break;
  }
  return std::move(TR);
}

} // namespace

SlotLayout tv::computeSlotLayout(const qir::Function &F) {
  SlotLayout L;
  uint64_t Off = 0;
  for (uint32_t I = 0; I != F.numInsts(); ++I) {
    const qir::Inst &In = F.Insts[I];
    if (In.Op != Opcode::StackSlot)
      continue;
    uint64_t Size = In.Imm ? In.Imm : 1;
    Off = (Off + 15) & ~15ull;
    L.SlotAddr[I] = SlotSpaceBase + Off;
    L.SlotSize[I] = static_cast<uint32_t>(Size);
    L.MaxSnap = std::min(std::max(L.MaxSnap, static_cast<size_t>(Size)),
                         MaxSnapBytes);
    Off += Size;
  }
  L.Span = (Off + 15) & ~15ull;
  return L;
}

Trace tv::runQirRound(const qir::Function &F, const qir::Module &M,
                      const SlotLayout &Slots, const RoundCtx &RC,
                      const std::vector<uint64_t> &ArgLanes,
                      const std::vector<TermRef> &ArgTerms, TermArena &TA) {
  if (F.numBlocks() == 0 || F.block(0).empty()) {
    Trace TR;
    TR.Skip = true;
    TR.Error = "empty function";
    return TR;
  }
  return Stepper(F, M, Slots, RC, TA).run(ArgLanes, ArgTerms);
}
