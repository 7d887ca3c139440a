//===- qir/Semantics.h - QIR evaluation semantics ---------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of what a QIR instruction computes. Two steppers
/// instantiate it: the bytecode interpreter (interp/Interp.cpp, §VIII), the
/// oracle of every differential test, over plain 64-bit lanes; and the
/// translation validator's reference stepper (tv/QirStep.cpp) over lanes
/// plus a symbolic term per lane. Written once, templated over an adaptor,
/// in the manner of TPDE's back-end adaptors, so the two cannot drift.
///
/// Values. Every value has two 64-bit lanes, Lo and Hi. An integer narrower
/// than 128 bits lives zero-extended in Lo and its Hi is zero; f64 and ptr
/// are their bits in Lo; i128 and d128 use both lanes. Every operation that
/// yields a narrow integer masks its result to the width, and values enter
/// masked (the interpreter masks parameters and call results; tv draws
/// them masked), so operands are never re-masked here: UDiv, LShr, RotR
/// and the unsigned compares read Lo as it is. A one-lane result writes
/// only Lo where its Hi is already zero (each register is written only by
/// its own instruction and starts zeroed).
///
/// Traps are exact: a zero divisor, INT_MIN / -1 in SDiv, and signed
/// overflow of the S*Trap ops at i32, i64 and i128. Shift and rotate
/// amounts are masked to the operand width (amounts at or above it are
/// undefined in QIR; this is the interpreter's choice). FPToSI saturates
/// like cvttsd2si: NaN and out-of-range inputs give INT64_MIN.
///
/// The adaptor. step(Dm, I) evaluates instruction \p I and says how
/// control continues. \p I is any record with the qir::Inst operand fields
/// (Op, Ty, Flags, A, B, C, Imm). \p Dm provides:
///
///   Value                 lane type with uint64_t Lo, Hi (copyable)
///   fn()                  the qir::Function being run
///   def(I), use(V)        the result of \p I, the value of operand \p V
///   trap(Code)            a trapping operation: ends the run
///   sym(I, D)             called after each computed result, so a
///                         symbolic domain can attach its terms
///   preassigned, stackSlot, load, store, atomicAdd, call, ret,
///   unreachable (each takes I), branch(Target)
///                         what really differs between the steppers:
///                         frames, memory, calls and control flow
///
/// The hooks return Flow; the plain domain's are inlined away, so the
/// interpreter still dispatches each instruction with one switch.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_QIR_SEMANTICS_H
#define QCF_QIR_SEMANTICS_H

#include "qir/Function.h"
#include "runtime/Trap.h"
#include "support/Compiler.h"
#include "support/Hash.h"
#include "support/Int128.h"
#include <cstring>

namespace qcf::qir::sem {

/// How control continues after one step.
enum class Flow : uint8_t {
  Next, ///< Fall through to the next instruction.
  Jump, ///< The hook moved control to another block.
  Exit, ///< Returned, trapped or stopped.
};

// --- Lane helpers ------------------------------------------------------------

inline uint64_t maskFor(Type Ty) {
  switch (Ty) {
  case Type::I1:
    return 1;
  case Type::I8:
    return 0xff;
  case Type::I16:
    return 0xffff;
  case Type::I32:
    return 0xffffffffull;
  default:
    return ~0ull;
  }
}

inline int64_t sext(uint64_t V, Type Ty) {
  switch (Ty) {
  case Type::I1:
    return (V & 1) ? -1 : 0;
  case Type::I8:
    return static_cast<int8_t>(V);
  case Type::I16:
    return static_cast<int16_t>(V);
  case Type::I32:
    return static_cast<int32_t>(V);
  default:
    return static_cast<int64_t>(V);
  }
}

inline double asF64(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

inline uint64_t f64Bits(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return B;
}

/// x86 cvttsd2si semantics: NaN / out of range produce INT64_MIN.
inline int64_t f64ToI64Trunc(double D) {
  if (!(D >= -9.2233720368547758e18 && D < 9.2233720368547758e18))
    return INT64_MIN;
  return static_cast<int64_t>(D);
}

template <class V> Int128 toI128(const V &X) { return makeInt128(X.Lo, X.Hi); }

template <class V> void setI128(V &D, Int128 R) {
  D.Lo = lo64(R);
  D.Hi = hi64(R);
}

/// Integer predicate \p P over a signed (\p SX, \p SY) and an unsigned
/// (\p UX, \p UY) view of the same two operands.
template <class S, class U>
QCF_ALWAYS_INLINE bool evalIntPred(CmpPred P, S SX, S SY, U UX, U UY) {
  switch (P) {
  case CmpPred::Eq:
    return UX == UY;
  case CmpPred::Ne:
    return UX != UY;
  case CmpPred::SLt:
    return SX < SY;
  case CmpPred::SLe:
    return SX <= SY;
  case CmpPred::SGt:
    return SX > SY;
  case CmpPred::SGe:
    return SX >= SY;
  case CmpPred::ULt:
    return UX < UY;
  case CmpPred::ULe:
    return UX <= UY;
  case CmpPred::UGt:
    return UX > UY;
  case CmpPred::UGe:
    return UX >= UY;
  }
  QCF_UNREACHABLE("invalid predicate");
}

template <class V>
QCF_ALWAYS_INLINE bool evalICmp(CmpPred P, const V &A, const V &B, Type OpTy) {
  if (OpTy == Type::I128) {
    Int128 X = toI128(A), Y = toI128(B);
    return evalIntPred(P, X, Y, static_cast<UInt128>(X),
                       static_cast<UInt128>(Y));
  }
  // i1 values compare as unsigned 0/1 regardless of predicate signedness.
  if (OpTy == Type::I1)
    return evalIntPred(P, A.Lo & 1, B.Lo & 1, A.Lo, B.Lo);
  return evalIntPred(P, sext(A.Lo, OpTy), sext(B.Lo, OpTy), A.Lo, B.Lo);
}

QCF_ALWAYS_INLINE bool evalFCmp(CmpPred P, double A, double B) {
  switch (P) {
  case CmpPred::Eq:
    return A == B;
  case CmpPred::Ne:
    return A != B;
  case CmpPred::SLt:
  case CmpPred::ULt:
    return A < B;
  case CmpPred::SLe:
  case CmpPred::ULe:
    return A <= B;
  case CmpPred::SGt:
  case CmpPred::UGt:
    return A > B;
  case CmpPred::SGe:
  case CmpPred::UGe:
    return A >= B;
  }
  QCF_UNREACHABLE("invalid predicate");
}

/// Wrapping Add/Sub/Mul of \p Ty: i128 over both lanes, else masked Lo.
template <Opcode Op, class V>
QCF_ALWAYS_INLINE void wrapArith(Type Ty, const V &A, const V &B, V &D) {
  auto Apply = [](auto X, auto Y) {
    if constexpr (Op == Opcode::Add)
      return X + Y;
    else if constexpr (Op == Opcode::Sub)
      return X - Y;
    else
      return X * Y;
  };
  if (Ty == Type::I128)
    // Unsigned, because signed overflow is UB.
    setI128(D, static_cast<Int128>(Apply(static_cast<UInt128>(toI128(A)),
                                         static_cast<UInt128>(toI128(B)))));
  else
    D.Lo = Apply(A.Lo, B.Lo) & maskFor(Ty);
}

/// Overflow-checked S{Add,Sub,Mul}Trap of \p Ty (i32, i64 or i128).
/// \returns true on signed overflow, leaving \p D unwritten.
template <Opcode Op, class V>
QCF_ALWAYS_INLINE bool trapArith(Type Ty, const V &A, const V &B, V &D) {
  auto Overflows = [](auto X, auto Y, auto &R) {
    if constexpr (Op == Opcode::SAddTrap)
      return __builtin_add_overflow(X, Y, &R);
    else if constexpr (Op == Opcode::SSubTrap)
      return __builtin_sub_overflow(X, Y, &R);
    else
      return __builtin_mul_overflow(X, Y, &R);
  };
  if (Ty == Type::I128) {
    Int128 R = 0;
    bool Ovf;
    if constexpr (Op == Opcode::SMulTrap)
      Ovf = mulOverflow128(toI128(A), toI128(B), &R);
    else
      Ovf = Overflows(toI128(A), toI128(B), R);
    if (!Ovf)
      setI128(D, R);
    return Ovf;
  }
  int64_t X = sext(A.Lo, Ty), Y = sext(B.Lo, Ty), R = 0;
  bool Ovf;
  if (Ty == Type::I32) {
    int32_t R32 = 0;
    Ovf = Overflows(static_cast<int32_t>(X), static_cast<int32_t>(Y), R32);
    R = R32;
  } else {
    Ovf = Overflows(X, Y, R);
  }
  if (!Ovf)
    D.Lo = static_cast<uint64_t>(R) & maskFor(Ty);
  return Ovf;
}

// --- The step ----------------------------------------------------------------

template <class Dom, class InstT>
QCF_ALWAYS_INLINE Flow step(Dom &Dm, const InstT &I) {
  using V = typename Dom::Value;
  auto A = [&]() -> const V & { return Dm.use(I.A); };
  auto B = [&]() -> const V & { return Dm.use(I.B); };
  auto C = [&]() -> const V & { return Dm.use(I.C); };
  // Looked up per arm, not once up front: a hoisted result address or type
  // costs the interpreter's dispatch loop a register it needs.
  auto D = [&]() -> V & { return Dm.def(I); };

  switch (I.Op) {
  // What differs between the steppers.
  case Opcode::Param:
  case Opcode::Phi:
    return Dm.preassigned(I);
  case Opcode::StackSlot:
    return Dm.stackSlot(I);
  case Opcode::Load:
    return Dm.load(I);
  case Opcode::Store:
    return Dm.store(I);
  case Opcode::AtomicAdd:
    return Dm.atomicAdd(I);
  case Opcode::Call:
    return Dm.call(I);
  case Opcode::Br:
    return Dm.branch(I.A);
  case Opcode::CondBr:
    // Two calls, not one on a selected edge: GCC turns that selection into
    // a cmov, and the interpreter's next dispatch then waits on the load of
    // the condition instead of running ahead on a predicted branch.
    if (A().Lo & 1)
      return Dm.branch(I.B);
    return Dm.branch(I.C);
  case Opcode::Ret:
    return Dm.ret(I);
  case Opcode::Unreachable:
    return Dm.unreachable(I);

  case Opcode::ConstInt:
    D().Lo = I.Imm & maskFor(I.Ty);
    break;
  case Opcode::ConstI128:
    setI128(D(), Dm.fn().I128Pool[I.A]);
    break;
  case Opcode::ConstF64:
  case Opcode::ConstPtr:
    D().Lo = I.Imm;
    break;

  case Opcode::Add:
    wrapArith<Opcode::Add>(I.Ty, A(), B(), D());
    break;
  case Opcode::Sub:
    wrapArith<Opcode::Sub>(I.Ty, A(), B(), D());
    break;
  case Opcode::Mul:
    wrapArith<Opcode::Mul>(I.Ty, A(), B(), D());
    break;
  case Opcode::SDiv: {
    if (I.Ty == Type::I128) {
      Int128 Y = toI128(B()), R = 0;
      if (divOverflow128(toI128(A()), Y, &R))
        return Dm.trap(Y == 0 ? rt::TrapCode::DivByZero
                              : rt::TrapCode::Overflow);
      setI128(D(), R);
      break;
    }
    int64_t X = sext(A().Lo, I.Ty), Y = sext(B().Lo, I.Ty);
    if (Y == 0)
      return Dm.trap(rt::TrapCode::DivByZero);
    if (Y == -1 && X == -sext(maskFor(I.Ty) >> 1, I.Ty) - 1)
      return Dm.trap(rt::TrapCode::Overflow);
    D().Lo = static_cast<uint64_t>(X / Y) & maskFor(I.Ty);
    break;
  }
  case Opcode::UDiv: {
    if (I.Ty == Type::I128) {
      UInt128 Y = static_cast<UInt128>(toI128(B()));
      if (Y == 0)
        return Dm.trap(rt::TrapCode::DivByZero);
      setI128(D(), static_cast<Int128>(static_cast<UInt128>(toI128(A())) / Y));
      break;
    }
    uint64_t Y = B().Lo;
    if (Y == 0)
      return Dm.trap(rt::TrapCode::DivByZero);
    D().Lo = A().Lo / Y;
    break;
  }
  case Opcode::SRem: {
    if (I.Ty == Type::I128) {
      Int128 Y = toI128(B());
      if (Y == 0)
        return Dm.trap(rt::TrapCode::DivByZero);
      setI128(D(), Y == -1 ? 0 : toI128(A()) % Y);
      break;
    }
    int64_t X = sext(A().Lo, I.Ty), Y = sext(B().Lo, I.Ty);
    if (Y == 0)
      return Dm.trap(rt::TrapCode::DivByZero);
    D().Lo = Y == -1 ? 0 : static_cast<uint64_t>(X % Y) & maskFor(I.Ty);
    break;
  }
  case Opcode::And:
    D().Lo = A().Lo & B().Lo;
    D().Hi = A().Hi & B().Hi;
    break;
  case Opcode::Or:
    D().Lo = A().Lo | B().Lo;
    D().Hi = A().Hi | B().Hi;
    break;
  case Opcode::Xor:
    D().Lo = A().Lo ^ B().Lo;
    D().Hi = A().Hi ^ B().Hi;
    break;

  case Opcode::Shl:
    if (I.Ty == Type::I128)
      setI128(D(), static_cast<Int128>(static_cast<UInt128>(toI128(A()))
                                     << (B().Lo & 127)));
    else
      D().Lo = (A().Lo << (B().Lo & (intBits(I.Ty) - 1))) & maskFor(I.Ty);
    break;
  case Opcode::LShr:
    if (I.Ty == Type::I128)
      setI128(D(), static_cast<Int128>(static_cast<UInt128>(toI128(A())) >>
                                     (B().Lo & 127)));
    else
      D().Lo = A().Lo >> (B().Lo & (intBits(I.Ty) - 1));
    break;
  case Opcode::AShr:
    if (I.Ty == Type::I128)
      setI128(D(), toI128(A()) >> (B().Lo & 127));
    else
      D().Lo = static_cast<uint64_t>(sext(A().Lo, I.Ty) >>
                                   (B().Lo & (intBits(I.Ty) - 1))) &
             maskFor(I.Ty);
    break;
  case Opcode::RotR: { // Not defined for i128; the verifier rejects it.
    unsigned W = intBits(I.Ty);
    unsigned S = B().Lo & (W - 1);
    uint64_t X = A().Lo;
    D().Lo = S == 0 ? X : ((X >> S) | (X << (W - S))) & maskFor(I.Ty);
    break;
  }
  case Opcode::Neg:
    if (I.Ty == Type::I128)
      setI128(D(), static_cast<Int128>(0 - static_cast<UInt128>(toI128(A()))));
    else
      D().Lo = (0 - A().Lo) & maskFor(I.Ty);
    break;
  case Opcode::Not:
    D().Lo = ~A().Lo & maskFor(I.Ty);
    D().Hi = I.Ty == Type::I128 ? ~A().Hi : 0;
    break;

  case Opcode::SAddTrap:
    if (trapArith<Opcode::SAddTrap>(I.Ty, A(), B(), D()))
      return Dm.trap(rt::TrapCode::Overflow);
    break;
  case Opcode::SSubTrap:
    if (trapArith<Opcode::SSubTrap>(I.Ty, A(), B(), D()))
      return Dm.trap(rt::TrapCode::Overflow);
    break;
  case Opcode::SMulTrap:
    if (trapArith<Opcode::SMulTrap>(I.Ty, A(), B(), D()))
      return Dm.trap(rt::TrapCode::Overflow);
    break;

  case Opcode::Crc32:
    D().Lo = crc32u64(A().Lo, B().Lo);
    break;
  case Opcode::LongMulFold:
    D().Lo = longMulFold(A().Lo, B().Lo);
    break;

  case Opcode::FAdd:
    D().Lo = f64Bits(asF64(A().Lo) + asF64(B().Lo));
    break;
  case Opcode::FSub:
    D().Lo = f64Bits(asF64(A().Lo) - asF64(B().Lo));
    break;
  case Opcode::FMul:
    D().Lo = f64Bits(asF64(A().Lo) * asF64(B().Lo));
    break;
  case Opcode::FDiv:
    D().Lo = f64Bits(asF64(A().Lo) / asF64(B().Lo));
    break;
  case Opcode::FNeg:
    D().Lo = f64Bits(-asF64(A().Lo));
    break;

  case Opcode::ICmp:
    D().Lo = evalICmp(static_cast<CmpPred>(I.Flags), A(), B(),
                    Dm.fn().valueType(I.A));
    break;
  case Opcode::FCmp:
    D().Lo = evalFCmp(static_cast<CmpPred>(I.Flags), asF64(A().Lo),
                    asF64(B().Lo));
    break;
  case Opcode::Select:
    D() = A().Lo & 1 ? B() : C();
    break;

  case Opcode::ZExt:
  case Opcode::Bitcast:
  case Opcode::ExtractLo:
    D().Lo = A().Lo;
    D().Hi = 0;
    break;
  case Opcode::SExt: {
    int64_t X = sext(A().Lo, Dm.fn().valueType(I.A));
    if (I.Ty == Type::I128)
      setI128(D(), X);
    else
      D().Lo = static_cast<uint64_t>(X) & maskFor(I.Ty);
    break;
  }
  case Opcode::Trunc:
    D().Lo = A().Lo & maskFor(I.Ty);
    D().Hi = 0;
    break;
  case Opcode::SIToFP: // From i64 or narrower; the verifier rejects i128.
    D().Lo = f64Bits(
        static_cast<double>(sext(A().Lo, Dm.fn().valueType(I.A))));
    break;
  case Opcode::FPToSI:
    D().Lo = static_cast<uint64_t>(f64ToI64Trunc(asF64(A().Lo))) & maskFor(I.Ty);
    break;

  case Opcode::PackD128:
  case Opcode::PackI128:
    D().Lo = A().Lo;
    D().Hi = B().Lo;
    break;
  case Opcode::ExtractHi:
    D().Lo = A().Hi;
    D().Hi = 0;
    break;

  case Opcode::Gep: {
    uint64_t Addr = A().Lo + I.Imm;
    if (I.B != INVALID_VALUE)
      Addr += B().Lo * I.C;
    D().Lo = Addr;
    break;
  }
  }
  Dm.sym(I, D());
  return Flow::Next;
}

} // namespace qcf::qir::sem

#endif // QCF_QIR_SEMANTICS_H
