//===- tests/SemanticsTest.cpp - Interpreter vs. tv stepper semantics -----===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter (the differential oracle) and the translation
/// validator's QIR reference stepper both evaluate instructions through
/// qir/Semantics.h, one over plain lanes and one over lanes plus symbolic
/// terms. This table runs every opcode the header covers, at every width
/// the verifier accepts, through InterpFunction::run and tv::runQirRound on
/// edge inputs — 0, ±1, min/max, shift amounts at and above the width, zero
/// divisors, INT_MIN / -1, NaN, ±inf, ±2^63 and i128 values with the high
/// lane set — and requires the same result lanes and the same trap code.
///
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "qir/Builder.h"
#include "qir/Semantics.h"
#include "qir/Verify.h"
#include "runtime/Trap.h"
#include "tv/Sim.h"
#include <cmath>
#include <functional>
#include <gtest/gtest.h>
#include <limits>
#include <sstream>

namespace {

using namespace qcf;
using qir::Builder;
using qir::CmpPred;
using qir::Opcode;
using qir::Type;
using qir::ValueId;

struct Lanes {
  uint64_t Lo = 0, Hi = 0;
  bool operator==(const Lanes &O) const { return Lo == O.Lo && Hi == O.Hi; }
};

struct Outcome {
  Lanes Ret;
  int Trap = 0;
  bool operator==(const Outcome &O) const {
    return Trap == O.Trap && (Trap != 0 || Ret == O.Ret);
  }
};

constexpr Type IntTypes[] = {Type::I1,  Type::I8,  Type::I16,
                             Type::I32, Type::I64, Type::I128};
constexpr Type NarrowIntTypes[] = {Type::I1, Type::I8, Type::I16, Type::I32,
                                   Type::I64};
constexpr CmpPred Preds[] = {CmpPred::Eq,  CmpPred::Ne,  CmpPred::SLt,
                             CmpPred::SLe, CmpPred::SGt, CmpPred::SGe,
                             CmpPred::ULt, CmpPred::ULe, CmpPred::UGt,
                             CmpPred::UGe};

Lanes ofI128(Int128 V) { return {lo64(V), hi64(V)}; }
Lanes ofF64(double D) { return {qir::sem::f64Bits(D), 0}; }

/// Edge inputs of one type, zero-extended as the steppers keep them.
std::vector<Lanes> edges(Type Ty) {
  std::vector<Lanes> V;
  auto Add = [&](Lanes L) {
    for (const Lanes &X : V)
      if (X == L)
        return;
    V.push_back(L);
  };
  switch (Ty) {
  case Type::I128: {
    Int128 Min = static_cast<Int128>(static_cast<UInt128>(1) << 127);
    for (Int128 X : {Int128(0), Int128(1), Int128(-1), Int128(3), Int128(-3),
                     Int128(127), Int128(128), Min, ~Min,
                     Int128(1) << 64, (Int128(1) << 64) - 1,
                     -(Int128(1) << 64), Int128(INT64_MIN),
                     makeInt128(0xfedcba9876543210ull, 0x123456789ull)})
      Add(ofI128(X));
    return V;
  }
  case Type::F64: {
    const double Inf = std::numeric_limits<double>::infinity();
    for (double D : {0.0, -0.0, 1.0, -1.0, 1.5, -2.5, std::nan(""), Inf, -Inf,
                     9223372036854775808.0, -9223372036854775808.0,
                     9223372036854774784.0, 1e300, 4.9e-324})
      Add(ofF64(D));
    return V;
  }
  case Type::Ptr:
    for (uint64_t X : {0x0ull, 0x8ull, 0x7700000010ull, ~0ull})
      Add({X, 0});
    return V;
  case Type::D128:
    for (Lanes L : {Lanes{0, 0}, Lanes{5, 0x7700000000ull}, Lanes{~0ull, 1}})
      Add(L);
    return V;
  default: {
    uint64_t M = qir::sem::maskFor(Ty);
    unsigned W = qir::intBits(Ty);
    for (uint64_t X : {uint64_t(0), uint64_t(1), M, M - 1, M >> 1,
                       (M >> 1) + 1, uint64_t(W), uint64_t(W) + 1,
                       uint64_t(2 * W - 1), uint64_t(3),
                       uint64_t(0x5a5a5a5a5a5a5a5aull)})
      Add({X & M, 0});
    return V;
  }
  }
}

std::string show(const std::vector<uint64_t> &Args) {
  std::ostringstream OS;
  OS << std::hex << "(";
  for (size_t I = 0; I != Args.size(); ++I)
    OS << (I ? ", 0x" : "0x") << Args[I];
  OS << ")";
  return OS.str();
}

/// Interpreter traps seen since the last reset, so a test can require
/// that its edge inputs really reach the trap paths.
struct Tally {
  uint64_t DivByZero = 0, Overflow = 0;
};
Tally Seen;

/// Builds `f(Params) -> Ret { ret Body(params) }`, verifies it, and runs it
/// through both steppers on every combination of the params' edge inputs.
void checkBoth(const std::string &What, std::vector<Type> Params, Type Ret,
               const std::function<ValueId(Builder &)> &Body) {
  qir::Module M;
  qir::Function *F = M.createFunction("f", Params, Ret);
  Builder B(F);
  B.ret(Body(B));
  std::optional<std::string> Err = qir::verify(M);
  ASSERT_FALSE(Err) << What << ": " << *Err;

  interp::InterpFunction Interp(*F);
  tv::TermArena TA(1 << 16);
  tv::SlotLayout Slots = tv::computeSlotLayout(*F);
  tv::RoundCtx RC;

  std::vector<std::vector<Lanes>> Edge;
  for (Type Ty : Params)
    Edge.push_back(edges(Ty));
  std::vector<size_t> Pick(Params.size(), 0);
  unsigned Failures = 0;
  for (;;) {
    std::vector<uint64_t> Args;
    for (size_t P = 0; P != Params.size(); ++P) {
      Args.push_back(Edge[P][Pick[P]].Lo);
      if (qir::isTwoLane(Params[P]))
        Args.push_back(Edge[P][Pick[P]].Hi);
    }

    Outcome I;
    I.Trap = static_cast<int>(rt::runWithTrapGuard([&] {
      interp::Slot S = Interp.run(Args.data(), Args.size());
      I.Ret = {S.Lo, S.Hi};
    }));

    std::vector<tv::TermRef> Terms;
    for (unsigned K = 0; K != Args.size(); ++K)
      Terms.push_back(TA.param(K));
    tv::Trace T = tv::runQirRound(*F, M, Slots, RC, Args, Terms, TA);
    Outcome V;
    ASSERT_EQ(T.Events.size(), 1u) << What << show(Args);
    const tv::Event &E = T.Events.front();
    ASSERT_TRUE(E.K == tv::Event::Ret || E.K == tv::Event::Trap)
        << What << show(Args);
    if (E.K == tv::Event::Trap)
      V.Trap = E.TrapCode;
    else
      V.Ret = {E.RetLo, E.RetHi};

    Seen.DivByZero += I.Trap == int(rt::TrapCode::DivByZero);
    Seen.Overflow += I.Trap == int(rt::TrapCode::Overflow);
    if (!(I == V)) {
      ADD_FAILURE() << What << show(Args) << ": interp {trap " << I.Trap
                    << ", 0x" << std::hex << I.Ret.Lo << ", 0x" << I.Ret.Hi
                    << "} vs tv {trap " << std::dec << V.Trap << ", 0x"
                    << std::hex << V.Ret.Lo << ", 0x" << V.Ret.Hi << "}";
      if (++Failures == 5)
        return;
    }

    size_t P = 0;
    while (P != Pick.size() && ++Pick[P] == Edge[P].size())
      Pick[P++] = 0;
    if (P == Pick.size())
      return;
  }
}

std::string name(Opcode Op, Type Ty) {
  return std::string(qir::opcodeName(Op)) + "." + qir::typeName(Ty);
}

void checkBinary(Opcode Op, Type Ty) {
  checkBoth(name(Op, Ty), {Ty, Ty}, Ty,
            [&](Builder &B) { return B.binary(Op, 0, 1); });
}

TEST(Semantics, WrappingAndBitwiseArithmetic) {
  for (Opcode Op : {Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::And,
                    Opcode::Or, Opcode::Xor})
    for (Type Ty : IntTypes)
      checkBinary(Op, Ty);
  for (Type Ty : IntTypes) {
    checkBoth(name(Opcode::Neg, Ty), {Ty}, Ty,
              [](Builder &B) { return B.neg(0); });
    checkBoth(name(Opcode::Not, Ty), {Ty}, Ty,
              [](Builder &B) { return B.not_(0); });
  }
  checkBinary(Opcode::Crc32, Type::I64);
  checkBinary(Opcode::LongMulFold, Type::I64);
}

TEST(Semantics, DivisionAndItsTraps) {
  Seen = {};
  for (Opcode Op : {Opcode::SDiv, Opcode::UDiv, Opcode::SRem})
    for (Type Ty : IntTypes)
      checkBinary(Op, Ty);
  EXPECT_GT(Seen.DivByZero, 0u);
  EXPECT_GT(Seen.Overflow, 0u) << "INT_MIN / -1 was not reached";
}

TEST(Semantics, OverflowTrappingArithmetic) {
  Seen = {};
  for (Opcode Op : {Opcode::SAddTrap, Opcode::SSubTrap, Opcode::SMulTrap})
    for (Type Ty : {Type::I32, Type::I64, Type::I128})
      checkBinary(Op, Ty);
  EXPECT_GT(Seen.Overflow, 0u);
}

TEST(Semantics, ShiftsAndRotates) {
  for (Opcode Op : {Opcode::Shl, Opcode::LShr, Opcode::AShr})
    for (Type Ty : IntTypes)
      checkBinary(Op, Ty);
  for (Type Ty : NarrowIntTypes) // The verifier rejects an i128 rotate.
    checkBinary(Opcode::RotR, Ty);
}

TEST(Semantics, FloatingPoint) {
  for (Opcode Op : {Opcode::FAdd, Opcode::FSub, Opcode::FMul, Opcode::FDiv})
    checkBinary(Op, Type::F64);
  checkBoth("fneg", {Type::F64}, Type::F64,
            [](Builder &B) { return B.fneg(0); });
}

TEST(Semantics, Comparisons) {
  for (CmpPred P : Preds) {
    for (Type Ty : {Type::I1, Type::I8, Type::I16, Type::I32, Type::I64,
                    Type::I128, Type::Ptr})
      checkBoth(name(Opcode::ICmp, Ty) + "." + qir::cmpPredName(P), {Ty, Ty},
                Type::I1, [&](Builder &B) { return B.icmp(P, 0, 1); });
    checkBoth(std::string("fcmp.") + qir::cmpPredName(P),
              {Type::F64, Type::F64}, Type::I1,
              [&](Builder &B) { return B.fcmp(P, 0, 1); });
  }
}

TEST(Semantics, Select) {
  for (Type Ty : {Type::I1, Type::I8, Type::I32, Type::I64, Type::I128,
                  Type::F64, Type::Ptr, Type::D128})
    checkBoth(name(Opcode::Select, Ty), {Type::I1, Ty, Ty}, Ty,
              [](Builder &B) { return B.select(0, 1, 2); });
}

TEST(Semantics, Conversions) {
  for (Type From : IntTypes)
    for (Type To : IntTypes) {
      if (qir::intBits(To) > qir::intBits(From)) {
        checkBoth(name(Opcode::ZExt, From) + "." + qir::typeName(To), {From},
                  To, [&](Builder &B) { return B.zext(To, 0); });
        checkBoth(name(Opcode::SExt, From) + "." + qir::typeName(To), {From},
                  To, [&](Builder &B) { return B.sext(To, 0); });
      } else if (qir::intBits(To) < qir::intBits(From)) {
        checkBoth(name(Opcode::Trunc, From) + "." + qir::typeName(To), {From},
                  To, [&](Builder &B) { return B.trunc(To, 0); });
      }
    }
  for (Type Ty : NarrowIntTypes) { // The verifier rejects i128 here.
    checkBoth(name(Opcode::SIToFP, Ty), {Ty}, Type::F64,
              [](Builder &B) { return B.sitofp(0); });
    checkBoth(name(Opcode::FPToSI, Ty), {Type::F64}, Ty,
              [&](Builder &B) { return B.fptosi(Ty, 0); });
  }
  for (auto [From, To] : {std::pair{Type::I64, Type::F64},
                          std::pair{Type::F64, Type::I64},
                          std::pair{Type::Ptr, Type::I64},
                          std::pair{Type::I64, Type::Ptr}})
    checkBoth(name(Opcode::Bitcast, From) + "." + qir::typeName(To), {From},
              To, [&](Builder &B) { return B.bitcast(To, 0); });
}

TEST(Semantics, LanesAndAddresses) {
  checkBoth("pack.i128", {Type::I64, Type::I64}, Type::I128,
            [](Builder &B) { return B.packI128(0, 1); });
  checkBoth("pack.d128", {Type::I64, Type::I64}, Type::D128,
            [](Builder &B) { return B.packD128(0, 1); });
  for (Type Ty : {Type::I128, Type::D128}) {
    checkBoth(name(Opcode::ExtractLo, Ty), {Ty}, Type::I64,
              [](Builder &B) { return B.extractLo(0); });
    checkBoth(name(Opcode::ExtractHi, Ty), {Ty}, Type::I64,
              [](Builder &B) { return B.extractHi(0); });
  }
  checkBoth("gep.imm", {Type::Ptr}, Type::Ptr,
            [](Builder &B) { return B.gep(0, -24); });
  checkBoth("gep.indexed", {Type::Ptr, Type::I64}, Type::Ptr,
            [](Builder &B) { return B.gepIndexed(0, 1, 8, 16); });
}

TEST(Semantics, Constants) {
  for (Type Ty : NarrowIntTypes)
    for (int64_t C : {int64_t(0), int64_t(1), int64_t(-1), INT64_MIN,
                      int64_t(0x1234567887654321)})
      checkBoth(name(Opcode::ConstInt, Ty), {}, Ty,
                [&](Builder &B) { return B.constInt(Ty, C); });
  for (const Lanes &L : edges(Type::I128))
    checkBoth("const.i128", {}, Type::I128, [&](Builder &B) {
      return B.constI128(makeInt128(L.Lo, L.Hi));
    });
  for (const Lanes &L : edges(Type::F64))
    checkBoth("const.f64", {}, Type::F64, [&](Builder &B) {
      return B.constF64(qir::sem::asF64(L.Lo));
    });
  checkBoth("const.ptr", {}, Type::Ptr, [](Builder &B) {
    return B.constPtr(reinterpret_cast<const void *>(0x7700000010ull));
  });
}

} // namespace
