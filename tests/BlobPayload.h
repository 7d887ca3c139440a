//===- tests/BlobPayload.h - Code-blob payloads for tests -------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for the tests that persist DirectEmit, Stencil and Craneline
/// modules: Payload decomposes the shared code-blob payload (see
/// backend/CodeBlob.h) for surgical corruption and rebuilds it, and the
/// relocation module spans every runtime-call relocation kind a blob must
/// re-patch.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_TESTS_BLOBPAYLOAD_H
#define QCF_TESTS_BLOBPAYLOAD_H

#include "backend/Backend.h"
#include "qir/Builder.h"
#include "runtime/Runtime.h"
#include "support/ByteIo.h"
#include <gtest/gtest.h>

namespace qcf::test {

/// The shared code-blob section of a payload, decomposed, plus whatever a
/// back-end appends after it (DirectEmit's CFI table) as raw bytes.
struct Payload {
  std::vector<uint8_t> Code;
  struct Fn {
    std::string Name;
    uint64_t Offset, Size;
  };
  std::vector<Fn> Fns;
  struct Reloc {
    uint64_t Offset;
    std::string Symbol;
  };
  std::vector<Reloc> Relocs;
  std::vector<uint8_t> Trailer;

  static Payload parse(const std::vector<uint8_t> &Blob) {
    Payload P;
    ByteReader R(Blob.data(), Blob.size());
    auto [Code, CodeLen] = R.bytes();
    P.Code.assign(Code, Code + CodeLen);
    uint64_t NumFns = R.u64();
    for (uint64_t I = 0; I != NumFns && R.ok(); ++I) {
      Fn F;
      F.Name = R.str();
      F.Offset = R.u64();
      F.Size = R.u64();
      P.Fns.push_back(std::move(F));
    }
    uint64_t NumRelocs = R.u64();
    for (uint64_t I = 0; I != NumRelocs && R.ok(); ++I) {
      Reloc Rel;
      Rel.Offset = R.u64();
      Rel.Symbol = R.str();
      P.Relocs.push_back(std::move(Rel));
    }
    EXPECT_TRUE(R.ok()) << "code-blob payload failed to parse";
    P.Trailer.resize(R.remaining());
    R.raw(P.Trailer.data(), P.Trailer.size());
    return P;
  }

  std::vector<uint8_t> build() const {
    ByteWriter W;
    W.bytes(Code.data(), Code.size());
    W.u64(Fns.size());
    for (const Fn &F : Fns) {
      W.str(F.Name);
      W.u64(F.Offset);
      W.u64(F.Size);
    }
    W.u64(Relocs.size());
    for (const Reloc &R : Relocs) {
      W.u64(R.Offset);
      W.str(R.Symbol);
    }
    W.raw(Trailer.data(), Trailer.size());
    return W.take();
  }
};

/// Builds a module spanning every relocation kind a persisted blob must
/// re-patch against the live runtime: an explicit runtime call
/// (rt_crc32), an i128 shift that back-ends lower to the rt_shl128
/// helper, and a division whose trap stub targets rt_trap.
inline void buildRuntimeCallModule(qir::Module &M) {
  using qir::Type;
  qir::SymbolId Crc =
      M.declareRuntime("rt_crc32", Type::I64, {Type::I64, Type::I64},
                       rt::runtimeSymbolAddress("rt_crc32"));
  {
    qir::Function *F =
        M.createFunction("crc", {Type::I64, Type::I64}, Type::I64);
    qir::Builder B(F);
    B.ret(B.call(Crc, {F->paramValue(0), F->paramValue(1)}));
  }
  {
    qir::Function *F =
        M.createFunction("shl128", {Type::I64, Type::I64}, Type::I64);
    qir::Builder B(F);
    qir::ValueId X = B.packI128(F->paramValue(0), F->paramValue(1));
    qir::ValueId S = B.shl(X, B.constInt(Type::I64, 23));
    B.ret(B.xor_(B.extractLo(S), B.extractHi(S)));
  }
  {
    qir::Function *F =
        M.createFunction("divs", {Type::I64, Type::I64}, Type::I64);
    qir::Builder B(F);
    B.ret(B.sdiv(F->paramValue(0), F->paramValue(1)));
  }
}

/// Runs buildRuntimeCallModule's three entry points and checks them
/// against the runtime itself / plain C arithmetic.
inline void checkRuntimeCallModule(backend::CompiledModule &C) {
  using Fn2 = int64_t (*)(int64_t, int64_t);
  auto *CrcRt = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t)>(
      rt::runtimeSymbolAddress("rt_crc32"));
  ASSERT_NE(CrcRt, nullptr);
  auto *Crc = C.entryAs<Fn2>("crc");
  auto *Shl = C.entryAs<Fn2>("shl128");
  auto *Div = C.entryAs<Fn2>("divs");
  ASSERT_NE(Crc, nullptr);
  ASSERT_NE(Shl, nullptr);
  ASSERT_NE(Div, nullptr);
  for (int64_t A : {int64_t(0), int64_t(42), int64_t(-9000)})
    EXPECT_EQ(uint64_t(Crc(A, A * 31 + 5)),
              CrcRt(uint64_t(A), uint64_t(A * 31 + 5)));
  for (uint64_t Lo : {uint64_t(1), uint64_t(0xdeadbeefcafebabeull)}) {
    unsigned __int128 X = (static_cast<unsigned __int128>(7) << 64) | Lo;
    unsigned __int128 S = X << 23;
    EXPECT_EQ(uint64_t(Shl(int64_t(Lo), 7)),
              uint64_t(S) ^ uint64_t(S >> 64));
  }
  EXPECT_EQ(Div(100, 7), 14);
  EXPECT_EQ(Div(-100, 7), -14);
}

} // namespace qcf::test

#endif // QCF_TESTS_BLOBPAYLOAD_H
