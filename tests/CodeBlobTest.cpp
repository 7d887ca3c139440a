//===- tests/CodeBlobTest.cpp - Shared code-blob codec tests ---------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One suite over every back-end that persists its code as a
/// backend::CodeBlob (DirectEmit, Stencil, Craneline): a round trip must
/// execute and re-serialize byte-identically, and a truncated payload, an
/// unknown relocation symbol or an offset chosen so that a naive range
/// check wraps must all degrade to a cache miss (null), never to an
/// install.
///
//===----------------------------------------------------------------------===//

#include "backend/Registry.h"
#include "tests/BlobPayload.h"
#include <gtest/gtest.h>

using namespace qcf;
using namespace qcf::test;

namespace {

class CodeBlobCodec : public ::testing::TestWithParam<const char *> {
protected:
  void SetUp() override {
    buildRuntimeCallModule(M);
    BE = backend::createBackend(GetParam());
    ASSERT_NE(BE, nullptr);
    Fresh = BE->compile(M);
    ASSERT_NE(Fresh, nullptr);
    ASSERT_TRUE(Fresh->serialize(Blob));
  }

  std::unique_ptr<backend::CompiledModule>
  load(const std::vector<uint8_t> &Bytes) {
    return BE->deserialize(Bytes.data(), Bytes.size());
  }

  qir::Module M;
  std::unique_ptr<backend::Backend> BE;
  std::unique_ptr<backend::CompiledModule> Fresh;
  std::vector<uint8_t> Blob;
};

TEST_P(CodeBlobCodec, RoundTripExecutesAndReserializesIdentically) {
  auto Warm = load(Blob);
  ASSERT_NE(Warm, nullptr);
  checkRuntimeCallModule(*Warm);
  std::vector<uint8_t> Again;
  ASSERT_TRUE(Warm->serialize(Again));
  EXPECT_EQ(Again, Blob);
}

TEST_P(CodeBlobCodec, TruncatedBlobIsACacheMiss) {
  for (size_t Cut : {size_t(0), size_t(4), Blob.size() / 2, Blob.size() - 1})
    EXPECT_EQ(BE->deserialize(Blob.data(), Cut), nullptr)
        << "truncated at " << Cut;
}

TEST_P(CodeBlobCodec, UnknownRelocSymbolIsACacheMiss) {
  Payload P = Payload::parse(Blob);
  ASSERT_FALSE(P.Relocs.empty());
  P.Relocs[0].Symbol = "rt_no_such_helper";
  EXPECT_EQ(load(P.build()), nullptr);
}

TEST_P(CodeBlobCodec, WrappedRelocOffsetIsACacheMiss) {
  // Offset + 8 wraps to 4, inside the code: a check written as
  // `Offset + 8 > CodeLen` passes and the re-patch writes 8 bytes before
  // the scratch buffer.
  Payload P = Payload::parse(Blob);
  ASSERT_FALSE(P.Relocs.empty());
  P.Relocs[0].Offset = ~uint64_t(0) - 3;
  EXPECT_EQ(load(P.build()), nullptr);
}

TEST_P(CodeBlobCodec, WrappedFunctionOffsetIsACacheMiss) {
  // Offset + Size wraps to 16: a check written as `Offset + Size >
  // CodeLen` passes and entry() returns an address 16 bytes before the
  // module's code.
  Payload P = Payload::parse(Blob);
  ASSERT_FALSE(P.Fns.empty());
  ASSERT_GE(P.Code.size(), 16u);
  P.Fns[0].Offset = ~uint64_t(0) - 15;
  P.Fns[0].Size = 32;
  EXPECT_EQ(load(P.build()), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Backends, CodeBlobCodec,
                         ::testing::Values("DirectEmit", "Stencil",
                                           "Craneline"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

} // namespace
