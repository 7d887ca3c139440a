//===- tests/PropertyTest.cpp - Randomized differential tests --------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based testing: for random QIR functions and random inputs,
/// every back-end must reproduce the interpreter's results and traps
/// exactly. Parameterized over generator seeds.
///
//===----------------------------------------------------------------------===//

#include "direct/DirectEmit.h"
#include "interp/Interp.h"
#include "tests/DiffHarness.h"
#include "tests/RandomQir.h"
#include <gtest/gtest.h>

using namespace qcf;
using namespace qcf::test;

/// Compares one back-end against the interpreter on one random module.
void qcf::test::runRandomDifferentialFor(backend::Backend &BE,
                                         uint64_t Seed) {
  qir::Module M;
  Rng R(Seed);
  RandomFnBuilder Gen(M, R);
  constexpr unsigned FnsPerModule = 4;
  for (unsigned I = 0; I != FnsPerModule; ++I)
    Gen.build("rand" + std::to_string(I));
  auto Err = qir::verify(M);
  ASSERT_EQ(Err, std::nullopt) << "seed " << Seed << ": " << Err.value_or("");

  interp::InterpBackend Baseline;
  auto Ref = Baseline.compile(M);
  auto Got = BE.compile(M);

  Rng InputRng(Seed ^ 0xabcdef);
  for (unsigned I = 0; I != FnsPerModule; ++I) {
    std::string Name = "rand" + std::to_string(I);
    void *RefEntry = Ref->entry(Name);
    void *GotEntry = Got->entry(Name);
    ASSERT_NE(GotEntry, nullptr);
    for (unsigned K = 0; K != 8; ++K) {
      std::vector<uint64_t> Args = {InputRng.next(), InputRng.next()};
      if (K == 0)
        Args = {0, 0};
      if (K == 1)
        Args = {~0ull, 1};
      CaseOutcome Expected = invokeEntry(RefEntry, Args);
      CaseOutcome Actual = invokeEntry(GotEntry, Args);
      ASSERT_EQ(Expected.Trapped, Actual.Trapped)
          << Name << " seed=" << Seed << " args=(" << Args[0] << ","
          << Args[1] << ")";
      if (!Expected.Trapped) {
        ASSERT_EQ(Expected.Lo, Actual.Lo)
            << Name << " seed=" << Seed << " args=(" << Args[0] << ","
            << Args[1] << ")";
      }
    }
  }
}

namespace {
class DirectProperty : public ::testing::TestWithParam<uint64_t> {};
} // namespace

TEST_P(DirectProperty, MatchesInterpreterOnRandomFunctions) {
  direct::DirectBackend B;
  runRandomDifferentialFor(B, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectProperty,
                         ::testing::Range<uint64_t>(0, 40));
