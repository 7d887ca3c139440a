//===- tests/RuntimeTest.cpp - Runtime library unit tests ------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "db/Table.h"
#include "runtime/Runtime.h"
#include "support/Hash.h"
#include <cstring>
#include <gtest/gtest.h>
#include <set>
#include <thread>
#include <vector>

using namespace qcf;
using namespace qcf::rt;

// --- StringVal ---------------------------------------------------------------

TEST(StringVal, InlineLayout) {
  StringVal S = StringVal::makeRef("hello", 5);
  EXPECT_TRUE(S.isInline());
  EXPECT_EQ(S.Len, 5u);
  EXPECT_EQ(S.str(), "hello");
  // Bytes 4..8 hold 'h','e','l','l','o'.
  const char *Raw = reinterpret_cast<const char *>(&S);
  EXPECT_EQ(Raw[4], 'h');
  EXPECT_EQ(Raw[8], 'o');
}

TEST(StringVal, TwelveByteBoundary) {
  StringVal S12 = StringVal::makeRef("abcdefghijkl", 12);
  EXPECT_TRUE(S12.isInline());
  EXPECT_EQ(S12.str(), "abcdefghijkl");
  const char *Long = "abcdefghijklm";
  StringVal S13 = StringVal::makeRef(Long, 13);
  EXPECT_FALSE(S13.isInline());
  EXPECT_EQ(S13.str(), "abcdefghijklm");
  // Long form: prefix holds the first four characters, pointer the data.
  EXPECT_EQ(std::memcmp(S13.Prefix, "abcd", 4), 0);
  EXPECT_EQ(S13.Data, Long);
}

TEST(StringVal, LaneRoundTrip) {
  StringVal S = StringVal::makeRef("lane trip", 9);
  StringVal T = StringVal::fromLanes(S.lo(), S.hi());
  EXPECT_TRUE(stringEq(S, T));
}

TEST(StringVal, ComparisonSemantics) {
  StringVal A = StringVal::makeRef("apple", 5);
  StringVal B = StringVal::makeRef("apples", 6);
  StringVal C = StringVal::makeRef("banana", 6);
  EXPECT_LT(stringCmp(A, B), 0);
  EXPECT_GT(stringCmp(B, A), 0);
  EXPECT_LT(stringCmp(A, C), 0);
  EXPECT_EQ(stringCmp(A, A), 0);
  EXPECT_TRUE(stringEq(A, A));
  EXPECT_FALSE(stringEq(A, B));
}

TEST(StringVal, PrefixEarlyOut) {
  // Equal length, different prefix word: must not be equal.
  StringVal A = StringVal::makeRef("abcdX", 5);
  StringVal B = StringVal::makeRef("abceX", 5);
  EXPECT_FALSE(stringEq(A, B));
}

namespace {

/// The bytes of an inline string past its length are zero: stringEq
/// compares that padding as part of a word.
bool inlinePaddingIsZero(const StringVal &S) {
  if (!S.isInline())
    return true;
  const auto *Raw = reinterpret_cast<const uint8_t *>(&S);
  for (size_t I = 4 + S.Len; I != sizeof(StringVal); ++I)
    if (Raw[I] != 0)
      return false;
  return true;
}

} // namespace

TEST(StringVal, ProducersZeroPadInlineStrings) {
  // Source bytes past each length are junk, so any producer copying more
  // than it should shows up.
  const char Src[] = "abcdefghijklmnopqrstuvwxyz";
  Arena A;
  db::Table T("t");
  for (uint32_t Len = 0; Len <= StringVal::InlineCap; ++Len) {
    SCOPED_TRACE(Len);
    EXPECT_TRUE(inlinePaddingIsZero(StringVal::makeRef(Src, Len)));
    EXPECT_TRUE(inlinePaddingIsZero(T.makeString(std::string(Src, Len))));
    StringVal Long = StringVal::makeRef(Src, 26);
    EXPECT_TRUE(inlinePaddingIsZero(rt_str_substr(&A, Long, 3, Len)));
    StringVal Head = StringVal::makeRef(Src, Len / 2);
    StringVal Tail = StringVal::makeRef(Src + 10, Len - Len / 2);
    EXPECT_TRUE(inlinePaddingIsZero(rt_str_concat(&A, Head, Tail)));
  }
}

TEST(StringVal, EqualityMatchesByteWiseReference) {
  // Lengths 0-20 cross the inline/pointer boundary at 12. Pairs share a
  // prefix and differ in one tail byte, or differ only in length; long
  // strings also compare against a copy in other storage.
  std::string Base = "0123456789abcdefghijk";
  auto Ref = [](const std::string &X, const std::string &Y) { return X == Y; };
  std::vector<std::string> Strs;
  for (size_t Len = 0; Len <= 20; ++Len) {
    Strs.push_back(Base.substr(0, Len));
    for (size_t Pos = 0; Pos < Len; Pos += 3) {
      std::string V = Base.substr(0, Len);
      V[Pos] = '#';
      Strs.push_back(V);
    }
  }
  std::vector<std::string> Copies = Strs; // Distinct long-string storage.
  for (const std::string &X : Strs)
    for (size_t J = 0; J != Strs.size(); ++J) {
      StringVal SX = StringVal::makeRef(X.data(), uint32_t(X.size()));
      StringVal SY =
          StringVal::makeRef(Strs[J].data(), uint32_t(Strs[J].size()));
      StringVal SC =
          StringVal::makeRef(Copies[J].data(), uint32_t(Copies[J].size()));
      EXPECT_EQ(stringEq(SX, SY), Ref(X, Strs[J])) << X << " vs " << Strs[J];
      EXPECT_EQ(stringEq(SX, SC), Ref(X, Copies[J])) << X << " vs copy";
      EXPECT_EQ(rt_str_eq(SX, SC) != 0, Ref(X, Copies[J]));
    }
}

TEST(RtString, ContainsAndPrefix) {
  StringVal Hay = StringVal::makeRef("the quick brown fox", 19);
  EXPECT_EQ(rt_str_contains(Hay, StringVal::makeRef("quick", 5)), 1u);
  EXPECT_EQ(rt_str_contains(Hay, StringVal::makeRef("slow", 4)), 0u);
  EXPECT_EQ(rt_str_contains(Hay, StringVal::makeRef("", 0)), 1u);
  EXPECT_EQ(rt_str_prefix(Hay, StringVal::makeRef("the q", 5)), 1u);
  EXPECT_EQ(rt_str_prefix(Hay, StringVal::makeRef("quick", 5)), 0u);
}

TEST(RtString, Like) {
  StringVal S = StringVal::makeRef("promo burnished", 15);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("promo%", 6)), 1u);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("%burnished", 10)), 1u);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("%bur%", 5)), 1u);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("%burx%", 6)), 0u);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("promo burnishe_", 15)), 1u);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("_romo%", 6)), 1u);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("x%", 2)), 0u);
}

TEST(RtString, ConcatAndSubstr) {
  Arena A;
  StringVal S1 = StringVal::makeRef("query ", 6);
  StringVal S2 = StringVal::makeRef("compilation", 11);
  StringVal Cat = rt_str_concat(&A, S1, S2);
  EXPECT_EQ(Cat.str(), "query compilation");
  StringVal Sub = rt_str_substr(&A, Cat, 6, 7);
  EXPECT_EQ(Sub.str(), "compila");
  StringVal Short = rt_str_concat(&A, StringVal::makeRef("ab", 2),
                                  StringVal::makeRef("cd", 2));
  EXPECT_TRUE(Short.isInline());
  EXPECT_EQ(Short.str(), "abcd");
  StringVal OutOfRange = rt_str_substr(&A, Cat, 100, 5);
  EXPECT_EQ(OutOfRange.Len, 0u);
}

TEST(RtString, HashConsistentWithHost) {
  StringVal S = StringVal::makeRef("lineitem", 8);
  EXPECT_EQ(rt_str_hash(S), stringHash(S));
  EXPECT_NE(rt_str_hash(S), rt_str_hash(StringVal::makeRef("lineitems", 9)));
}

// --- HashTable -----------------------------------------------------------------

TEST(HashTable, InsertAndLookup) {
  HashTable Ht(100, 16);
  struct Payload {
    uint64_t Key, Value;
  };
  for (uint64_t K = 0; K != 100; ++K) {
    auto *P = static_cast<Payload *>(Ht.insert(hashU64(K)));
    P->Key = K;
    P->Value = K * 10;
  }
  EXPECT_EQ(Ht.count(), 100u);
  for (uint64_t K = 0; K != 100; ++K) {
    void *E = Ht.lookup(hashU64(K));
    ASSERT_NE(E, nullptr);
    // Walk the chain to find the matching key (hash collisions possible).
    bool Found = false;
    while (E) {
      auto *P = reinterpret_cast<Payload *>(static_cast<char *>(E) +
                                            HashTable::HeaderBytes);
      if (P->Key == K) {
        EXPECT_EQ(P->Value, K * 10);
        Found = true;
        break;
      }
      E = HashTable::nextMatch(E, hashU64(K));
    }
    EXPECT_TRUE(Found) << "key " << K;
  }
  EXPECT_EQ(Ht.lookup(hashU64(1234567)), nullptr);
}

TEST(HashTable, DuplicateHashesChain) {
  HashTable Ht(10, 8);
  uint64_t H = 0x1234;
  for (uint64_t I = 0; I != 5; ++I)
    *static_cast<uint64_t *>(Ht.insert(H)) = I;
  std::set<uint64_t> Seen;
  for (void *E = Ht.lookup(H); E; E = HashTable::nextMatch(E, H))
    Seen.insert(*reinterpret_cast<uint64_t *>(static_cast<char *>(E) +
                                              HashTable::HeaderBytes));
  EXPECT_EQ(Seen, (std::set<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(HashTable, DenseIterationOrder) {
  HashTable Ht(10, 8);
  for (uint64_t I = 0; I != 50; ++I)
    *static_cast<uint64_t *>(Ht.insert(I * 7)) = I;
  ASSERT_EQ(Ht.count(), 50u);
  for (uint64_t I = 0; I != 50; ++I) {
    auto *P = reinterpret_cast<uint64_t *>(
        static_cast<char *>(Ht.entryAt(I)) + HashTable::HeaderBytes);
    EXPECT_EQ(*P, I); // insertion order
  }
}

TEST(HashTable, GrowsBeyondExpectation) {
  HashTable Ht(4, 8);
  for (uint64_t I = 0; I != 10000; ++I)
    *static_cast<uint64_t *>(Ht.insert(hashU64(I))) = I;
  EXPECT_EQ(Ht.count(), 10000u);
  void *E = Ht.lookup(hashU64(9999));
  ASSERT_NE(E, nullptr);
}

TEST(HashTable, AtomicInsertFromThreads) {
  HashTable Ht(4096, 8);
  constexpr int NumThreads = 4, PerThread = 1000;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&Ht, T] {
      for (uint64_t I = 0; I != PerThread; ++I) {
        uint64_t K = static_cast<uint64_t>(T) * PerThread + I;
        *static_cast<uint64_t *>(Ht.insertAtomic(hashU64(K))) = K;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Ht.count(), static_cast<uint64_t>(NumThreads) * PerThread);
  // Every key must be findable.
  for (uint64_t K = 0; K != NumThreads * PerThread; ++K) {
    bool Found = false;
    for (void *E = Ht.lookup(hashU64(K)); E;
         E = HashTable::nextMatch(E, hashU64(K)))
      if (*reinterpret_cast<uint64_t *>(static_cast<char *>(E) +
                                        HashTable::HeaderBytes) == K)
        Found = true;
    EXPECT_TRUE(Found) << "key " << K;
    if (!Found)
      break;
  }
}

// --- Traps ---------------------------------------------------------------------

TEST(Trap, GuardCatchesTrap) {
  rt::TrapCode Code = runWithTrapGuard(
      [] { rt_trap(static_cast<uint64_t>(TrapCode::Overflow)); });
  EXPECT_EQ(Code, TrapCode::Overflow);
}

TEST(Trap, NestedGuards) {
  rt::TrapCode Outer = runWithTrapGuard([] {
    rt::TrapCode Inner = runWithTrapGuard(
        [] { rt_trap(static_cast<uint64_t>(TrapCode::DivByZero)); });
    EXPECT_EQ(Inner, TrapCode::DivByZero);
    // The outer guard is restored; trap again.
    rt_trap(static_cast<uint64_t>(TrapCode::Overflow));
  });
  EXPECT_EQ(Outer, TrapCode::Overflow);
}

TEST(Trap, NoTrapReturnsNone) {
  EXPECT_EQ(runWithTrapGuard([] {}), TrapCode::None);
}

TEST(Trap, Mul128HelperTraps) {
  Int128 Big = makeInt128(0, 1ull << 62);
  rt::TrapCode Code = runWithTrapGuard([&] { rt_mul128_ovf(Big, 4); });
  EXPECT_EQ(Code, TrapCode::Overflow);
  EXPECT_EQ(runWithTrapGuard([&] {
              Int128 R = rt_mul128_ovf(1000, 1000);
              EXPECT_EQ(R, 1000000);
            }),
            TrapCode::None);
}

// --- Dates -----------------------------------------------------------------------

TEST(Dates, KnownDates) {
  EXPECT_EQ(dateFromYmd(1970, 1, 1), 0);
  EXPECT_EQ(dateFromYmd(1970, 1, 2), 1);
  EXPECT_EQ(dateFromYmd(1969, 12, 31), -1);
  EXPECT_EQ(dateFromYmd(2000, 3, 1), 11017);
  EXPECT_EQ(rt_date_year(dateFromYmd(1995, 6, 17)), 1995);
  EXPECT_EQ(rt_date_month(dateFromYmd(1995, 6, 17)), 6);
  EXPECT_EQ(rt_date_year(dateFromYmd(2024, 2, 29)), 2024);
  EXPECT_EQ(rt_date_month(dateFromYmd(2024, 12, 31)), 12);
}

TEST(Dates, RoundTripSweep) {
  for (int64_t D = -1000; D <= 30000; D += 37) {
    int64_t Y = rt_date_year(D);
    int64_t M = rt_date_month(D);
    EXPECT_GE(M, 1);
    EXPECT_LE(M, 12);
    EXPECT_GE(Y, 1967);
    EXPECT_LE(Y, 2053);
  }
}

// --- OutputBuffer ----------------------------------------------------------------

TEST(OutputBuffer, RowsAndText) {
  OutputBuffer O;
  O.beginRow();
  O.appendI64(42);
  O.appendStr(StringVal::makeRef("abc", 3));
  O.beginRow();
  O.appendF64(2.5);
  O.appendI128(makeInt128(5, 0));
  EXPECT_EQ(O.numRows(), 2u);
  std::string Text = O.toText();
  EXPECT_NE(Text.find("42|abc"), std::string::npos);
  EXPECT_NE(Text.find("2.500000|5"), std::string::npos);
}

TEST(OutputBuffer, I128Rendering) {
  OutputBuffer O;
  O.beginRow();
  O.appendI128(static_cast<Int128>(-1));
  O.beginRow();
  Int128 Big = makeInt128(0x0ull, 0x1ull); // 2^64
  O.appendI128(Big);
  std::string Text = O.toText();
  EXPECT_NE(Text.find("-1"), std::string::npos);
  EXPECT_NE(Text.find("18446744073709551616"), std::string::npos);
}

TEST(OutputBuffer, UnorderedDigestIgnoresRowOrder) {
  OutputBuffer A, B;
  A.beginRow();
  A.appendI64(1);
  A.beginRow();
  A.appendI64(2);
  B.beginRow();
  B.appendI64(2);
  B.beginRow();
  B.appendI64(1);
  EXPECT_EQ(A.unorderedDigest(), B.unorderedDigest());
  B.beginRow();
  B.appendI64(3);
  EXPECT_NE(A.unorderedDigest(), B.unorderedDigest());
}

TEST(OutputBuffer, EqualsWithFloatTolerance) {
  OutputBuffer A, B;
  A.beginRow();
  A.appendF64(1.0);
  B.beginRow();
  B.appendF64(1.0 + 1e-13);
  EXPECT_TRUE(A.equals(B));
  OutputBuffer C;
  C.beginRow();
  C.appendF64(1.1);
  EXPECT_FALSE(A.equals(C));
}

TEST(OutputBuffer, StringsCopiedIntoBuffer) {
  OutputBuffer O;
  {
    std::string Tmp = "a rather long string beyond inline";
    O.beginRow();
    O.appendStr(
        StringVal::makeRef(Tmp.data(), static_cast<uint32_t>(Tmp.size())));
  } // Tmp destroyed; the buffer must have copied the bytes.
  EXPECT_NE(O.toText().find("a rather long string beyond inline"),
            std::string::npos);
}

// --- C ABI entry points -------------------------------------------------------------

TEST(RuntimeCAbi, OutFunctions) {
  OutputBuffer O;
  rt_out_row(&O);
  rt_out_i64(&O, -5);
  double D = 1.25;
  uint64_t Bits;
  std::memcpy(&Bits, &D, 8);
  rt_out_f64bits(&O, Bits);
  rt_out_i128(&O, makeInt128(7, 0));
  rt_out_str(&O, StringVal::makeRef("xy", 2));
  EXPECT_EQ(O.numRows(), 1u);
  EXPECT_NE(O.toText().find("-5|1.250000|7|xy"), std::string::npos);
}

TEST(RuntimeCAbi, SymbolTableComplete) {
  // Every symbol declared by declareRuntime must resolve to an address.
  qir::Module M;
  RuntimeSyms Syms = declareRuntime(M);
  (void)Syms;
  for (qir::SymbolId I = 0; I != M.numSymbols(); ++I) {
    EXPECT_NE(M.symbol(I).Address, nullptr) << M.symbol(I).Name;
    EXPECT_EQ(M.symbol(I).Address, runtimeSymbolAddress(M.symbol(I).Name));
  }
}

TEST(RuntimeCAbi, RuntimeSigSlotLimit) {
  // The ABI contract: no declared runtime function exceeds 6 slots.
  qir::Module M;
  declareRuntime(M);
  for (qir::SymbolId I = 0; I != M.numSymbols(); ++I) {
    unsigned Slots = 0;
    for (qir::Type T : M.symbol(I).ParamTypes)
      Slots += qir::isTwoLane(T) ? 2 : 1;
    EXPECT_LE(Slots, 6u) << M.symbol(I).Name;
  }
}

TEST(RuntimeCAbi, ArenaAlloc) {
  Arena A;
  void *P1 = rt_arena_alloc(&A, 100);
  void *P2 = rt_arena_alloc(&A, 100);
  EXPECT_NE(P1, nullptr);
  EXPECT_NE(P1, P2);
  std::memset(P1, 0xaa, 100);
  std::memset(P2, 0xbb, 100);
  EXPECT_EQ(static_cast<uint8_t *>(P1)[99], 0xaa);
}

TEST(RuntimeCAbi, SortWithHostComparator) {
  struct Row {
    int64_t Key;
    int64_t Payload;
  };
  Row Rows[] = {{3, 30}, {1, 10}, {2, 20}, {1, 11}};
  auto Cmp = +[](const void *A, const void *B) -> int64_t {
    return static_cast<const Row *>(A)->Key - static_cast<const Row *>(B)->Key;
  };
  rt_sort(Rows, 4, sizeof(Row), reinterpret_cast<void *>(Cmp));
  EXPECT_EQ(Rows[0].Key, 1);
  EXPECT_EQ(Rows[1].Key, 1);
  // Stable: (1,10) before (1,11).
  EXPECT_EQ(Rows[0].Payload, 10);
  EXPECT_EQ(Rows[1].Payload, 11);
  EXPECT_EQ(Rows[3].Key, 3);
}

TEST(RuntimeCAbi, SortOfNothingIsANoOp) {
  auto Cmp = +[](const void *, const void *) -> int64_t { return 0; };
  rt_sort(nullptr, 0, 16, reinterpret_cast<void *>(Cmp));
}
