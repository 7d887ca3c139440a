//===- tests/CodeHeapTest.cpp - Executable code heap tests -----------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
//
// The heap itself (reuse, coalescing, chunk release, int3 fill, the
// no-memfd fallback, concurrent installs, fork) and its contract
// with the back-ends: a module's code goes back to the heap when the
// module dies, so a capacity-1 L1 over a warm disk cache runs in the code
// of two modules no matter how often it reloads them.
//
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/DiskCache.h"
#include "backend/Registry.h"
#include "interp/Interp.h"
#include "obs/Metrics.h"
#include "qir/Verify.h"
#include "runtime/Trap.h"
#include "support/Rng.h"
#include "tests/RandomQir.h"
#include "x64/CodeHeap.h"
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstring>
#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace qcf;
using x64::CodeBlock;
using x64::CodeHeap;

namespace {

/// `mov rax, imm64; ret`, padded with nops to \p Size bytes.
std::vector<uint8_t> returnImm(uint64_t V, size_t Size = 11) {
  std::vector<uint8_t> Code(std::max<size_t>(Size, 11), 0x90);
  Code[0] = 0x48;
  Code[1] = 0xb8;
  std::memcpy(&Code[2], &V, 8);
  Code[10] = 0xc3;
  return Code;
}

uint64_t call(const CodeBlock &B) {
  return reinterpret_cast<uint64_t (*)()>(
      const_cast<uint8_t *>(B.base()))();
}

struct Outcome {
  bool Trapped = false;
  uint64_t Value = 0;
  bool operator==(const Outcome &O) const {
    return Trapped == O.Trapped && (Trapped || Value == O.Value);
  }
};

Outcome invokeFn(void *Entry, uint64_t A, uint64_t B) {
  Outcome Out;
  uint64_t R = 0;
  rt::TrapCode Code = rt::runWithTrapGuard([&] {
    R = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t)>(Entry)(A, B);
  });
  if (Code != rt::TrapCode::None)
    Out.Trapped = true;
  else
    Out.Value = R;
  return Out;
}

std::unique_ptr<qir::Module> randomModule(uint64_t Seed) {
  auto M = std::make_unique<qir::Module>();
  Rng R(Seed * 6364136223846793005ull + 1442695040888963407ull);
  test::RandomFnBuilder RB(*M, R);
  RB.build("rand");
  return M;
}

const std::pair<uint64_t, uint64_t> Inputs[] = {
    {0, 0}, {~0ull, 1}, {42, 7}, {0x123456789abcdefull, 3}};

std::vector<Outcome> runAll(void *Entry) {
  std::vector<Outcome> Out;
  for (auto [A, B] : Inputs)
    Out.push_back(invokeFn(Entry, A, B));
  return Out;
}

} // namespace

TEST(CodeHeap, ChurnReusesOneChunkAndCoalesces) {
  CodeHeap H;
  Rng R(7);
  std::vector<std::pair<CodeBlock, uint64_t>> Live;
  for (uint64_t I = 0; I != 20000; ++I) {
    if (Live.size() < 64 && (Live.empty() || R.nextBounded(3) != 0)) {
      std::vector<uint8_t> Code = returnImm(I, 1 + R.nextBounded(8000));
      Live.emplace_back(H.install(Code.data(), Code.size()), I);
      ASSERT_EQ(reinterpret_cast<uintptr_t>(Live.back().first.base()) % 16,
                0u);
    } else {
      size_t K = R.nextBounded(Live.size());
      ASSERT_EQ(call(Live[K].first), Live[K].second);
      std::swap(Live[K], Live.back());
      Live.pop_back();
    }
    ASSERT_EQ(H.numChunks(), 1u) << "after step " << I;
  }
  Live.clear();
  EXPECT_EQ(H.bytesInUse(), 0u);
  // Everything coalesced back into one range: a whole-chunk request fits
  // without a second chunk.
  CodeBlock All = H.allocate(CodeHeap::ChunkBytes);
  EXPECT_TRUE(All);
  EXPECT_EQ(H.numChunks(), 1u);
}

TEST(CodeHeap, EmptyChunksOtherThanNewestAreReleased) {
  constexpr size_t Chunk = CodeHeap::ChunkBytes;
  CodeHeap H;
  CodeBlock A = H.allocate(Chunk);         // Fills chunk 1.
  CodeBlock B = H.allocate(100);           // Opens chunk 2 (the newest).
  EXPECT_EQ(H.numChunks(), 2u);
  A.reset();                               // Chunk 1 empty, not newest.
  EXPECT_EQ(H.numChunks(), 1u);
  B.reset();                               // The newest stays mapped.
  EXPECT_EQ(H.numChunks(), 1u);
  {
    CodeBlock Big = H.allocate(3 * Chunk); // Oversize: a chunk of its own.
    EXPECT_EQ(H.numChunks(), 2u);
    std::vector<uint8_t> Code = returnImm(99, 3 * Chunk);
    Big.write(Code.data(), Code.size());
    EXPECT_EQ(call(Big), 99u);
  }
  EXPECT_EQ(H.numChunks(), 1u);
  EXPECT_EQ(H.bytesInUse(), 0u);
  CodeBlock Empty = H.allocate(0);
  EXPECT_FALSE(Empty);
}

TEST(CodeHeap, FreedRangesAreFilledWithInt3) {
  CodeHeap H;
  CodeBlock Keep = H.install(returnImm(1).data(), 11); // Keeps the chunk.
  CodeBlock B = H.install(returnImm(0x1234, 100).data(), 100);
  const uint8_t *Stale = B.base();
  EXPECT_EQ(call(B), 0x1234u);
  B.reset();
  for (size_t I = 0; I != 112; ++I) // The aligned extent of the block.
    ASSERT_EQ(Stale[I], 0xcc) << "byte " << I;
  // The range is reused, and the new owner's bytes replace the int3s.
  CodeBlock C = H.install(returnImm(0x5678, 100).data(), 100);
  EXPECT_EQ(C.base(), Stale);
  EXPECT_EQ(call(C), 0x5678u);
  EXPECT_EQ(call(Keep), 1u);
}

TEST(CodeHeap, PrivateMappingFallback) {
  CodeHeap H(/*UseMemfd=*/false);
  std::vector<CodeBlock> Blocks;
  for (uint64_t I = 0; I != 5; ++I)
    Blocks.push_back(H.install(returnImm(I).data(), 11));
  EXPECT_EQ(H.numChunks(), 5u); // One page-rounded mapping per block.
  for (uint64_t I = 0; I != 5; ++I)
    EXPECT_EQ(call(Blocks[I]), I);
  EXPECT_EQ(H.bytesInUse(), 55u);
  Blocks.clear();
  EXPECT_EQ(H.numChunks(), 0u);
  EXPECT_EQ(H.bytesInUse(), 0u);
}

TEST(CodeHeap, ConcurrentInstallsFromFourThreads) {
  CodeHeap &H = CodeHeap::global();
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (uint64_t T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      Rng R(T + 1);
      std::vector<std::pair<CodeBlock, uint64_t>> Held;
      for (uint64_t I = 0; I != 2000; ++I) {
        uint64_t V = (T << 32) | I;
        size_t Size = 11 + R.nextBounded(300);
        Held.emplace_back(H.install(returnImm(V, Size).data(), Size), V);
        if (call(Held.back().first) != V)
          Failures.fetch_add(1);
        if (Held.size() > 8) {
          size_t K = R.nextBounded(Held.size());
          if (call(Held[K].first) != Held[K].second)
            Failures.fetch_add(1);
          std::swap(Held[K], Held.back());
          Held.pop_back();
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
}

TEST(CodeHeap, PublishesGaugesInTheProcessRegistry) {
  CodeHeap &H = CodeHeap::global();
  CodeBlock B = H.install(returnImm(5).data(), 11);
  obs::MetricsSnapshot S = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(S.gauge("x64.code_heap.bytes"), int64_t(H.bytesInUse()));
  EXPECT_EQ(S.gauge("x64.code_heap.chunks"), int64_t(H.numChunks()));
  EXPECT_GE(S.gauge("x64.code_heap.bytes"), 11);
}

// A forked child shares the parent's MAP_SHARED chunks; without chunks of
// their own, concurrent children would allocate the same free space and
// pwrite over each other's code.
TEST(CodeHeap, ForkedChildrenDoNotShareCode) {
  constexpr int NumProcs = 4;
  constexpr int ModulesPerProc = 300;
  auto BE = backend::createBackend("DirectEmit");
  // The parent compiles once, so every child inherits a chunk with room.
  auto Parent = BE->compile(*randomModule(1));
  std::vector<Outcome> ParentWant = runAll(Parent->entry("rand"));

  auto Child = [&](int P) {
    interp::InterpBackend Interp;
    std::vector<std::unique_ptr<backend::CompiledModule>> Mods;
    std::vector<std::vector<Outcome>> Want;
    for (int I = 0; I != ModulesPerProc; ++I) {
      auto M = randomModule(1000 * (P + 1) + I);
      Want.push_back(runAll(Interp.compile(*M)->entry("rand")));
      Mods.push_back(BE->compile(*M));
      if (runAll(Mods.back()->entry("rand")) != Want.back())
        return 1;
    }
    // Re-check everything: another process's install would show here.
    for (int I = 0; I != ModulesPerProc; ++I)
      if (runAll(Mods[I]->entry("rand")) != Want[I])
        return 2;
    if (runAll(Parent->entry("rand")) != ParentWant)
      return 3;
    return 0;
  };

  std::vector<pid_t> Pids;
  for (int P = 0; P != NumProcs; ++P) {
    pid_t Pid = ::fork();
    if (Pid == 0)
      ::_exit(Child(P));
    ASSERT_GT(Pid, 0);
    Pids.push_back(Pid);
  }
  for (pid_t Pid : Pids) {
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status)) << "child killed by signal "
                                   << WTERMSIG(Status);
    EXPECT_EQ(WEXITSTATUS(Status), 0);
  }
  // The children never touched the parent's code either.
  EXPECT_EQ(runAll(Parent->entry("rand")), ParentWant);
}

// The parent goes on releasing and reusing code right after fork, while
// its child still runs the blocks it inherited. The child's copy of each
// chunk is taken before fork returns, so it never sees the int3 fill or
// the new code that the parent writes into the freed ranges.
TEST(CodeHeap, ParentReleaseAfterForkDoesNotReachTheChild) {
  constexpr uint64_t NumBlocks = 1200; // About 2.3 chunks.
  constexpr size_t BlockBytes = 8000;
  CodeHeap &H = CodeHeap::global();
  std::vector<CodeBlock> Blocks;
  for (uint64_t I = 0; I != NumBlocks; ++I)
    Blocks.push_back(
        H.install(returnImm(I, BlockBytes).data(), BlockBytes));
  std::vector<const uint8_t *> Bases;
  for (const CodeBlock &B : Blocks)
    Bases.push_back(B.base());

  int Go[2];
  ASSERT_EQ(::pipe(Go), 0);
  pid_t Pid = ::fork();
  if (Pid == 0) {
    char C;
    if (::read(Go[0], &C, 1) != 1)
      ::_exit(2);
    for (uint64_t I = 0; I != NumBlocks; ++I)
      if (call(Blocks[I]) != I)
        ::_exit(1);
    ::_exit(0);
  }
  ASSERT_GT(Pid, 0);
  // Release everything at once, then fill the same ranges with new code.
  Blocks.clear();
  std::vector<CodeBlock> Reused;
  size_t SameAddress = 0;
  for (uint64_t I = 0; I != NumBlocks; ++I) {
    uint64_t V = I + 1000000;
    Reused.push_back(H.install(returnImm(V, BlockBytes).data(), BlockBytes));
    SameAddress += std::count(Bases.begin(), Bases.end(),
                              Reused.back().base()) != 0;
  }
  ASSERT_EQ(::write(Go[1], "g", 1), 1);
  ::close(Go[0]);
  ::close(Go[1]);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status)) << "child killed by signal "
                                 << WTERMSIG(Status);
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  EXPECT_GT(SameAddress, 0u); // The parent really reused the child's code.
  for (uint64_t I = 0; I != NumBlocks; ++I)
    ASSERT_EQ(call(Reused[I]), I + 1000000);
}

// A capacity-1 L1 over a warm L2, alternating two modules: every request
// is an L1 miss and a disk load, and each load's code must be returned
// when the other module evicts it.
class CodeHeapReload : public ::testing::TestWithParam<const char *> {};

TEST_P(CodeHeapReload, AlternatingReloadsStayWithinTwoModules) {
  char DirTemplate[] = "/tmp/qcf_code_heap_XXXXXX";
  ASSERT_NE(::mkdtemp(DirTemplate), nullptr);
  const std::string Dir = DirTemplate;
  obs::MetricsRegistry Reg;
  CodeHeap &H = CodeHeap::global();
  {
    backend::DiskCodeCache Disk(Dir, 0, &Reg);
    std::unique_ptr<qir::Module> Mods[2] = {randomModule(11),
                                            randomModule(12)};
    std::vector<Outcome> Want[2];
    uint64_t CodeBytes = 0;
    interp::InterpBackend Interp;
    {
      // Warm the disk tier and measure each module's code.
      backend::CachingBackend Warm(backend::createBackend(GetParam()), 0,
                                   nullptr, &Reg, &Disk);
      for (int K = 0; K != 2; ++K) {
        ASSERT_EQ(qir::verify(*Mods[K]), std::nullopt);
        Want[K] = runAll(Interp.compile(*Mods[K])->entry("rand"));
        uint64_t Before = H.bytesInUse();
        auto C = Warm.compile(*Mods[K]);
        CodeBytes += H.bytesInUse() - Before;
      }
    }
    ASSERT_EQ(Disk.stats().Stores, 2u);

    uint64_t Baseline = H.bytesInUse();
    uint64_t Peak = 0;
    backend::CachingBackend L1(backend::createBackend(GetParam()), 1, nullptr,
                               &Reg, &Disk);
    for (int I = 0; I != 1000; ++I) {
      auto C = L1.compile(*Mods[I % 2]);
      ASSERT_TRUE(C);
      ASSERT_EQ(runAll(C->entry("rand")), Want[I % 2]) << "request " << I;
      Peak = std::max(Peak, H.bytesInUse() - Baseline);
    }
    EXPECT_EQ(Disk.stats().Hits, 1000u); // Every request reloaded.
    EXPECT_LE(Peak, CodeBytes);
  }
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D))
      if (std::strcmp(E->d_name, ".") && std::strcmp(E->d_name, ".."))
        ::unlink((Dir + "/" + E->d_name).c_str());
    ::closedir(D);
  }
  ::rmdir(Dir.c_str());
}

INSTANTIATE_TEST_SUITE_P(Backends, CodeHeapReload,
                         ::testing::Values("DirectEmit", "Stencil",
                                           "Craneline", "MLVM-opt"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           std::string N = I.param;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });
