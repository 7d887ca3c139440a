//===- x64/CodeHeap.cpp - Reclaimable executable code heap ----------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "x64/CodeHeap.h"
#include "obs/Metrics.h"
#include "support/Compiler.h"
#include <algorithm>
#include <array>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/syscall.h>
#ifndef MFD_CLOEXEC
#define MFD_CLOEXEC 1u
#endif
#endif

using namespace qcf;
using namespace qcf::x64;

struct CodeHeap::Chunk {
  uint8_t *Base = nullptr;
  size_t Size = 0;
  int Fd = -1;        ///< -1: private mapping (no-memfd fallback).
  size_t Live = 0;    ///< Aligned bytes of live blocks.
  size_t Top = 0;     ///< High-water offset of any block ever allocated.
  bool Dedicated = false; ///< Holds one block; unmapped when it is freed.
  int ForkCopy = -1;  ///< Copy made by the fork prepare handler.
};

namespace {

constexpr size_t PageBytes = 4096;

size_t alignUp(size_t N, size_t A) { return (N + A - 1) & ~(A - 1); }

constexpr auto Int3Page = [] {
  std::array<uint8_t, PageBytes> A{};
  for (uint8_t &B : A)
    B = 0xcc;
  return A;
}();

int createMemfd(size_t Bytes) {
#if defined(__linux__) && defined(SYS_memfd_create)
  int Fd = static_cast<int>(
      ::syscall(SYS_memfd_create, "qcf-code-heap", MFD_CLOEXEC));
  if (Fd < 0)
    return -1;
  if (::ftruncate(Fd, static_cast<off_t>(Bytes)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
#else
  (void)Bytes;
  return -1;
#endif
}

bool pwriteAll(int Fd, const void *Src, size_t Len, size_t Off) {
  const auto *P = static_cast<const uint8_t *>(Src);
  while (Len) {
    ssize_t N = ::pwrite(Fd, P, Len, static_cast<off_t>(Off));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Len -= static_cast<size_t>(N);
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Overwrites [Off, Off + Len) of \p Fd with int3.
bool fillInt3(int Fd, size_t Len, size_t Off) {
  for (size_t Done = 0; Done < Len; Done += PageBytes)
    if (!pwriteAll(Fd, Int3Page.data(), std::min(PageBytes, Len - Done),
                   Off + Done))
      return false;
  return true;
}

} // namespace

// --- CodeBlock ---------------------------------------------------------------

CodeBlock &CodeBlock::operator=(CodeBlock &&Other) noexcept {
  if (this != &Other) {
    reset();
    Heap = Other.Heap;
    Owner = Other.Owner;
    Base = Other.Base;
    Size = Other.Size;
    Other.Heap = nullptr;
    Other.Owner = nullptr;
    Other.Base = nullptr;
    Other.Size = 0;
  }
  return *this;
}

void CodeBlock::write(const void *Src, size_t Len) {
  assert(Len <= Size && "write past the end of a code block");
  if (!Len)
    return;
  auto *C = static_cast<CodeHeap::Chunk *>(Owner);
  // Under the lock, so a fork never copies a chunk mid-write.
  std::lock_guard<std::mutex> Lock(Heap->Mutex);
  if (C->Fd >= 0) {
    if (!pwriteAll(C->Fd, Src, Len, static_cast<size_t>(Base - C->Base)))
      reportFatalError("code heap: pwrite failed");
    return;
  }
  // Private fallback: the mapping holds only this block, and is writable
  // only while its owner writes.
  if (::mprotect(C->Base, C->Size, PROT_READ | PROT_WRITE) != 0)
    reportFatalError("code heap: mprotect(PROT_WRITE) failed");
  std::memcpy(Base, Src, Len);
  if (::mprotect(C->Base, C->Size, PROT_READ | PROT_EXEC) != 0)
    reportFatalError("code heap: mprotect(PROT_EXEC) failed");
}

void CodeBlock::reset() {
  if (Heap)
    Heap->release(*this);
  Heap = nullptr;
  Owner = nullptr;
  Base = nullptr;
  Size = 0;
}

// --- CodeHeap ----------------------------------------------------------------

CodeHeap::CodeHeap(bool UseMemfd) : UseMemfd(UseMemfd) {}

CodeHeap::~CodeHeap() {
  assert(InUse == 0 && "code heap destroyed with live blocks");
  while (!Chunks.empty())
    unmapChunkLocked(Chunks.back().get());
}

CodeHeap &CodeHeap::global() {
  // Immortal: see the header.
  static CodeHeap *G = [] {
    auto *H = new CodeHeap();
    obs::MetricsRegistry &Reg = obs::MetricsRegistry::global();
    H->BytesGauge = &Reg.gauge("x64.code_heap.bytes");
    H->ChunksGauge = &Reg.gauge("x64.code_heap.chunks");
    ::pthread_atfork(
        [] {
          CodeHeap &Heap = global();
          Heap.Mutex.lock();
          Heap.copyBeforeFork();
        },
        [] {
          CodeHeap &Heap = global();
          Heap.closeCopiesInParent();
          Heap.Mutex.unlock();
        },
        [] {
          CodeHeap &Heap = global();
          Heap.adoptCopiesInChild();
          Heap.Mutex.unlock();
        });
    return H;
  }();
  return *G;
}

CodeHeap::Chunk *CodeHeap::newChunkLocked(size_t Bytes, bool Dedicated) {
  auto C = std::make_unique<Chunk>();
  C->Size = alignUp(Bytes, PageBytes);
  C->Fd = UseMemfd ? createMemfd(C->Size) : -1;
  if (C->Fd < 0)
    UseMemfd = false; // Denied once, denied for good: stop asking.
  // Without a memfd the chunk is a private mapping holding one block.
  C->Dedicated = Dedicated || C->Fd < 0;
  void *Mem = C->Fd >= 0 ? ::mmap(nullptr, C->Size, PROT_READ | PROT_EXEC,
                                  MAP_SHARED, C->Fd, 0)
                         : ::mmap(nullptr, C->Size, PROT_READ | PROT_EXEC,
                                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED)
    reportFatalError("code heap: mmap failed");
  C->Base = static_cast<uint8_t *>(Mem);
  Chunks.push_back(std::move(C));
  return Chunks.back().get();
}

void CodeHeap::unmapChunkLocked(Chunk *C) {
  ::munmap(C->Base, C->Size);
  if (C->Fd >= 0)
    ::close(C->Fd);
  if (C == Newest)
    Newest = nullptr;
  auto It = std::find_if(Chunks.begin(), Chunks.end(),
                         [C](const std::unique_ptr<Chunk> &P) {
                           return P.get() == C;
                         });
  Chunks.erase(It);
}

void CodeHeap::publishLocked() {
  if (BytesGauge) {
    BytesGauge->set(static_cast<int64_t>(InUse));
    ChunksGauge->set(static_cast<int64_t>(Chunks.size()));
  }
}

CodeBlock CodeHeap::allocate(size_t Bytes) {
  CodeBlock B;
  if (!Bytes)
    return B;
  size_t Need = alignUp(Bytes, 16);
  std::lock_guard<std::mutex> Lock(Mutex);
  Chunk *C = nullptr;
  uint8_t *At = nullptr;
  if (Need <= ChunkBytes) {
    // First fit in address order.
    for (auto It = Free.begin(); It != Free.end(); ++It) {
      if (It->second.Size < Need)
        continue;
      At = It->first;
      C = It->second.Owner;
      if (size_t Rest = It->second.Size - Need)
        Free.emplace_hint(std::next(It), At + Need, FreeRange{Rest, C});
      Free.erase(It);
      break;
    }
  }
  if (!C) {
    bool Shared = UseMemfd && Need <= ChunkBytes;
    C = newChunkLocked(Shared ? ChunkBytes : Need, /*Dedicated=*/!Shared);
    At = C->Base;
    if (!C->Dedicated) {
      Newest = C;
      if (C->Size > Need)
        Free.emplace(C->Base + Need, FreeRange{C->Size - Need, C});
    }
  }
  C->Live += Need;
  C->Top = std::max(C->Top, static_cast<size_t>(At - C->Base) + Need);
  InUse += Bytes;
  publishLocked();
  B.Heap = this;
  B.Owner = C;
  B.Base = At;
  B.Size = Bytes;
  return B;
}

CodeBlock CodeHeap::install(const void *Code, size_t Len) {
  CodeBlock B = allocate(Len);
  B.write(Code, Len);
  return B;
}

void CodeHeap::release(CodeBlock &B) {
  auto *C = static_cast<Chunk *>(B.Owner);
  size_t Need = alignUp(B.Size, 16);
  std::lock_guard<std::mutex> Lock(Mutex);
  // Under the lock, so a fork never copies a chunk mid-fill.
  if (!C->Dedicated &&
      !fillInt3(C->Fd, Need, static_cast<size_t>(B.Base - C->Base)))
    reportFatalError("code heap: int3 fill failed");
  InUse -= B.Size;
  C->Live -= Need;
  if (C->Dedicated) {
    unmapChunkLocked(C);
    publishLocked();
    return;
  }
  // Insert [Start, Start + Len) and coalesce with same-chunk neighbours.
  uint8_t *Start = B.Base;
  size_t Len = Need;
  auto Next = Free.lower_bound(Start);
  if (Next != Free.begin()) {
    auto Prev = std::prev(Next);
    if (Prev->second.Owner == C && Prev->first + Prev->second.Size == Start) {
      Start = Prev->first;
      Len += Prev->second.Size;
      Free.erase(Prev);
    }
  }
  if (Next != Free.end() && Next->second.Owner == C &&
      Next->first == Start + Len) {
    Len += Next->second.Size;
    Next = Free.erase(Next);
  }
  if (C->Live == 0 && C != Newest) {
    assert(Start == C->Base && Len == C->Size && "empty chunk not coalesced");
    unmapChunkLocked(C);
  } else {
    Free.emplace_hint(Next, Start, FreeRange{Len, C});
  }
  publishLocked();
}

uint64_t CodeHeap::bytesInUse() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return InUse;
}

size_t CodeHeap::numChunks() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Chunks.size();
}

void CodeHeap::copyBeforeFork() {
  // The heap mutex is held and every write to a chunk takes it, so each
  // copy is the chunk's exact state at fork.
  for (const std::unique_ptr<Chunk> &C : Chunks) {
    if (C->Fd < 0)
      continue; // MAP_PRIVATE: already copy-on-write.
    C->ForkCopy = createMemfd(C->Size);
    if (C->ForkCopy < 0 || !pwriteAll(C->ForkCopy, C->Base, C->Top, 0))
      reportFatalError("code heap: cannot copy a chunk for fork");
  }
}

void CodeHeap::closeCopiesInParent() {
  for (const std::unique_ptr<Chunk> &C : Chunks)
    if (C->ForkCopy >= 0) {
      ::close(C->ForkCopy);
      C->ForkCopy = -1;
    }
}

void CodeHeap::adoptCopiesInChild() {
  // The child's chunks become its private copies, mapped where the
  // parent's were. Only syscalls: the child of a multithreaded parent
  // must not rely on much more.
  for (const std::unique_ptr<Chunk> &C : Chunks) {
    if (C->ForkCopy < 0)
      continue;
    if (::mmap(C->Base, C->Size, PROT_READ | PROT_EXEC, MAP_SHARED | MAP_FIXED,
               C->ForkCopy, 0) == MAP_FAILED)
      reportFatalError("code heap: cannot map a chunk's copy after fork");
    ::close(C->Fd);
    C->Fd = C->ForkCopy;
    C->ForkCopy = -1;
  }
}
