//===- x64/CodeHeap.h - Reclaimable executable code heap --------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place JIT code lives. Every installed module — compiled or
/// loaded from the disk code cache, on every back-end — owns exactly one
/// CodeBlock carved out of the process-wide CodeHeap, and the block goes
/// back to the heap when the module dies. Code memory is therefore
/// bounded by the code that is live, not by the code ever loaded.
///
/// Chunks are memfds mapped once, read+execute and MAP_SHARED. Code is
/// written through the fd with pwrite(), so no writable view of code
/// exists anywhere in the process (W^X without any mprotect), and an
/// install costs one syscall instead of mmap + mprotect (+ munmap at
/// teardown) with page rounding. A back-end therefore builds the final
/// bytes, relocations patched, in a scratch buffer and writes them once;
/// the block's execute address is known before the write, so PC-relative
/// fields can be computed against it.
///
/// Blocks are 16-byte aligned and allocated first-fit from an
/// address-ordered free map that coalesces neighbours. A request larger
/// than a chunk gets a chunk of its own. A chunk that becomes entirely
/// free, other than the newest, is unmapped and its fd closed. Freed
/// ranges are overwritten with int3, so a stale entry pointer traps
/// instead of running another module's code.
///
/// Without memfd_create (denied by the kernel or a seccomp policy) the
/// heap backs each block with its own private, page-rounded mapping that
/// is made writable only for the duration of a write. Callers never see
/// the difference.
///
/// Fork: a child shares the parent's MAP_SHARED chunks, so both processes
/// would allocate the same free space and overwrite each other's code.
/// Every write to a chunk's fd (install and int3 fill) happens under the
/// heap mutex. The global heap's pthread_atfork prepare handler takes the
/// mutex and copies every chunk into a fresh memfd; nothing can write the
/// chunks while it copies, so the copy is exactly the state at fork. The
/// child maps its copies MAP_FIXED over the inherited chunks before the
/// mutex is released, and the parent closes them: afterwards neither
/// process can write the other's code. Blocks refer to their chunk, not to
/// an fd, so that is one update per chunk.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_X64_CODEHEAP_H
#define QCF_X64_CODEHEAP_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace qcf::obs {
class Gauge;
} // namespace qcf::obs

namespace qcf::x64 {

class CodeHeap;

/// Owning handle to one block of executable memory. Empty (null base) by
/// default and for zero-byte requests.
class CodeBlock {
public:
  CodeBlock() = default;
  ~CodeBlock() { reset(); }
  CodeBlock(CodeBlock &&Other) noexcept {
    *this = static_cast<CodeBlock &&>(Other);
  }
  CodeBlock &operator=(CodeBlock &&Other) noexcept;
  CodeBlock(const CodeBlock &) = delete;
  CodeBlock &operator=(const CodeBlock &) = delete;

  /// Execute address of the block's first byte; readable too.
  const uint8_t *base() const { return Base; }
  size_t size() const { return Size; }
  explicit operator bool() const { return Base != nullptr; }

  /// Copies the block's \p Len bytes of code from \p Src. The bytes are
  /// executable as soon as this returns.
  void write(const void *Src, size_t Len);

  /// Returns the block to its heap (no-op when empty).
  void reset();

private:
  friend class CodeHeap;
  CodeHeap *Heap = nullptr;
  void *Owner = nullptr; ///< The CodeHeap chunk holding the block.
  uint8_t *Base = nullptr;
  size_t Size = 0;
};

/// A heap of executable memory; see the file comment.
class CodeHeap {
public:
  /// Size of a shared chunk; larger requests get a chunk of their own.
  static constexpr size_t ChunkBytes = size_t(4) << 20;

  /// A standalone heap (tests). \p UseMemfd false forces the private
  /// mapping fallback. Only global() is made safe across fork() and
  /// publishes metrics.
  explicit CodeHeap(bool UseMemfd = true);
  /// Every block must have been released.
  ~CodeHeap();
  CodeHeap(const CodeHeap &) = delete;
  CodeHeap &operator=(const CodeHeap &) = delete;

  /// The process-wide heap every back-end installs into. It is never
  /// destroyed: modules held in static or thread-local storage release
  /// their blocks after static destructors have run. Publishes the gauges
  /// x64.code_heap.bytes and x64.code_heap.chunks in the process registry.
  static CodeHeap &global();

  /// Reserves \p Bytes (16-byte aligned) of executable memory.
  CodeBlock allocate(size_t Bytes);

  /// allocate() + one write of \p Len bytes of finished code.
  CodeBlock install(const void *Code, size_t Len);

  /// Bytes of live blocks, as requested (before alignment).
  uint64_t bytesInUse() const;
  /// Mapped chunks, including single-block ones.
  size_t numChunks() const;

private:
  friend class CodeBlock;
  struct Chunk;
  struct FreeRange {
    size_t Size;
    Chunk *Owner;
  };

  Chunk *newChunkLocked(size_t Bytes, bool Dedicated);
  void unmapChunkLocked(Chunk *C);
  void release(CodeBlock &B);
  void publishLocked();
  void copyBeforeFork();
  void adoptCopiesInChild();
  void closeCopiesInParent();

  bool UseMemfd;
  mutable std::mutex Mutex;
  std::map<uint8_t *, FreeRange> Free; ///< Address-ordered free ranges.
  std::vector<std::unique_ptr<Chunk>> Chunks;
  Chunk *Newest = nullptr; ///< Newest shared chunk; kept even when empty.
  uint64_t InUse = 0;
  obs::Gauge *BytesGauge = nullptr;
  obs::Gauge *ChunksGauge = nullptr;
};

} // namespace qcf::x64

#endif // QCF_X64_CODEHEAP_H
