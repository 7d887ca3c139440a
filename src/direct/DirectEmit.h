//===- direct/DirectEmit.h - Single-pass x86-64 back-end --------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DirectEmit back-end (§VII, [14]; formerly "Flying Start"): one
/// analysis pass (dominator tree, natural loops, block-granularity
/// liveness) followed by one code generation pass that walks the blocks in
/// layout order and emits x86-64 machine code directly, allocating
/// registers greedily on the fly. Values live across basic blocks get
/// fixed stack homes; block-local values stay in scratch registers with
/// lazy spilling. DWARF-style CFI is written in parallel with code
/// generation (synchronous only). x86-64 only, by design.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_DIRECT_DIRECTEMIT_H
#define QCF_DIRECT_DIRECTEMIT_H

#include "backend/Backend.h"
#include "x64/CodeHeap.h"
#include <vector>

namespace qcf::direct {

/// Machine code produced by DirectEmit.
class DirectModule : public backend::CompiledModule {
public:
  void *entry(const std::string &Name) override;

  /// The CFI side table (one record per function); exposed for tests.
  const std::vector<uint8_t> &cfiBytes() const { return Cfi; }
  size_t cfiRecordOffset(const std::string &Name) const;
  size_t codeSize(const std::string &Name) const;

  /// Persists code bytes, the function table, CFI, and the named
  /// runtime-call relocation records (see DiskCodeCache).
  bool serialize(std::vector<uint8_t> &Out) const override;

  /// Per-function code views with imm64 runtime-call relocations, for
  /// translation validation (QCF_VERIFY=tv). Works off the installed
  /// bytes, so cache-loaded modules expose their re-patched code.
  std::vector<tv::TvFunction> tvFunctions() const override;

private:
  friend class DirectBackend;
  friend struct PayloadCodec;
  /// The module's code, compiled or cache-loaded alike; readable too, so
  /// serialize() and tvFunctions() work off it.
  x64::CodeBlock Code;
  const uint8_t *codeBase() const { return Code.base(); }
  struct FnInfo {
    std::string Name;
    size_t Offset;
    size_t Size;
    size_t CfiOffset;
  };
  std::vector<FnInfo> Fns;
  std::vector<uint8_t> Cfi;
  /// Runtime-call sites: the imm64 of a movabs at module offset Offset
  /// holds the address of runtime symbol Symbol. Recorded so a
  /// serialized module can be re-patched in a process with a different
  /// address-space layout.
  struct RtReloc {
    size_t Offset;
    std::string Symbol;
  };
  std::vector<RtReloc> Relocs;
};

/// The DirectEmit back-end.
class DirectBackend : public backend::Backend {
public:
  using backend::Backend::compile;

  std::string name() const override { return "DirectEmit"; }
  std::unique_ptr<backend::CompiledModule>
  compile(const qir::Module &M, const backend::CompileOptions &Opts) override;

  std::unique_ptr<backend::CompiledModule> deserialize(const uint8_t *Data,
                                                       size_t Len) override;
};

} // namespace qcf::direct

#endif // QCF_DIRECT_DIRECTEMIT_H
