//===- stencil/Stencil.h - Copy-and-patch x86-64 back-end -------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stencil back-end: the tier below DirectEmit. Compilation is a
/// single walk over QIR that concatenates pre-encoded binary stencils
/// (see stencil/Stencils.h) and patches their operand fields — no
/// analysis pass, no materialized MIR, no register allocator state beyond
/// a value→frame-slot map. Every SSA value lives in a fixed rbp-relative
/// slot; operation cores run on a fixed register convention and results
/// are stored back immediately (with a one-value forwarding chain that
/// elides the reload when an operation consumes the value just produced).
/// This trades execution quality against DirectEmit for a compile path
/// that is mostly memcpy, in the spirit of Copy-and-Patch (Xu & Kjolstad,
/// 2021) and TPDE (Schwarz, Kamm & Engelke, 2025).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_STENCIL_STENCIL_H
#define QCF_STENCIL_STENCIL_H

#include "backend/Backend.h"
#include "x64/CodeHeap.h"
#include <vector>

namespace qcf::stencil {

/// Machine code produced by the stencil back-end.
class StencilModule : public backend::CompiledModule {
public:
  void *entry(const std::string &Name) override;

  size_t codeSize(const std::string &Name) const;

  /// Persists code bytes, the entry-symbol table, and the named
  /// runtime-call relocation records (see DiskCodeCache).
  bool serialize(std::vector<uint8_t> &Out) const override;

  /// Per-function code views with imm64 runtime-call relocations, for
  /// translation validation (QCF_VERIFY=tv). Works off the installed
  /// bytes, so cache-loaded modules expose their re-patched code.
  std::vector<tv::TvFunction> tvFunctions() const override;

private:
  friend class StencilBackend;
  friend struct StencilPayloadCodec;
  /// The module's code, compiled or cache-loaded alike.
  x64::CodeBlock Code;
  const uint8_t *codeBase() const { return Code.base(); }
  struct FnInfo {
    std::string Name;
    size_t Offset;
    size_t Size;
  };
  std::vector<FnInfo> Fns;
  /// Runtime-call sites: the imm64 of a movabs at module offset Offset
  /// holds the address of runtime symbol Symbol.
  struct RtReloc {
    size_t Offset;
    std::string Symbol;
  };
  std::vector<RtReloc> Relocs;
};

/// The copy-and-patch back-end.
class StencilBackend : public backend::Backend {
public:
  using backend::Backend::compile;

  std::string name() const override { return "Stencil"; }
  std::unique_ptr<backend::CompiledModule>
  compile(const qir::Module &M, const backend::CompileOptions &Opts) override;

  std::unique_ptr<backend::CompiledModule> deserialize(const uint8_t *Data,
                                                       size_t Len) override;
};

} // namespace qcf::stencil

#endif // QCF_STENCIL_STENCIL_H
