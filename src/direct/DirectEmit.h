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
#include "backend/CodeBlob.h"
#include <vector>

namespace qcf::direct {

/// Machine code produced by DirectEmit.
class DirectModule : public backend::CompiledModule {
public:
  void *entry(const std::string &Name) override { return Blob.entry(Name); }

  /// Persists the shared code-blob section followed by the CFI table
  /// (per-function record offset, then the CFI bytes).
  bool serialize(std::vector<uint8_t> &Out) const override;
  std::vector<tv::TvFunction> tvFunctions() const override {
    return Blob.tvFunctions();
  }

  /// The code and the CFI side table (one record per function); exposed
  /// for tests.
  const backend::CodeBlob &blob() const { return Blob; }
  const std::vector<uint8_t> &cfiBytes() const { return Cfi; }
  size_t cfiRecordOffset(const std::string &Name) const;

private:
  friend class DirectBackend;
  backend::CodeBlob Blob;
  /// CFI record offset of each function, in the blob's function order.
  std::vector<size_t> CfiOffsets;
  std::vector<uint8_t> Cfi;
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
