//===- backend/CodeBlob.h - Linked machine code of one module ---*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code of one compiled module as the single-pass and Cranelift-style
/// back-ends (DirectEmit, Stencil, Craneline) produce it: one CodeBlock in
/// the process-wide x64::CodeHeap, a function table, and the runtime-call
/// relocations by symbol name. The same type links freshly emitted code
/// and rehydrates it from the disk code cache, so both paths share one
/// layout, one re-patch step and one payload codec.
///
/// Payload (all integers little-endian u64, strings length-prefixed):
///
///   code bytes
///   function count, then per function: name, offset, size
///   relocation count, then per relocation: offset, symbol
///
/// A back-end may append its own trailer after this section (DirectEmit
/// writes its CFI table there); the codec neither reads nor writes past it.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_CODEBLOB_H
#define QCF_BACKEND_CODEBLOB_H

#include "support/ByteIo.h"
#include "tv/Tv.h"
#include "x64/CodeHeap.h"
#include <string>
#include <vector>

namespace qcf::backend {

/// A runtime-call site: the movabs imm64 at Offset receives the address of
/// runtime symbol Symbol (see rt::runtimeSymbolAddress).
struct BlobReloc {
  size_t Offset;
  std::string Symbol;
};

/// One emitted function handed to CodeBlob::link; relocation offsets are
/// relative to the function's first byte.
struct BlobFunction {
  std::string Name;
  std::vector<uint8_t> Code;
  std::vector<BlobReloc> Relocs;
};

class CodeBlob {
public:
  /// Lays the functions out at 16-byte alignment, writes every relocated
  /// imm64 from rt::runtimeSymbolAddress and installs the image once. A
  /// symbol that does not resolve (empty, or not a registered runtime
  /// symbol) keeps the bytes the emitter wrote and makes the blob
  /// non-serializable: its address means nothing in another process.
  void link(std::vector<BlobFunction> Fns);

  /// Entry point of \p Name; null if the function does not exist.
  void *entry(const std::string &Name) const;
  /// Code bytes of \p Name (without alignment padding); 0 if absent.
  size_t size(const std::string &Name) const;
  /// Bytes of the installed image.
  size_t size() const { return Code.size(); }
  /// Position of \p Name in the function table, or SIZE_MAX.
  size_t indexOf(const std::string &Name) const;
  size_t numFunctions() const { return Fns.size(); }

  /// Per-function views of the installed bytes with their relocations,
  /// for translation validation; cache-loaded blobs expose the re-patched
  /// code.
  std::vector<tv::TvFunction> tvFunctions() const;

  /// Appends the payload; false (and nothing written) when the blob is
  /// not serializable.
  bool serialize(ByteWriter &W) const;

  /// Reads a payload written by serialize(), resolves each symbol once,
  /// re-patches a scratch copy of the code and installs it. Returns false
  /// on a malformed or truncated payload or an unknown symbol; callers
  /// treat that as a cache miss. Call on an empty blob only.
  bool parse(ByteReader &R);

private:
  struct Fn {
    std::string Name;
    size_t Offset;
    size_t Size;
  };
  x64::CodeBlock Code;
  std::vector<Fn> Fns;
  /// Relocations at module offsets, in function order.
  std::vector<BlobReloc> Relocs;
  bool Serializable = true;
};

} // namespace qcf::backend

#endif // QCF_BACKEND_CODEBLOB_H
