//===- backend/CodeBlob.cpp - Linked machine code of one module -----------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "backend/CodeBlob.h"
#include "runtime/Runtime.h"
#include <cstring>

using namespace qcf;
using namespace qcf::backend;

void CodeBlob::link(std::vector<BlobFunction> Funcs) {
  size_t Total = 0;
  for (const BlobFunction &F : Funcs)
    Total = ((Total + 15) & ~size_t(15)) + F.Code.size();
  std::vector<uint8_t> Image(Total);
  size_t Off = 0;
  for (BlobFunction &F : Funcs) {
    Off = (Off + 15) & ~size_t(15);
    std::memcpy(Image.data() + Off, F.Code.data(), F.Code.size());
    for (BlobReloc &R : F.Relocs) {
      if (void *Addr = rt::runtimeSymbolAddress(R.Symbol))
        std::memcpy(Image.data() + Off + R.Offset, &Addr, 8);
      else
        Serializable = false;
      Relocs.push_back({Off + R.Offset, std::move(R.Symbol)});
    }
    Fns.push_back({std::move(F.Name), Off, F.Code.size()});
    Off += F.Code.size();
  }
  Code = x64::CodeHeap::global().install(Image.data(), Total);
}

size_t CodeBlob::indexOf(const std::string &Name) const {
  for (size_t I = 0; I != Fns.size(); ++I)
    if (Fns[I].Name == Name)
      return I;
  return SIZE_MAX;
}

void *CodeBlob::entry(const std::string &Name) const {
  size_t I = indexOf(Name);
  return I == SIZE_MAX ? nullptr
                       : const_cast<uint8_t *>(Code.base()) + Fns[I].Offset;
}

size_t CodeBlob::size(const std::string &Name) const {
  size_t I = indexOf(Name);
  return I == SIZE_MAX ? 0 : Fns[I].Size;
}

std::vector<tv::TvFunction> CodeBlob::tvFunctions() const {
  std::vector<tv::TvFunction> Out;
  for (const Fn &F : Fns) {
    tv::TvFunction TF;
    TF.Name = F.Name;
    TF.Code = Code.base() + F.Offset;
    TF.Size = F.Size;
    for (const BlobReloc &R : Relocs)
      if (R.Offset >= F.Offset && R.Offset - F.Offset < F.Size)
        TF.Relocs.push_back({R.Offset - F.Offset, 8, R.Symbol});
    Out.push_back(std::move(TF));
  }
  return Out;
}

bool CodeBlob::serialize(ByteWriter &W) const {
  if (!Serializable)
    return false;
  W.bytes(Code.base(), Code.size());
  W.u64(Fns.size());
  for (const Fn &F : Fns) {
    W.str(F.Name);
    W.u64(F.Offset);
    W.u64(F.Size);
  }
  W.u64(Relocs.size());
  for (const BlobReloc &R : Relocs) {
    W.u64(R.Offset);
    W.str(R.Symbol);
  }
  return true;
}

bool CodeBlob::parse(ByteReader &R) {
  // Every offset and size below is an untrusted u64 from disk: the range
  // checks are written so that they cannot wrap.
  auto [Bytes, Len] = R.bytes();
  uint64_t NumFns = R.u64();
  if (!R.ok() || NumFns > R.remaining())
    return false;
  for (uint64_t I = 0; I != NumFns; ++I) {
    std::string Name = R.str();
    uint64_t Off = R.u64(), Size = R.u64();
    if (!R.ok() || Off > Len || Size > Len - Off)
      return false;
    Fns.push_back({std::move(Name), Off, Size});
  }
  uint64_t NumRelocs = R.u64();
  if (!R.ok() || NumRelocs > R.remaining())
    return false;
  std::vector<void *> Targets;
  for (uint64_t I = 0; I != NumRelocs; ++I) {
    uint64_t Off = R.u64();
    std::string Symbol = R.str();
    if (!R.ok() || Len < 8 || Off > Len - 8)
      return false;
    void *Addr = rt::runtimeSymbolAddress(Symbol);
    if (!Addr)
      return false; // Unknown symbol: treat as a cache miss.
    Targets.push_back(Addr);
    Relocs.push_back({Off, std::move(Symbol)});
  }
  std::vector<uint8_t> Image(Bytes, Bytes + Len);
  for (size_t I = 0; I != Relocs.size(); ++I)
    std::memcpy(Image.data() + Relocs[I].Offset, &Targets[I], 8);
  Code = x64::CodeHeap::global().install(Image.data(), Len);
  return true;
}
