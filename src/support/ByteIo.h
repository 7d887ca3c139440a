//===- support/ByteIo.h - Bounds-checked byte serialization -----*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little helpers for the persistent code cache's blob payloads: an
/// appending ByteWriter and a bounds-checked ByteReader. The reader never
/// throws and never reads past the end — every accessor reports failure
/// through ok(), because cache blobs come from disk and a truncated or
/// corrupted file must degrade to "cache miss", not UB (ISSUE 5 failure
/// paths). All integers are little-endian (QCF targets x86-64 only).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SUPPORT_BYTEIO_H
#define QCF_SUPPORT_BYTEIO_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace qcf {

/// Append-only serializer over a std::vector<uint8_t>.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) { raw(&V, 4); }
  void u64(uint64_t V) { raw(&V, 8); }

  /// Length-prefixed byte string (u64 length + raw bytes).
  void bytes(const void *Data, size_t Len) {
    u64(Len);
    raw(Data, Len);
  }
  void str(const std::string &S) { bytes(S.data(), S.size()); }

  void raw(const void *Data, size_t Len) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    Buf.insert(Buf.end(), P, P + Len);
  }

  const std::vector<uint8_t> &buffer() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked deserializer over a borrowed byte range. After any
/// failed read, ok() is false and every subsequent accessor returns a
/// zero value; callers check ok() once at the end (or at natural
/// checkpoints) instead of after every field.
class ByteReader {
public:
  ByteReader(const void *Data, size_t Len)
      : P(static_cast<const uint8_t *>(Data)), End(P + Len) {}

  bool ok() const { return Ok; }
  size_t remaining() const { return static_cast<size_t>(End - P); }

  uint8_t u8() {
    uint8_t V = 0;
    raw(&V, 1);
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    raw(&V, 4);
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    raw(&V, 8);
    return V;
  }

  /// Reads a u64 length prefix and returns a borrowed view of that many
  /// bytes (nullptr + 0 on failure). The view aliases the input buffer.
  std::pair<const uint8_t *, size_t> bytes() {
    uint64_t Len = u64();
    if (!Ok || Len > remaining()) {
      Ok = false;
      return {nullptr, 0};
    }
    const uint8_t *Start = P;
    P += Len;
    return {Start, static_cast<size_t>(Len)};
  }

  std::string str() {
    auto [Data, Len] = bytes();
    return Ok ? std::string(reinterpret_cast<const char *>(Data), Len)
              : std::string();
  }

  /// Copies \p Len bytes to \p Out (zero-filled on failure). A zero-length
  /// read touches nothing, so \p Out may then be null.
  void raw(void *Out, size_t Len) {
    if (Len == 0)
      return;
    if (!Ok || Len > remaining()) {
      Ok = false;
      std::memset(Out, 0, Len);
      return;
    }
    std::memcpy(Out, P, Len);
    P += Len;
  }

private:
  const uint8_t *P;
  const uint8_t *End;
  bool Ok = true;
};

} // namespace qcf

#endif // QCF_SUPPORT_BYTEIO_H
