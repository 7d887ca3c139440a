//===- perfbench/Spans.h - Request spans and their arithmetic ---*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span model. Each replayed request owns one
/// RequestTrace: a tree of spans recorded around calls into the layers'
/// public functions, rooted at the request span. The request thread opens
/// and closes spans on a stack; compile-service workers add spans that
/// belong to a request from their own thread. Spans stay in memory and
/// are written out once, after the measured window.
///
/// A span's self time is its duration minus the part of that interval its
/// synchronous children cover. A child is synchronous when its parent
/// waits for it (a compile the request blocks on, even on another
/// thread) and asynchronous when the parent keeps working meanwhile (a
/// background optimizing compile); asynchronous spans are reported with
/// their full duration and take no part in the self-time sum.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_PERFBENCH_SPANS_H
#define QCF_PERFBENCH_SPANS_H

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Span names. Each maps to one per-layer metric (see README.md).
enum class SpanKind : uint8_t {
  Request,     ///< The replayed entry-point call (root).
  Admit,       ///< AdmissionGate::enter.
  Codegen,     ///< db::compileQuery.
  Exec,        ///< db::executeQuery.
  Cache,       ///< CachingBackend::compile.
  Fingerprint, ///< backend::fingerprintModule.
  QueueWait,   ///< From the cache probe to the compile's start.
  Compile,     ///< Backend::compile of the tier (Span::Tier names it).
  Deserialize, ///< Backend::deserialize of the tier (L2 hit).
};

constexpr uint32_t NoParent = ~0u;

struct Span {
  SpanKind Kind = SpanKind::Request;
  /// Metric prefix of the tier for Compile/Deserialize ("direct", ...).
  const char *Tier = "";
  uint32_t Parent = NoParent;
  bool Async = false;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

/// Metric name of a span: "db.codegen", "direct.compile", ...
std::string spanName(const Span &S);

/// The spans of one request. All members are thread-safe.
class RequestTrace {
public:
  RequestTrace(uint64_t Id, uint64_t Key) : Id(Id), Key(Key) {}

  RequestTrace(const RequestTrace &) = delete;
  RequestTrace &operator=(const RequestTrace &) = delete;

  const uint64_t Id;
  const uint64_t Key; ///< The request's query key (Workload.h).

  /// Request thread: opens a child of the innermost open span (the root
  /// when none is open) starting now. \returns its index.
  uint32_t open(SpanKind K, const char *Tier = "");
  /// Request thread: ends span \p Idx, which must be the innermost open.
  void close(uint32_t Idx);
  /// Any thread: records a finished span under \p Parent.
  uint32_t add(const Span &S);
  /// The innermost open span (NoParent before the root opens).
  uint32_t innermost() const;
  /// The innermost open span of kind \p K, or NoParent.
  uint32_t innermostOf(SpanKind K) const;

  std::vector<Span> spans() const;

private:
  mutable std::mutex Mutex; ///< Guards Spans and Open.
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
};

/// Computes every span's self time into \p Self and checks the tree: each
/// span lies within its parent, synchronous siblings do not overlap, and
/// the synchronous self times sum to the root's duration. \returns false
/// with a diagnostic in \p Err when a check fails.
bool computeSelfTimes(const std::vector<Span> &Spans,
                      std::vector<uint64_t> &Self, std::string *Err);

/// Writes \p T's spans as JSON lines to \p Out.
void writeSpans(const RequestTrace &T, std::FILE *Out);

/// The \p P-quantile (P in [0, 1]) of \p Sorted, interpolating linearly
/// between the closest ranks. 0 when empty.
double quantile(const std::vector<uint64_t> &Sorted, double P);

} // namespace perfbench

#endif // QCF_PERFBENCH_SPANS_H
