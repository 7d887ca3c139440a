//===- obs/Metrics.cpp - Process-wide metrics registry --------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

using namespace qcf;
using namespace qcf::obs;

uint64_t HistogramSnapshot::percentileNs(double P) const {
  if (Count == 0)
    return 0;
  P = std::min(std::max(P, 0.0), 1.0);
  // Rank of the requested quantile, 1-based; P=0 hits the first
  // observation, P=1 the last.
  uint64_t Rank = static_cast<uint64_t>(P * double(Count - 1)) + 1;
  uint64_t Seen = 0;
  for (unsigned B = 0; B != NumBuckets; ++B) {
    Seen += Buckets[B];
    if (Seen >= Rank)
      return std::min(Histogram::bucketUpperNs(B), MaxNs);
  }
  return MaxNs;
}

void HistogramSnapshot::merge(const HistogramSnapshot &Other) {
  if (Other.Count == 0)
    return;
  MinNs = Count == 0 ? Other.MinNs : std::min(MinNs, Other.MinNs);
  MaxNs = std::max(MaxNs, Other.MaxNs);
  Count += Other.Count;
  SumNs += Other.SumNs;
  for (unsigned B = 0; B != NumBuckets; ++B)
    Buckets[B] += Other.Buckets[B];
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot S;
  S.Count = CountV.load(std::memory_order_relaxed);
  S.SumNs = SumV.load(std::memory_order_relaxed);
  uint64_t Min = MinV.load(std::memory_order_relaxed);
  S.MinNs = Min == UINT64_MAX ? 0 : Min;
  S.MaxNs = MaxV.load(std::memory_order_relaxed);
  for (unsigned B = 0; B != NumBuckets; ++B)
    S.Buckets[B] = Buckets[B].load(std::memory_order_relaxed);
  return S;
}

uint64_t
MetricsSnapshot::counterSumWithPrefix(const std::string &Prefix) const {
  uint64_t Sum = 0;
  for (const auto &[Name, V] : Counters)
    if (Name.compare(0, Prefix.size(), Prefix) == 0)
      Sum += V;
  return Sum;
}

void MetricsSnapshot::merge(const MetricsSnapshot &Other) {
  for (const auto &[Name, V] : Other.Counters)
    Counters[Name] += V;
  for (const auto &[Name, V] : Other.Gauges)
    Gauges[Name] = V;
  for (const auto &[Name, H] : Other.Histograms)
    Histograms[Name].merge(H);
}

namespace {

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  Out.append(Buf, std::min<size_t>(N, sizeof(Buf) - 1));
}

/// JSON string escaping (instrument names are plain identifiers, but be
/// safe: back-end names are caller-controlled).
void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        appendf(Out, "\\u%04x", C);
      else
        Out += C;
    }
  }
  Out += '"';
}

} // namespace

std::string MetricsSnapshot::renderText() const {
  std::string Out;
  for (const auto &[Name, V] : Counters)
    appendf(Out, "%-48s %20" PRIu64 "\n", Name.c_str(), V);
  for (const auto &[Name, V] : Gauges)
    appendf(Out, "%-48s %20" PRId64 "\n", Name.c_str(), V);
  for (const auto &[Name, H] : Histograms)
    appendf(Out,
            "%-48s count=%" PRIu64 " mean=%.3fms p50=%.3fms p99=%.3fms "
            "min=%.3fms max=%.3fms\n",
            Name.c_str(), H.Count, H.meanNs() * 1e-6,
            H.percentileNs(0.50) * 1e-6, H.percentileNs(0.99) * 1e-6,
            H.MinNs * 1e-6, H.MaxNs * 1e-6);
  return Out;
}

std::string MetricsSnapshot::renderJson() const {
  std::string Out = "{\"counters\":{";
  bool First = true;
  for (const auto &[Name, V] : Counters) {
    if (!First)
      Out += ',';
    First = false;
    appendJsonString(Out, Name);
    appendf(Out, ":%" PRIu64, V);
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &[Name, V] : Gauges) {
    if (!First)
      Out += ',';
    First = false;
    appendJsonString(Out, Name);
    appendf(Out, ":%" PRId64, V);
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    if (!First)
      Out += ',';
    First = false;
    appendJsonString(Out, Name);
    appendf(Out,
            ":{\"count\":%" PRIu64 ",\"sum_ns\":%" PRIu64 ",\"min_ns\":%" PRIu64
            ",\"max_ns\":%" PRIu64 ",\"p50_ns\":%" PRIu64 ",\"p90_ns\":%" PRIu64
            ",\"p99_ns\":%" PRIu64 "}",
            H.Count, H.SumNs, H.MinNs, H.MaxNs, H.percentileNs(0.50),
            H.percentileNs(0.90), H.percentileNs(0.99));
  }
  Out += "}}";
  return Out;
}

MetricsRegistry::MetricsRegistry() {
  static std::atomic<uint64_t> NextId{1};
  IdV = NextId.fetch_add(1, std::memory_order_relaxed);
}

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Counter> &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Gauge> &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Histogram> &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  MetricsSnapshot S;
  for (const auto &[Name, C] : Counters)
    S.Counters[Name] = C->value();
  for (const auto &[Name, G] : Gauges)
    S.Gauges[Name] = G->value();
  for (const auto &[Name, H] : Histograms)
    S.Histograms[Name] = H->snapshot();
  return S;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[Name, C] : Counters)
    C->V.store(0, std::memory_order_relaxed);
  for (auto &[Name, G] : Gauges)
    G->V.store(0, std::memory_order_relaxed);
  for (auto &[Name, H] : Histograms) {
    for (auto &B : H->Buckets)
      B.store(0, std::memory_order_relaxed);
    H->CountV.store(0, std::memory_order_relaxed);
    H->SumV.store(0, std::memory_order_relaxed);
    H->MinV.store(UINT64_MAX, std::memory_order_relaxed);
    H->MaxV.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry &MetricsRegistry::global() {
  // Never destroyed: instruments resolved into it are bumped from objects
  // that die after static destructors run (x64::CodeHeap blocks owned by
  // modules in static storage).
  static MetricsRegistry *G = new MetricsRegistry;
  return *G;
}
