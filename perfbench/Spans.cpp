//===- perfbench/Spans.cpp - Request spans and their arithmetic ----------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "support/TimeTrace.h"
#include <algorithm>
#include <cassert>
#include <cinttypes>

namespace perfbench {

std::string spanName(const Span &S) {
  switch (S.Kind) {
  case SpanKind::Request:
    return "serve.request";
  case SpanKind::Admit:
    return "serve.admit_wait";
  case SpanKind::Codegen:
    return "db.codegen";
  case SpanKind::Exec:
    return "db.exec";
  case SpanKind::Cache:
    return "backend.cache";
  case SpanKind::Fingerprint:
    return "backend.fingerprint";
  case SpanKind::QueueWait:
    return "backend.svc_queue_wait";
  case SpanKind::Compile:
    return std::string(S.Tier) + ".compile";
  case SpanKind::Deserialize:
    return std::string(S.Tier) + ".deserialize";
  }
  return "?";
}

uint32_t RequestTrace::open(SpanKind K, const char *Tier) {
  Span S;
  S.Kind = K;
  S.Tier = Tier;
  S.StartNs = qcf::nowNs();
  std::lock_guard<std::mutex> Lock(Mutex);
  S.Parent = Open.empty() ? NoParent : Open.back();
  Spans.push_back(S);
  Open.push_back(static_cast<uint32_t>(Spans.size() - 1));
  return Open.back();
}

void RequestTrace::close(uint32_t Idx) {
  uint64_t Now = qcf::nowNs();
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(!Open.empty() && Open.back() == Idx && "spans close innermost first");
  Spans[Idx].EndNs = Now;
  Open.pop_back();
}

uint32_t RequestTrace::add(const Span &S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(S);
  return static_cast<uint32_t>(Spans.size() - 1);
}

uint32_t RequestTrace::innermost() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Open.empty() ? NoParent : Open.back();
}

uint32_t RequestTrace::innermostOf(SpanKind K) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto It = Open.rbegin(); It != Open.rend(); ++It)
    if (Spans[*It].Kind == K)
      return *It;
  return NoParent;
}

std::vector<Span> RequestTrace::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

bool computeSelfTimes(const std::vector<Span> &Spans,
                      std::vector<uint64_t> &Self, std::string *Err) {
  auto fail = [Err](std::string Msg) {
    if (Err)
      *Err = std::move(Msg);
    return false;
  };
  size_t N = Spans.size();
  if (N == 0 || Spans[0].Parent != NoParent)
    return fail("span 0 is not a root");
  std::vector<std::vector<uint32_t>> Kids(N);
  for (uint32_t I = 0; I != N; ++I) {
    const Span &S = Spans[I];
    if (S.EndNs < S.StartNs)
      return fail("span " + spanName(S) + " ends before it starts");
    if (I == 0)
      continue;
    if (S.Parent >= I)
      return fail("span " + spanName(S) + " has no earlier parent");
    const Span &P = Spans[S.Parent];
    if (S.StartNs < P.StartNs || S.EndNs > P.EndNs)
      return fail("span " + spanName(S) + " is not within " + spanName(P));
    Kids[S.Parent].push_back(I);
  }

  Self.assign(N, 0);
  uint64_t SyncSelfSum = 0;
  for (uint32_t I = 0; I != N; ++I) {
    std::vector<uint32_t> Sync;
    for (uint32_t K : Kids[I])
      if (!Spans[K].Async)
        Sync.push_back(K);
    std::sort(Sync.begin(), Sync.end(), [&](uint32_t A, uint32_t B) {
      return Spans[A].StartNs < Spans[B].StartNs;
    });
    // Covered part of the parent's interval: the union of the children,
    // which must not overlap each other.
    uint64_t Covered = 0, PrevEnd = 0;
    for (uint32_t K : Sync) {
      if (Spans[K].StartNs < PrevEnd)
        return fail("synchronous spans under " + spanName(Spans[I]) +
                    " overlap");
      Covered += Spans[K].EndNs - Spans[K].StartNs;
      PrevEnd = Spans[K].EndNs;
    }
    Self[I] = Spans[I].EndNs - Spans[I].StartNs - Covered;
  }
  // A span counts in the sum when it and all its ancestors are
  // synchronous. Parents always precede their children (checked above).
  std::vector<bool> InSum(N, true);
  for (uint32_t I = 0; I != N; ++I) {
    if (I != 0)
      InSum[I] = !Spans[I].Async && InSum[Spans[I].Parent];
    if (InSum[I])
      SyncSelfSum += Self[I];
  }
  if (SyncSelfSum != Spans[0].EndNs - Spans[0].StartNs)
    return fail("self times do not sum to the root span");
  return true;
}

void writeSpans(const RequestTrace &T, std::FILE *Out) {
  std::vector<Span> Spans = T.spans();
  for (uint32_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "{\"req\":%" PRIu64 ",\"key\":%" PRIu64
                 ",\"span\":%u,\"name\":\"%s\",\"parent\":%d,\"async\":%d,"
                 "\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64 "}\n",
                 T.Id, T.Key, I, spanName(S).c_str(),
                 S.Parent == NoParent ? -1 : static_cast<int>(S.Parent),
                 S.Async ? 1 : 0, S.StartNs, S.EndNs);
  }
}

double quantile(const std::vector<uint64_t> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Pos = P * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  if (Lo + 1 >= Sorted.size())
    return static_cast<double>(Sorted.back());
  double Frac = Pos - static_cast<double>(Lo);
  return static_cast<double>(Sorted[Lo]) +
         Frac * (static_cast<double>(Sorted[Lo + 1]) -
                 static_cast<double>(Sorted[Lo]));
}

} // namespace perfbench
