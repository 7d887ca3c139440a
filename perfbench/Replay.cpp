//===- perfbench/Replay.cpp - Entry points, plain and traced --------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "backend/Registry.h"
#include "db/Codegen.h"
#include "support/TimeTrace.h"
#include <algorithm>
#include <cassert>

using namespace qcf;

namespace perfbench {

const char *tierPrefix(const std::string &Name) {
  static const std::pair<const char *, const char *> Table[] = {
      {"Interpreter", "interp"},   {"Stencil", "stencil"},
      {"DirectEmit", "direct"},    {"Craneline", "craneline"},
      {"MLVM-cheap", "mlvm_cheap"}, {"MLVM-opt", "mlvm_opt"}};
  for (const auto &[Backend, Prefix] : Table)
    if (Name == Backend)
      return Prefix;
  return "other";
}

uint64_t countInsts(const qir::Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    N += F->numInsts();
  return N;
}

namespace {

Outcome fromExec(const db::ExecResult &ER, const rt::OutputBuffer &Out) {
  Outcome O;
  O.Ok = !ER.Trapped && !ER.Cancelled;
  if (O.Ok) {
    O.Rows = Out.numRows();
    O.Digest = Out.unorderedDigest();
  }
  O.Stats = ER.Stats;
  return O;
}

db::ExecOptions adaptiveOptions(backend::Backend &Fast,
                                backend::CompileService &Svc) {
  db::ExecOptions EO;
  EO.AdaptiveExec = true;
  EO.FastBackend = &Fast;
  EO.Service = &Svc;
  return EO;
}

} // namespace

// --- System ------------------------------------------------------------------

System::System(const WorkloadConfig &Cfg, const db::Catalog &Cat)
    : Cfg(Cfg), Cat(Cat) {
  if (Cfg.Kind == WorkloadKind::Adaptive) {
    Svc = std::make_unique<backend::CompileService>(CompileWorkers, 0,
                                                    &Reg);
    Fast = backend::createBackend(Cfg.Tier);
    Opt = backend::createBackend(Cfg.OptTier);
    return;
  }
  serve::ServerConfig SC;
  SC.BackendName = Cfg.Tier;
  SC.CompileWorkers = CompileWorkers;
  SC.CacheCapacity = Cfg.CacheCapacity;
  SC.Reg = &Reg;
  Srv = std::make_unique<serve::Server>(SC, Cat);
  Srv->registerTenant("bench", serve::TenantQuota());
  for (unsigned D = 0; D != Drivers; ++D) {
    serve::OpenOutcome OO = Srv->openSession("bench");
    if (OO.Outcome != serve::Admit::Ok)
      reportFatalError("perfbench: cannot open a session");
    Sessions.push_back(OO.SessionId);
  }
}

System::~System() {
  if (Srv)
    Srv->shutdown();
  if (Svc)
    Svc->shutdown();
}

Outcome System::run(unsigned Driver, const db::Query &Q) {
  if (Srv) {
    serve::QueryOutcome R = Srv->execute(Sessions[Driver], Q);
    Outcome O;
    O.Ok = R.Ok;
    O.Rows = R.Rows;
    O.Digest = R.Digest;
    return O;
  }
  db::CompiledPlan Plan = db::compileQuery(Q, Cat);
  rt::OutputBuffer Out;
  db::ExecResult ER = db::executeQuery(
      Plan, *Opt, Cat, &Out, adaptiveOptions(*Fast, *Svc));
  return fromExec(ER, Out);
}

// --- Tracer ------------------------------------------------------------------

/// One CacheShim::compile call in flight on a request thread.
struct CacheCall {
  RequestTrace *T = nullptr;
  uint32_t CacheSpan = NoParent;
  uint64_t LookupNs = 0; ///< After the fingerprint, before the lookup.
  uint64_t ProbeNs = 0;  ///< The L2 probe asked the tier for its config.
};

namespace {
/// The CacheShim call of the calling (request) thread, if any.
thread_local CacheCall *CurCall = nullptr;
/// The request of the calling driver thread, if any.
thread_local RequestTrace *CurRequest = nullptr;
} // namespace

void Tracer::link(const void *Module, CacheCall *C) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Links[Module] = C;
}

void Tracer::unlink(const void *Module) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Links.erase(Module);
}

CacheCall *Tracer::find(const void *Module) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Links.find(Module);
  return It == Links.end() ? nullptr : It->second;
}

void Tracer::begin(RequestTrace *T) {
  std::lock_guard<std::mutex> Lock(Mutex);
  InFlight.push_back(T);
}

void Tracer::end(RequestTrace *T) {
  std::lock_guard<std::mutex> Lock(Mutex);
  InFlight.erase(std::find(InFlight.begin(), InFlight.end(), T));
}

RequestTrace *Tracer::soleInFlight() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return InFlight.size() == 1 ? InFlight.front() : nullptr;
}

// --- Shims -------------------------------------------------------------------

TierShim::TierShim(std::unique_ptr<backend::Backend> Inner, Tracer &Tr)
    : Inner(std::move(Inner)), Tr(Tr), Tier(tierPrefix(this->Inner->name())) {}

std::string TierShim::cacheConfig() const {
  // DiskCodeCache::load asks for the config first: the L2 probe starts.
  if (CurCall && !CurCall->ProbeNs)
    CurCall->ProbeNs = nowNs();
  return Inner->cacheConfig();
}

std::unique_ptr<backend::CompiledModule>
TierShim::compile(const qir::Module &M, const backend::CompileOptions &Opts) {
  if (!Tr.Enabled.load(std::memory_order_relaxed))
    return Inner->compile(M, Opts);

  // Who is this compile for? A cache miss (linked by module pointer, on
  // whichever thread runs it); the request thread's own compile (the
  // adaptive fast tier); or a background compile of the only request in
  // flight (the adaptive optimized tier on a service worker).
  CacheCall *C = Tr.find(&M);
  RequestTrace *T = C ? C->T : CurRequest;
  uint32_t Parent = C ? C->CacheSpan : T ? T->innermost() : NoParent;
  bool Async = false;
  if (!T && (T = Tr.soleInFlight())) {
    Parent = T->innermostOf(SpanKind::Exec);
    Async = true;
  }

  uint64_t Start = nowNs();
  std::unique_ptr<backend::CompiledModule> R = Inner->compile(M, Opts);
  uint64_t End = nowNs();
  if (!T || Parent == NoParent) {
    Tr.Unlinked.fetch_add(1, std::memory_order_relaxed);
    return R;
  }
  if (C) {
    Span W;
    W.Kind = SpanKind::QueueWait;
    W.Parent = Parent;
    W.StartNs = std::min(C->ProbeNs ? C->ProbeNs : C->LookupNs, Start);
    W.EndNs = Start;
    T->add(W);
  }
  Span S;
  S.Kind = SpanKind::Compile;
  S.Tier = Tier;
  S.Parent = Parent;
  S.Async = Async;
  S.StartNs = Start;
  S.EndNs = End;
  T->add(S);
  return R;
}

std::unique_ptr<backend::CompiledModule>
TierShim::deserialize(const uint8_t *Data, size_t Len) {
  CacheCall *C = Tr.Enabled.load(std::memory_order_relaxed) ? CurCall : nullptr;
  uint64_t Start = nowNs();
  std::unique_ptr<backend::CompiledModule> R = Inner->deserialize(Data, Len);
  if (C) {
    Span S;
    S.Kind = SpanKind::Deserialize;
    S.Tier = Tier;
    S.Parent = C->CacheSpan;
    S.StartNs = Start;
    S.EndNs = nowNs();
    C->T->add(S);
  }
  return R;
}

std::unique_ptr<backend::CompiledModule>
CacheShim::compile(const qir::Module &M, const backend::CompileOptions &Opts) {
  RequestTrace *T = CurRequest;
  if (!T || !Tr.Enabled.load(std::memory_order_relaxed))
    return Cache.compile(M, Opts);

  CacheCall C;
  C.T = T;
  C.CacheSpan = T->open(SpanKind::Cache);
  // The cache fingerprints M again inside compile(); this span times the
  // same public function on the same module.
  uint32_t F = T->open(SpanKind::Fingerprint);
  backend::fingerprintModule(M);
  T->close(F);
  C.LookupNs = nowNs();
  CurCall = &C;
  Tr.link(&M, &C);
  std::unique_ptr<backend::CompiledModule> R = Cache.compile(M, Opts);
  Tr.unlink(&M);
  CurCall = nullptr;
  T->close(C.CacheSpan);
  return R;
}

// --- Replay ------------------------------------------------------------------

Replay::Replay(const WorkloadConfig &Cfg, const db::Catalog &Cat,
               backend::DiskCodeCache *Disk, obs::MetricsRegistry &Reg)
    : Cfg(Cfg), Cat(Cat), Reg(Reg) {
  if (Cfg.Kind == WorkloadKind::Adaptive) {
    Svc = std::make_unique<backend::CompileService>(CompileWorkers, 0,
                                                    &Reg);
    Fast = std::make_unique<TierShim>(backend::createBackend(Cfg.Tier), Tr);
    Opt = std::make_unique<TierShim>(backend::createBackend(Cfg.OptTier), Tr);
    return;
  }
  // Server's substrate, built the way Server's constructor builds it.
  serve::ServerConfig SC;
  Svc = std::make_unique<backend::CompileService>(
      CompileWorkers, SC.CompileQueueCapacity, &Reg);
  Cache = std::make_unique<backend::CachingBackend>(
      std::make_unique<TierShim>(backend::createBackend(Cfg.Tier), Tr),
      Cfg.CacheCapacity, Svc.get(), &Reg, Disk);
  Front = std::make_unique<CacheShim>(*Cache, Tr);
  Gate = std::make_unique<serve::AdmissionGate>(SC.Admission, &Reg,
                                                "replay.admission.");
}

Replay::~Replay() {
  if (Gate)
    Gate->close();
  Svc->shutdown();
}

Outcome Replay::run(const db::Query &Q, RequestTrace *T) {
  if (!Tr.Enabled.load(std::memory_order_relaxed))
    T = nullptr;
  CurRequest = T;
  uint32_t Root = NoParent;
  if (T) {
    Tr.begin(T);
    Root = T->open(SpanKind::Request);
  }
  auto open = [T](SpanKind K) { return T ? T->open(K) : NoParent; };
  auto close = [T](uint32_t I) {
    if (T)
      T->close(I);
  };
  auto finish = [&](Outcome O) {
    close(Root);
    if (T)
      Tr.end(T);
    CurRequest = nullptr;
    return O;
  };

  // Server::execute's order: admission, codegen, execute, release.
  qcf::CancelToken Ctl; // The session token Server arms; never fired here.
  uint64_t HoldStart = 0;
  if (Gate) {
    uint32_t A = open(SpanKind::Admit);
    serve::AdmissionGate::Decision D = Gate->enter(false, &Ctl);
    close(A);
    if (D.Outcome != serve::Admit::Ok)
      return finish(Outcome());
    HoldStart = nowNs();
  }

  uint32_t G = open(SpanKind::Codegen);
  db::CompiledPlan Plan = db::compileQuery(Q, Cat);
  close(G);
  uint64_t Insts = countInsts(*Plan.Module);

  rt::OutputBuffer Out;
  uint32_t E = open(SpanKind::Exec);
  db::ExecResult ER;
  if (Gate) {
    qcf::MemContext CompileMem;
    db::ExecOptions EO;
      EO.Control = &Ctl;
    EO.CompileMem = &CompileMem;
    EO.CompileFairnessKey = "bench";
    EO.Obs = obs::ObsContext(nullptr, &Reg, nullptr);
    ER = db::executeQuery(Plan, *Front, Cat, &Out, EO);
  } else {
    ER = db::executeQuery(Plan, *Opt, Cat, &Out,
                          adaptiveOptions(*Fast, *Svc));
  }
  close(E);
  Outcome O = fromExec(ER, Out);
  O.QirInsts = Insts;
  if (Gate)
    Gate->leave(nowNs() - HoldStart);
  return finish(O);
}

} // namespace perfbench
