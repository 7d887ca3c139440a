//===- bench/bench_cache.cpp - Compiled-query cache ablation --------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extension experiment (not in the paper; motivated by its conclusion
/// that compile time is a first-order cost): how much of each back-end's
/// compile time a content-addressed plan cache recovers on repeated
/// queries. The hit path costs one structural hash of the module —
/// printed separately so the break-even point is visible.
///
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/DiskCache.h"
#include "bench/BenchUtil.h"
#include "support/TimeTrace.h"
#include <cstring>
#include <dirent.h>
#include <unistd.h>

using namespace qcf;
using namespace qcf::bench;

namespace {

/// `--disk`: time installing the suite from a warm persistent cache
/// (mmap + validate + relocation re-patch) against JIT-compiling it. The
/// interesting ratio is against DirectEmit — the cheapest compiler in the
/// paper's tables: a warm install must beat even that by a wide margin
/// for restart-time plan warming to be worth the disk.
int runDiskBench() {
  printHeader("Persistent code cache: warm-hit install vs JIT compile",
              "extension; see EXPERIMENTS.md");

  Suite S = makeDsSuite(0.5);
  std::string Dir = "/tmp/qcfbenchdiskXXXXXX";
  if (!::mkdtemp(Dir.data()))
    reportFatalError("mkdtemp failed");

  std::vector<backend::ModuleFingerprint> Keys;
  for (db::CompiledPlan &P : S.Plans)
    Keys.push_back(backend::fingerprintModule(*P.Module));

  double DirectColdSec = 0;
  std::printf("%-12s %14s %14s %10s %16s\n", "backend", "cold[ms]",
              "warm[ms]", "vs cold", "vs DirectEmit");
  // GCC is excluded: its modules are process-local .so loads with no
  // serialized form, so it can never warm-install.
  for (const char *Name :
       {"DirectEmit", "Stencil", "Craneline", "MLVM-cheap", "MLVM-opt"}) {
    std::unique_ptr<backend::Backend> BE = backend::createBackend(Name);
    backend::CompileOptions Opts;

    Stopwatch Cold;
    std::vector<std::unique_ptr<backend::CompiledModule>> Compiled;
    for (db::CompiledPlan &P : S.Plans)
      Compiled.push_back(BE->compile(*P.Module, Opts));
    double ColdSec = Cold.elapsedSec();
    if (!std::strcmp(Name, "DirectEmit"))
      DirectColdSec = ColdSec;

    obs::MetricsRegistry Reg;
    backend::DiskCodeCache Disk(Dir, 0, &Reg);
    for (size_t I = 0; I != S.Plans.size(); ++I)
      if (!Disk.store(Keys[I], *BE, *Compiled[I], Opts))
        reportFatalError("store failed");

    double WarmSec = 1e100;
    for (unsigned R = 0; R != 5; ++R) {
      // Like the cold side, keep the loaded modules alive while timed:
      // a warming restart installs N queries and then runs them, so
      // module teardown is not part of install cost.
      std::vector<std::shared_ptr<backend::CompiledModule>> Loaded;
      Loaded.reserve(S.Plans.size());
      Stopwatch Warm;
      for (size_t I = 0; I != S.Plans.size(); ++I) {
        Loaded.push_back(Disk.load(Keys[I], *BE, Opts));
        if (!Loaded.back())
          reportFatalError("warm load missed");
      }
      WarmSec = std::min(WarmSec, Warm.elapsedSec());
    }

    std::printf("%-12s %14.3f %14.3f %9.0fx %15.0fx\n", Name, ColdSec * 1e3,
                WarmSec * 1e3, ColdSec / WarmSec, DirectColdSec / WarmSec);
  }
  std::printf("\n(a warm install is pread + checksum + relocation re-patch "
              "+ one pwrite into the code heap; the last column is the "
              "margin over the cheapest JIT compile)\n");

  // Scrub the scratch cache directory.
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (struct dirent *E = ::readdir(D))
      if (std::strcmp(E->d_name, ".") && std::strcmp(E->d_name, ".."))
        ::unlink((Dir + "/" + E->d_name).c_str());
    ::closedir(D);
  }
  ::rmdir(Dir.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--disk"))
    return runDiskBench();
  printHeader("Compiled-query cache: cold vs hit compile time",
              "extension; see EXPERIMENTS.md");

  Suite S = makeDsSuite(0.5);

  // Hashing cost alone (the entire cost of a hit).
  {
    Stopwatch W;
    uint64_t Sink = 0;
    for (unsigned R = 0; R != 50; ++R)
      for (db::CompiledPlan &P : S.Plans)
        Sink += backend::hashModule(*P.Module);
    double PerSuite = W.elapsedSec() / 50;
    std::printf("structural hash of all %zu modules: %8.3f ms   (sink %llx)\n\n",
                S.Plans.size(), PerSuite * 1e3,
                static_cast<unsigned long long>(Sink));
  }

  std::printf("%-12s %14s %14s %10s\n", "backend", "cold[ms]", "hit[ms]",
              "speedup");
  for (const char *Name :
       {"DirectEmit", "Craneline", "MLVM-cheap", "MLVM-opt", "GCC"}) {
    backend::CachingBackend BE(backend::createBackend(Name));

    Stopwatch Cold;
    for (db::CompiledPlan &P : S.Plans)
      BE.compile(*P.Module);
    double ColdSec = Cold.elapsedSec();

    double HitSec = 1e100;
    for (unsigned R = 0; R != 5; ++R) {
      Stopwatch Hit;
      for (db::CompiledPlan &P : S.Plans)
        BE.compile(*P.Module);
      HitSec = std::min(HitSec, Hit.elapsedSec());
    }
    backend::CacheStats St = BE.stats();
    if (St.Misses != S.Plans.size())
      reportFatalError("unexpected cache misses");

    std::printf("%-12s %14.3f %14.3f %9.0fx\n", Name, ColdSec * 1e3,
                HitSec * 1e3, ColdSec / HitSec);
  }
  std::printf("\n(a hit costs only the structural hash; even DirectEmit — "
              "the paper's fastest compiler — is beaten by not compiling)\n");
  return 0;
}
