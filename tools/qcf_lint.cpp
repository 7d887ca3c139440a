//===- tools/qcf_lint.cpp - Machine-level verification driver --------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the full verification stack (DESIGN.md "Verification layers") over
/// QIR modules — parsed from .qir files or randomly generated — and exits
/// nonzero if any check failed:
///
///   qcf_lint query.qir other.qir      # lint parsed modules
///   qcf_lint --random 200 [--seed S]  # lint 200 random modules
///   qcf_lint --random 200 --tv        # additionally translation-validate
///   qcf_lint --fail-fast ...          # stop at the first failing module
///
/// Each module is IR-verified, then compiled by every JIT back-end with
/// the in-pipeline verification layers forced on: the mlvm back-end (all
/// three instruction selectors, cheap and optimized) verifies its MIR
/// after every machine pass and lints the emitted object's text,
/// DirectEmit and craneline lint their emitted bytes, and the known-bits
/// differential oracle cross-checks the DAG-combine analysis against the
/// MLVM-IR reference evaluator on concrete inputs. With --tv the emitted
/// code of every back-end is also co-simulated against the QIR source
/// (src/tv); tv runs out-of-band here — not via CompileOptions — so a
/// mismatch is recorded in the summary table instead of aborting the
/// sweep. A per-backend, per-stage PASS/FAIL table is printed at exit.
///
//===----------------------------------------------------------------------===//

#include "craneline/Craneline.h"
#include "direct/DirectEmit.h"
#include "mlvm/Eval.h"
#include "mlvm/KnownBits.h"
#include "mlvm/Mlvm.h"
#include "mlvm/Translate.h"
#include "qir/Parse.h"
#include "qir/Verify.h"
#include "runtime/Runtime.h"
#include "stencil/Stencil.h"
#include "support/Rng.h"
#include "tests/RandomQir.h"
#include "tv/Tv.h"
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace qcf;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: qcf_lint [--random N] [--seed S] [--tv] [--fail-fast]"
               " [file.qir ...]\n"
               "\n"
               "Verifies QIR modules through every back-end with all\n"
               "verification layers enabled (QCF_VERIFY=ir,mir,mc\n"
               "equivalent), plus the known-bits differential oracle.\n"
               "  --tv         also translation-validate the emitted code of\n"
               "               every back-end against the QIR source (src/tv)\n"
               "  --fail-fast  exit at the first failing module instead of\n"
               "               completing the sweep and summarizing\n");
  return 2;
}

/// One back-end under verification plus its accumulated per-stage tallies
/// for the summary table. The in-pipeline stages (mir, mc) abort the
/// process on failure, so their cells only ever show how many compiles
/// they survived; tv runs out-of-band and can accumulate failures.
struct Lane {
  std::unique_ptr<backend::Backend> BE;
  bool HasMir;
  uint64_t Compiles = 0;
  uint64_t TvPass = 0;
  uint64_t TvFail = 0;
};

/// All back-end configurations under verification.
std::vector<Lane> makeLanes() {
  std::vector<Lane> Lanes;
  for (bool Optimize : {false, true})
    for (mlvm::IselKind Kind :
         {mlvm::IselKind::Fast, mlvm::IselKind::Dag, mlvm::IselKind::Global}) {
      mlvm::MlvmOptions MO;
      MO.Optimize = Optimize;
      MO.Isel = Kind;
      Lanes.push_back({std::make_unique<mlvm::MlvmBackend>(MO), true});
    }
  Lanes.push_back({std::make_unique<direct::DirectBackend>(), false});
  Lanes.push_back({std::make_unique<stencil::StencilBackend>(), false});
  Lanes.push_back({std::make_unique<craneline::CranelineBackend>(), false});
  return Lanes;
}

/// Cross-checks the known-bits analysis against the MLVM-IR reference
/// evaluator on \p Rounds random inputs per function. Returns false (after
/// printing a diagnostic) if a claimed-zero bit was observed set.
bool runKnownBitsOracle(const qir::Module &M, Rng &R, unsigned Rounds) {
  mlvm::EvalOptions Opts;
  Opts.KnownZero = [](const mlvm::Value *V) {
    return mlvm::knownZeroBits(V, 0);
  };
  for (const auto &F : M.functions()) {
    // Pointer parameters would need a valid buffer; such functions are
    // exercised by the back-end differential tests instead.
    bool HasPtr = false;
    size_t Lanes = 0;
    for (qir::Type Ty : F->paramTypes()) {
      HasPtr |= Ty == qir::Type::Ptr;
      Lanes += qir::isTwoLane(Ty) ? 2 : 1;
    }
    if (HasPtr)
      continue;
    std::unique_ptr<mlvm::MFunction> IR =
        mlvm::translateToMlvm(*F, mlvm::D128Mode::SplitPairs);
    for (unsigned K = 0; K != Rounds; ++K) {
      std::vector<uint64_t> Args(Lanes ? Lanes : 1);
      for (uint64_t &A : Args)
        A = K == 0 ? 0 : R.next();
      mlvm::EvalResult Res =
          mlvm::evalFunction(*IR, Args.data(), Lanes, Opts);
      // Traps and fuel exhaustion are fine; only oracle violations count.
      if (!Res.Error.empty() && Res.Error.rfind("known-bits", 0) == 0) {
        std::fprintf(stderr, "qcf_lint: %s: %s\n", F->name().c_str(),
                     Res.Error.c_str());
        return false;
      }
    }
  }
  return true;
}

/// Runs the whole stack over one module. MIR/MC verification failures
/// abort the process with a diagnostic (nonzero exit); IR, tv, and oracle
/// failures return false so the sweep can continue (unless --fail-fast).
bool lintModule(const qir::Module &M, const char *Label, Rng &OracleRng,
                std::vector<Lane> &Lanes, bool Tv, bool &OracleOk) {
  if (auto Err = qir::verify(M)) {
    std::fprintf(stderr, "qcf_lint: %s: IR verification failed: %s\n", Label,
                 Err->c_str());
    return false;
  }
  bool Ok = true;
  backend::CompileOptions Opts;
  Opts.Verify = VerifyOptions::all(); // ir, mir, mc — tv runs out-of-band.
  for (Lane &L : Lanes) {
    std::unique_ptr<backend::CompiledModule> CM = L.BE->compile(M, Opts);
    ++L.Compiles;
    if (!Tv)
      continue;
    std::string Err =
        tv::validateModule(M, CM->tvFunctions(), tv::TvOptions::fromEnv());
    if (Err.empty()) {
      ++L.TvPass;
    } else {
      ++L.TvFail;
      Ok = false;
      std::fprintf(stderr, "qcf_lint: %s: %s [%s]\n%s", Label,
                   "translation validation failed", L.BE->name().c_str(),
                   Err.c_str());
    }
  }
  if (!runKnownBitsOracle(M, OracleRng, 4)) {
    OracleOk = false;
    Ok = false;
  }
  return Ok;
}

/// The per-backend, per-stage summary. "ok" means every compile survived
/// the stage (the in-pipeline stages abort the process otherwise); "-"
/// means the stage does not exist for that back-end or was not requested.
void printTable(const std::vector<Lane> &Lanes, bool Tv, bool OracleOk) {
  std::printf("\n%-18s %8s %5s %5s %5s %8s\n", "backend", "compiles", "ir",
              "mir", "mc", "tv");
  for (const Lane &L : Lanes) {
    char TvCell[32]; // "FAIL:" + up to 20 digits + NUL.
    if (!Tv)
      std::snprintf(TvCell, sizeof(TvCell), "-");
    else if (L.TvFail)
      std::snprintf(TvCell, sizeof(TvCell), "FAIL:%llu",
                    static_cast<unsigned long long>(L.TvFail));
    else
      std::snprintf(TvCell, sizeof(TvCell), "ok");
    std::printf("%-18s %8llu %5s %5s %5s %8s\n", L.BE->name().c_str(),
                static_cast<unsigned long long>(L.Compiles), "ok",
                L.HasMir ? "ok" : "-", "ok", TvCell);
  }
  std::printf("%-18s %8s %5s %5s %5s %8s\n", "known-bits oracle", "", "", "",
              "", OracleOk ? "ok" : "FAIL");
}

} // namespace

int main(int argc, char **argv) {
  unsigned RandomModules = 0;
  uint64_t Seed = 1;
  bool Tv = false;
  bool FailFast = false;
  std::vector<std::string> Files;

  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--random" && I + 1 != argc)
      RandomModules = static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 0));
    else if (Arg == "--seed" && I + 1 != argc)
      Seed = std::strtoull(argv[++I], nullptr, 0);
    else if (Arg == "--tv")
      Tv = true;
    else if (Arg == "--fail-fast")
      FailFast = true;
    else if (Arg == "--help" || Arg == "-h" || Arg[0] == '-')
      return usage();
    else
      Files.push_back(Arg);
  }
  if (!RandomModules && Files.empty())
    return usage();

  auto Lanes = makeLanes();
  Rng OracleRng(Seed ^ 0x6c696e74); // "lint"
  unsigned Failures = 0;
  bool OracleOk = true;

  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "qcf_lint: cannot open %s\n", Path.c_str());
      return 1;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    std::string ParseErr;
    std::unique_ptr<qir::Module> M =
        qir::parseModule(Buf.str(), &ParseErr, rt::runtimeSymbolAddress);
    if (!M) {
      std::fprintf(stderr, "qcf_lint: %s: %s\n", Path.c_str(),
                   ParseErr.c_str());
      return 1;
    }
    if (!lintModule(*M, Path.c_str(), OracleRng, Lanes, Tv, OracleOk)) {
      ++Failures;
      if (FailFast)
        return 1;
    } else {
      std::printf("%s: ok\n", Path.c_str());
    }
  }

  for (unsigned I = 0; I != RandomModules; ++I) {
    qir::Module M;
    Rng R(Seed + I);
    test::RandomFnBuilder Gen(M, R);
    for (unsigned F = 0; F != 4; ++F)
      Gen.build("rand" + std::to_string(F));
    std::string Label = "random module " + std::to_string(I) + " (seed " +
                        std::to_string(Seed + I) + ")";
    if (!lintModule(M, Label.c_str(), OracleRng, Lanes, Tv, OracleOk)) {
      ++Failures;
      if (FailFast)
        return 1;
    }
    if ((I + 1) % 50 == 0 || I + 1 == RandomModules)
      std::printf("verified %u/%u random modules\n", I + 1, RandomModules);
  }

  printTable(Lanes, Tv, OracleOk);
  if (Failures) {
    std::fprintf(stderr, "qcf_lint: %u module(s) failed\n", Failures);
    return 1;
  }
  std::printf("qcf_lint: all checks passed\n");
  return 0;
}
