//===- perfbench/Main.cpp - Benchmark command line ------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
//
//   qcf_perfbench --workload adhoc|repeat|restart|adaptive --seed N
//                 --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints one JSON result line on stdout (diagnostics go to stderr). DIR
// holds the workload's L2 directory while it runs and the traced run's
// span file afterwards.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

static int usage(const char *Msg) {
  std::fprintf(stderr,
               "qcf_perfbench: %s\nusage: qcf_perfbench --workload "
               "adhoc|repeat|restart|adaptive --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               Msg);
  return 2;
}

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      std::optional<WorkloadKind> K = parseWorkload(Val);
      if (!K)
        return usage(("unknown workload " + Val).c_str());
      O.Kind = *K;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
      if (*End || !(O.Seconds > 0 && O.Seconds <= 600))
        return usage("--seconds must be in (0, 600]");
    } else if (Arg == "--trace") {
      if (Val != "0" && Val != "1")
        return usage("--trace must be 0 or 1");
      O.Trace = Val == "1";
    } else if (Arg == "--work-dir") {
      O.WorkDir = Val;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
    if (End && *End)
      return usage(("malformed number " + Val).c_str());
  }
  if (!HaveWorkload)
    return usage("--workload is required");
  return runBenchmark(O);
}
