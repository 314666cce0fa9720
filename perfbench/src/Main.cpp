//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
// Part of the QCF project.
//
//   perfbench --workload <compile_cold|exec_large|serve_mix|serve_restart>
//             --seed N --seconds S --trace 0|1
//             [--serve-bin PATH] [--work-dir DIR]
//
// Prints a table and, as the last line of stdout, one JSON object with
// correct/attempted/failed and the metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace qcf::perfbench;

namespace {

/// Configuration from the environment would let two runs measure
/// different programs; every knob the workloads depend on is pinned to
/// its default instead.
void clearEnvironment() {
  for (const char *V :
       {"QCF_CODE_CACHE", "QCF_CODE_CACHE_BYTES", "QCF_VERIFY", "QCF_ALLOC",
        "QCF_FAST_TIER", "QCF_SERVE_BACKEND", "QCF_SERVE_COMPILE_WORKERS",
        "QCF_SERVE_QUEUE_CAP", "QCF_SERVE_CACHE_CAP", "QCF_SERVE_SLOTS",
        "QCF_SERVE_MAX_WAITERS", "QCF_SERVE_IDLE_TIMEOUT_MS",
        "QCF_SERVE_SWEEP_MS", "QCF_SERVE_DEADLINE_MS",
        "QCF_SERVE_EXEC_THREADS", "QCF_SERVE_TENANTS", "QCF_SERVE_SF",
        "QCF_SERVE_SOCK"})
    unsetenv(V);
}

int usage() {
  std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S "
                       "--trace 0|1 [--serve-bin PATH] [--work-dir DIR]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  for (int I = 1; I < argc; ++I) {
    if (I + 1 >= argc)
      return usage();
    std::string K = argv[I], V = argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--serve-bin")
      A.ServeBin = V;
    else if (K == "--work-dir")
      A.WorkDir = V;
    else
      return usage();
  }
  if (A.Seconds <= 0)
    return usage();
  clearEnvironment();
  std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Seconds,
              int(A.Trace));
  if (A.Workload == "compile_cold")
    return runCompileCold(A);
  if (A.Workload == "exec_large")
    return runExecLarge(A);
  if (A.Workload == "serve_mix")
    return runServeMix(A);
  if (A.Workload == "serve_restart")
    return runServeRestart(A);
  std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
  return 2;
}
