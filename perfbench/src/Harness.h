//===- perfbench/src/Harness.h - Shared benchmark machinery -----*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the four workloads share: the command line, the result line, the
/// corpus with its reference digests (the correctness oracle), and the
/// tier ladder — compiling and executing a plan set with every in-process
/// tier through the public Backend::compile and db::executeQuery calls.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_PERFBENCH_HARNESS_H
#define QCF_PERFBENCH_HARNESS_H

#include "Stats.h"
#include "backend/Backend.h"
#include "db/Codegen.h"
#include "db/Executor.h"
#include "support/Rng.h"
#include "support/TimeTrace.h"
#include <atomic>
#include <map>
#include <optional>
#include <memory>
#include <string>
#include <vector>

namespace qcf::perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ServeBin; ///< qcf_serve daemon (serve_restart).
  std::string WorkDir;  ///< Scratch space inside the checkout.
};

/// Operations attempted and failed. A failure is a digest mismatch, a
/// trap, a cancel, an admission reject or a protocol ERR; only digest
/// mismatches make the run incorrect. Thread-safe.
struct Ops {
  std::atomic<uint64_t> Attempted{0}, Failed{0}, Mismatches{0};

  void ok() { Attempted.fetch_add(1, std::memory_order_relaxed); }
  void fail(bool Mismatch) {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    Failed.fetch_add(1, std::memory_order_relaxed);
    if (Mismatch)
      Mismatches.fetch_add(1, std::memory_order_relaxed);
  }
  /// Counts one operation whose output digest was \p Got against \p Want.
  void check(bool Ran, uint64_t Got, uint64_t Want) {
    if (!Ran)
      fail(false);
    else if (Got != Want)
      fail(true);
    else
      ok();
  }
};

/// The metrics one run prints, in insertion order.
class Report {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// Prints a readable table, then the result line (last line of stdout).
  void print(const Ops &O) const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> M;
};

/// A duration and the moment it ended, so it can be scaled by the speed
/// the machine had at that moment. \p ProbeMs, when set, is the time of
/// the probe (probeMs) run right after the work, and the duration is
/// scaled by that probe alone.
struct Timed {
  double Ms = 0;
  uint64_t At = 0;
  double ProbeMs = 0;
};
inline Timed timedSince(uint64_t StartNs) {
  uint64_t Now = nowNs();
  return {double(Now - StartNs) * 1e-6, Now};
}

/// The speed of the machine during the run, from the probe kernel run
/// between units of work. The machines this benchmark runs on share
/// cores, caches and memory with other tenants; the same code ran up to
/// 2x slower for seconds to minutes at a time. Every end-to-end time is
/// multiplied by the reference probe time over the probe's time around
/// the moment it was measured, so that two runs of the same code agree.
struct MachineSpeed {
  /// Runs the probe when \p Force or when 100 ms passed since the last.
  void tick(bool Force = false);
  /// Scale factor at \p AtNs: from the median of the probes within 1.5 s
  /// of it (at least the three nearest).
  double factorAt(uint64_t AtNs) const;
  std::vector<double> scaled(const std::vector<Timed> &Ts) const;

  std::vector<std::pair<uint64_t, double>> Samples; ///< (end, probe ms)
  uint64_t LastNs = 0;
};
MachineSpeed &machineSpeed();

/// Runs the probe kernel, records it as a machine-speed sample and
/// returns its wall time. The probe is work shaped like a compiler's:
/// 2000 inserts into a std::map, then a vector sorted and looked up in
/// the map, about 0.6 ms. It slows down with contended caches and memory
/// the way compiles and queries do, which a pure-ALU kernel does not. It
/// is the benchmark's own code on memory of its own, so a change to the
/// program does not move it.
double probeMs();

/// Reserves and touches room for \p N samples up front, so the
/// benchmark's own bookkeeping adds a fixed amount to peak_rss_mb rather
/// than one that grows with how fast the run went.
template <typename T> void presize(std::vector<T> &V, size_t N) {
  V.resize(N);
  V.clear();
}

/// The sum of \p FastestMs (each plan's fastest time in the run), scaled
/// by the run's fastest probe: both describe the machine at its quietest.
double scaledFastestSum(const std::vector<double> &FastestMs,
                        double FastestProbeMs);
/// Median of \p Ts, each scaled to the reference machine speed (by its
/// probe when it has one).
double scaledMedian(const std::vector<Timed> &Ts);
/// \p Count over the scaled total of \p Busy, per second.
double ratePerS(double Count, const std::vector<Timed> &Busy);

/// Peak resident set (VmHWM) of process \p Pid in MiB; 0 if unreadable.
double peakRssMb(const std::string &Pid = "self");

/// A catalog, the corpus queries over it, their plans, and each plan's
/// reference digest. The catalog's column addresses are baked into the
/// plans, so a Corpus never moves (always held by unique_ptr).
struct Corpus {
  db::Catalog Cat;
  std::vector<db::Query> Queries;
  std::vector<db::CompiledPlan> Plans;
  std::vector<uint64_t> Ref; ///< Interpreter digest per plan.
};

/// Builds the corpus over TPC-H-like data at \p TpchSf and/or TPC-DS-like
/// data at \p DsSf (0 = leave that suite out), and computes the reference
/// digests. Exits with an error when a plan traps.
std::unique_ptr<Corpus> makeCorpus(double TpchSf, double DsSf);

/// The Interpreter's digest of \p Plan, or nothing when it traps. Set-up
/// fails (the process exits with an error) unless DirectEmit's digest is
/// the same.
std::optional<uint64_t> referenceDigest(const db::CompiledPlan &Plan,
                                        const db::Catalog &Cat,
                                        const std::string &Name);

/// Runs \p Plan with \p BE and returns the output digest; \p Ran is false
/// when the query trapped or was cancelled.
uint64_t runDigest(const db::CompiledPlan &Plan, backend::Backend &BE,
                   const db::Catalog &Cat, const db::ExecOptions &EO,
                   bool &Ran, db::ExecResult *R = nullptr);

/// In-process tiers, in the paper's order. GCC is left out on purpose.
const std::vector<std::string> &ladderTiers();
/// The tiers exec_ms is reported for (MLVM-cheap's code is close to
/// MLVM-opt's; it is compiled but not reported).
bool reportsExec(const std::string &Tier);

/// Writes the traced run's spans to <work dir>/spans-<workload>.csv
/// (name, start and end ns, parent index, request id; one file per
/// workload, replaced by every traced run).
void writeSpans(const Args &A, const std::vector<const SpanLog *> &Logs);

/// Self-time totals of one traced region of work.
struct Layers {
  std::map<std::string, double> Ms; ///< Layer metric name -> summed ms.
  double WallMs = 0;                 ///< Summed root-span wall time.

  void addSpans(const SpanLog &L, const std::map<std::string, std::string> &As);
  /// Adds each back-end phase of \p T as "phase.<tier>.<group>_ms".
  void addPhases(const std::string &Tier, const TimeTrace &T);
};

/// Adds the db.execute span's children from \p S: the compile through the
/// back-end ("exec.compile") and every pipeline ("exec.pipeline"), laid
/// out back to back from \p ExecStart. Returns the compile child's index.
int64_t addExecChildren(SpanLog &L, int64_t Exec, uint64_t Req,
                        uint64_t ExecStart, const db::QueryStats &S);

/// The tier ladder: every tier compiles (through Backend::compile, no
/// cache) and executes every plan of a corpus once per round.
class Ladder {
public:
  explicit Ladder(Corpus &C);

  /// Runs one round, tiers in a seeded order. \p Phases, when given,
  /// receives per-tier TimeTraces and \p Spans the round's spans.
  void round(Rng &R, Ops &O, std::map<std::string, TimeTrace> *Phases = nullptr,
             SpanLog *Spans = nullptr);

  /// Per tier, the fastest compile and execute time of each plan so far
  /// (unscaled), and the fastest probe (probeMs, run after every tier's
  /// pass). Per-request latencies, each with its pass's probe, and round
  /// times.
  std::map<std::string, std::vector<double>> FastestCompileMs, FastestExecMs;
  double FastestProbeMs = 0;
  std::vector<Timed> RequestMs;
  std::vector<double> RoundMs;
  uint64_t ParallelPipelines = 0; ///< Pipelines that ran on > 1 worker.

private:
  Corpus &C;
  std::vector<std::pair<std::string, std::unique_ptr<backend::Backend>>> Tiers;
};

/// Serialized code size per tier summed over \p C's plans (Interpreter
/// modules are not serializable and are left out).
std::map<std::string, uint64_t> codeBytes(Corpus &C);

/// Reports the ladder's compile_ms.* and exec_ms.*: per tier, the sum
/// over the plans of each plan's fastest time, scaled by the fastest
/// probe. Repeated compiles of one plan differ only by how much other
/// tenants slowed them, so the fastest is the steadiest estimate, and
/// the fastest probe says how fast the machine was at its quietest.
void reportLadder(Report &Rep, const Ladder &L);
/// Reports query_ms.p50 over all samples and query_ms.p99 as the lower
/// decile of the p99s of consecutive 1000-sample windows (of all samples
/// when there are fewer than 3 windows; not at all below 1000 samples).
/// Samples are scaled to the reference machine speed first.
void reportLatency(Report &Rep, const std::vector<Timed> &Ms);
/// Reports every per-layer metric: \p L's values, code_bytes, and zero
/// for the layers this workload does not call.
void reportLayers(Report &Rep, const std::map<std::string, double> &L,
                  const std::map<std::string, uint64_t> &CodeBytes);

/// Runs \p Reps set-ups and keeps the last one; \p Times receives each
/// set-up's duration (see setupSeconds).
template <typename T, typename Fn>
std::unique_ptr<T> timedSetup(unsigned Reps, std::vector<Timed> &Times,
                              Fn &&Make) {
  std::unique_ptr<T> Last;
  for (unsigned I = 0; I != Reps; ++I) {
    Last.reset();
    machineSpeed().tick(true);
    uint64_t T0 = nowNs();
    Last = Make();
    Times.push_back(timedSince(T0));
  }
  machineSpeed().tick(true);
  return Last;
}
/// Scaled median set-up time in seconds.
inline double setupSeconds(const std::vector<Timed> &Times) {
  return scaledMedian(Times) * 1e-3;
}

int runCompileCold(const Args &A);
int runExecLarge(const Args &A);
int runServeMix(const Args &A);
int runServeRestart(const Args &A);

} // namespace qcf::perfbench

#endif // QCF_PERFBENCH_HARNESS_H
