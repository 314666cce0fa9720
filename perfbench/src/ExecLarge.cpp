//===- perfbench/src/ExecLarge.cpp - exec_large workload ------------------===//
//
// Part of the QCF project.
//
// Generated-code quality and the executor: the 12 TPC-DS-like plans over
// SF 16 data (192k store_sales rows, more than one core's 2 MiB L2),
// executed with db::executeQuery and ExecOptions::NumThreads = 2. Each
// tier compiles through a CachingBackend warmed during set-up, so the
// compile inside every timed executeQuery is a cache hit and execution
// does the work.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "backend/Cache.h"
#include "backend/Registry.h"
#include <cmath>

namespace qcf::perfbench {

namespace {

constexpr double kLargeSf = 16;
constexpr unsigned kExecThreads = 2;

struct Setup {
  std::unique_ptr<Corpus> C;
  std::vector<std::pair<std::string, std::unique_ptr<backend::CachingBackend>>>
      Tiers;
};

struct Round {
  /// Per tier, each plan's fastest cache-hit compile, and the fastest
  /// probe (run after every exec pass).
  std::map<std::string, std::vector<double>> FastestCompileMs;
  double FastestProbeMs = 0;
  std::map<std::string, std::vector<Timed>> ExecMs;
  std::vector<Timed> QueryMs;
  std::vector<double> RoundMs;
  uint64_t ParallelPipelines = 0;
};

/// One round: for each tier (seeded order), a cache-hit Backend::compile
/// of every plan, then, for the tiers exec_ms is reported for, one
/// executeQuery pass over the plans. The Interpreter, seven times slower
/// than the rest, runs its pass every other round, so a run holds enough
/// executeQuery calls for a p99.
void runRound(Setup &S, Rng &R, Ops &O, Round &Out, SpanLog *Spans) {
  std::vector<size_t> Order(S.Tiers.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBounded(I)]);

  db::ExecOptions EO;
  EO.NumThreads = kExecThreads;
  Corpus &C = *S.C;
  uint64_t RoundStart = nowNs();
  int64_t Root = Spans ? Spans->open("round", -1, 0, RoundStart) : -1;
  for (size_t TI : Order) {
    auto &[Name, Cache] = S.Tiers[TI];
    std::vector<double> &FastCompile = Out.FastestCompileMs[Name];
    FastCompile.resize(C.Plans.size(), HUGE_VAL);
    for (size_t P = 0; P != C.Plans.size(); ++P) {
      uint64_t T0 = nowNs();
      std::unique_ptr<backend::CompiledModule> M =
          Cache->compile(*C.Plans[P].Module);
      uint64_t T1 = nowNs();
      FastCompile[P] = std::min(FastCompile[P], double(T1 - T0) * 1e-6);
      if (Spans)
        Spans->add("cache.compile", Root, 0, T0, T1);
    }
    if (!reportsExec(Name) ||
        (Name == "Interpreter" && Out.RoundMs.size() % 2 == 1))
      continue;
    double ExecMs = 0;
    size_t FirstQuery = Out.QueryMs.size();
    for (size_t P = 0; P != C.Plans.size(); ++P) {
      uint64_t T0 = nowNs();
      bool Ran = false;
      db::ExecResult ER;
      uint64_t D = runDigest(C.Plans[P], *Cache, C.Cat, EO, Ran, &ER);
      uint64_t T1 = nowNs();
      O.check(Ran, D, C.Ref[P]);
      ExecMs += double(T1 - T0) * 1e-6;
      Out.QueryMs.push_back({double(T1 - T0) * 1e-6, T1});
      for (const db::PipelineStats &PS : ER.Stats.Pipelines)
        Out.ParallelPipelines += PS.Workers > 1;
      if (Spans) {
        int64_t E = Spans->add("db.execute", Root, 0, T0, T1);
        addExecChildren(*Spans, E, 0, T0, ER.Stats);
      }
    }
    uint64_t ExecEnd = nowNs();
    double Probe = probeMs();
    if (Out.FastestProbeMs == 0 || Probe < Out.FastestProbeMs)
      Out.FastestProbeMs = Probe;
    Out.ExecMs[Name].push_back({ExecMs, ExecEnd, Probe});
    for (size_t I = FirstQuery; I != Out.QueryMs.size(); ++I)
      Out.QueryMs[I].ProbeMs = Probe;
    machineSpeed().tick();
  }
  uint64_t End = nowNs();
  if (Spans)
    Spans->close(Root, End);
  Out.RoundMs.push_back(double(End - RoundStart) * 1e-6);
}

} // namespace

int runExecLarge(const Args &A) {
  std::vector<Timed> Setups;
  auto S = timedSetup<Setup>(5, Setups, [] {
    auto S = std::make_unique<Setup>();
    S->C = makeCorpus(0, kLargeSf);
    for (const std::string &T : ladderTiers()) {
      auto Cache = std::make_unique<backend::CachingBackend>(
          backend::createBackend(T));
      for (const db::CompiledPlan &P : S->C->Plans)
        Cache->compile(*P.Module);
      S->Tiers.push_back({T, std::move(Cache)});
    }
    return S;
  });

  Ops O;
  Rng R(A.Seed);
  Report Rep;
  Round Plain;
  presize(Plain.QueryMs, 1u << 13);
  uint64_t End = nowNs() + uint64_t(A.Seconds * 1e9);

  if (!A.Trace) {
    while (nowNs() < End)
      runRound(*S, R, O, Plain, nullptr);
    // Before the statistics below allocate in proportion to the samples.
    double Rss = peakRssMb();
    Rep.set("setup_s", setupSeconds(Setups), "s");
    for (const std::string &T : ladderTiers())
      Rep.set("compile_ms." + T,
              scaledFastestSum(Plain.FastestCompileMs[T], Plain.FastestProbeMs),
              "ms");
    for (const std::string &T : ladderTiers())
      if (reportsExec(T))
        Rep.set("exec_ms." + T, scaledMedian(Plain.ExecMs[T]), "ms");
    reportLatency(Rep, Plain.QueryMs);
    Rep.set("qps", ratePerS(double(Plain.QueryMs.size()), Plain.QueryMs),
            "1/s");
    Rep.set("peak_rss_mb", Rss, "MiB");
    Rep.print(O);
    return 0;
  }

  Round Traced;
  SpanLog Spans;
  for (bool T = false; nowNs() < End; T = !T)
    runRound(*S, R, O, T ? Traced : Plain, T ? &Spans : nullptr);
  writeSpans(A, {&Spans});
  Layers L;
  L.addSpans(Spans, {{"cache.compile", "cache.compile_ms"},
                     {"db.execute", "exec.runtime_ms"},
                     {"exec.compile", "exec.cache_hit_ms"},
                     {"exec.pipeline", "exec.pipeline_ms"}});
  double Rounds = double(Traced.RoundMs.size());
  std::map<std::string, double> Per;
  for (const auto &[N, Ms] : L.Ms)
    Per[N] = Ms / Rounds;
  Per["unattributed_ms"] = unattributed(L.WallMs / Rounds, Per);
  Per["exec.parallel_pipelines"] = double(Traced.ParallelPipelines) / Rounds;
  // Per-tier pass medians, not round medians: a round's time depends on
  // whether it holds the Interpreter's pass.
  auto PassMs = [](const Round &Rd) {
    double Sum = 0;
    for (const auto &[Tier, Passes] : Rd.ExecMs) {
      std::vector<double> Ms;
      for (const Timed &T : Passes)
        Ms.push_back(T.Ms);
      Sum += median(Ms);
    }
    return Sum;
  };
  double Base = PassMs(Plain);
  Per["trace.overhead_pct"] = (PassMs(Traced) - Base) / Base * 100;
  reportLayers(Rep, Per, codeBytes(*S->C));
  Rep.print(O);
  return 0;
}

} // namespace qcf::perfbench
