//===- perfbench/src/CompileCold.cpp - compile_cold workload --------------===//
//
// Part of the QCF project.
//
// The paper's compile-time axis: every in-process tier compiles all 23
// corpus plans from the same QIR through a bare Backend::compile (no
// cache), round after round, on one thread. Each module then runs once
// on tiny data, only so its output can be checked; the executor does
// almost no work here.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

namespace qcf::perfbench {

namespace {

/// Tiny data: the plans are what is measured, not the rows.
constexpr double kTinySf = 0.01;

} // namespace

int runCompileCold(const Args &A) {
  std::vector<Timed> Setups;
  Ops O;
  Rng R(A.Seed);
  auto C = timedSetup<Corpus>(5, Setups, [&] {
    auto C = makeCorpus(kTinySf, kTinySf);
    // One warm-up round so lazily built tables (the stencil library, the
    // runtime symbol index) are not charged to the first timed compile.
    Ladder Warm(*C);
    Warm.round(R, O);
    return C;
  });

  Report Rep;
  Ladder Plain(*C);
  uint64_t End = nowNs() + uint64_t(A.Seconds * 1e9);

  if (!A.Trace) {
    while (nowNs() < End)
      Plain.round(R, O);
    // Before the statistics below allocate in proportion to the samples.
    double Rss = peakRssMb();
    Rep.set("setup_s", setupSeconds(Setups), "s");
    reportLadder(Rep, Plain);
    reportLatency(Rep, Plain.RequestMs);
    Rep.set("qps", ratePerS(double(Plain.RequestMs.size()), Plain.RequestMs),
            "1/s");
    Rep.set("peak_rss_mb", Rss, "MiB");
    Rep.print(O);
    return 0;
  }

  // Traced: untraced and traced rounds alternate, so the overhead of
  // tracing is measured against rounds run under the same conditions.
  Ladder Traced(*C);
  std::map<std::string, TimeTrace> Phases;
  SpanLog Spans;
  for (bool T = false; nowNs() < End; T = !T) {
    if (T)
      Traced.round(R, O, &Phases, &Spans);
    else
      Plain.round(R, O);
  }
  writeSpans(A, {&Spans});
  Layers L;
  L.addSpans(Spans, {{"db.execute", "exec.runtime_ms"},
                     {"exec.compile", "exec.cache_hit_ms"},
                     {"exec.pipeline", "exec.pipeline_ms"}});
  for (const auto &[Tier, Tr] : Phases)
    L.addPhases(Tier, Tr);
  double Rounds = double(Traced.RoundMs.size());
  std::map<std::string, double> Per;
  for (const auto &[N, Ms] : L.Ms)
    Per[N] = Ms / Rounds;
  Per["unattributed_ms"] = unattributed(L.WallMs / Rounds, Per);
  Per["exec.parallel_pipelines"] = double(Traced.ParallelPipelines) / Rounds;
  double Base = median(Plain.RoundMs);
  Per["trace.overhead_pct"] = (median(Traced.RoundMs) - Base) / Base * 100;
  reportLayers(Rep, Per, codeBytes(*C));
  Rep.print(O);
  return 0;
}

} // namespace qcf::perfbench
