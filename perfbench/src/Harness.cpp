//===- perfbench/src/Harness.cpp - Shared benchmark machinery -------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "backend/Registry.h"
#include "db/Datagen.h"
#include "db/Queries.h"
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory_resource>

namespace qcf::perfbench {

void Report::set(const std::string &Name, double Value,
                 const std::string &Unit) {
  for (auto &E : M)
    if (E.first == Name) {
      E.second = {Value, Unit};
      return;
    }
  M.push_back({Name, {Value, Unit}});
}

void Report::print(const Ops &O) const {
  std::vector<double> Probe;
  for (const auto &[At, Ms] : machineSpeed().Samples)
    Probe.push_back(Ms);
  std::printf("  machine speed: probe %.3f ms median, %.3f ms fastest, "
              "of %zu\n",
              median(Probe),
              Probe.empty() ? 0 : *std::min_element(Probe.begin(), Probe.end()),
              Probe.size());
  for (const auto &[Name, VU] : M)
    std::printf("  %-36s %14.6f %s\n", Name.c_str(), VU.first,
                VU.second.c_str());
  std::string J = "{\"correct\": ";
  J += O.Mismatches.load() == 0 ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(O.Attempted.load());
  J += ", \"failed\": " + std::to_string(O.Failed.load());
  J += ", \"metrics\": {";
  bool First = true;
  char Buf[64];
  for (const auto &[Name, VU] : M) {
    std::snprintf(Buf, sizeof(Buf), "%.9g", VU.first);
    J += First ? "" : ", ";
    J += "\"" + Name + "\": {\"value\": " + Buf + ", \"unit\": \"" +
         VU.second + "\"}";
    First = false;
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

double peakRssMb(const std::string &Pid) {
  // VmHWM rather than getrusage: ru_maxrss survives exec, so it would
  // report the launching process's peak when that was larger.
  std::ifstream In("/proc/" + Pid + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

uint64_t runDigest(const db::CompiledPlan &Plan, backend::Backend &BE,
                   const db::Catalog &Cat, const db::ExecOptions &EO,
                   bool &Ran, db::ExecResult *R) {
  rt::OutputBuffer Out;
  db::ExecResult ER = db::executeQuery(Plan, BE, Cat, &Out, EO);
  Ran = !ER.Trapped && !ER.Cancelled;
  if (R)
    *R = std::move(ER);
  return Out.unorderedDigest();
}

std::optional<uint64_t> referenceDigest(const db::CompiledPlan &Plan,
                                        const db::Catalog &Cat,
                                        const std::string &Name) {
  static std::unique_ptr<backend::Backend> Interp =
      backend::createBackend("Interpreter");
  static std::unique_ptr<backend::Backend> Direct =
      backend::createBackend("DirectEmit");
  bool RanI = false, RanD = false;
  uint64_t Ref = runDigest(Plan, *Interp, Cat, {}, RanI);
  if (!RanI)
    return std::nullopt;
  if (runDigest(Plan, *Direct, Cat, {}, RanD) != Ref || !RanD) {
    std::fprintf(stderr, "set-up: Interpreter and DirectEmit disagree on %s\n",
                 Name.c_str());
    std::exit(1);
  }
  return Ref;
}

std::unique_ptr<Corpus> makeCorpus(double TpchSf, double DsSf) {
  auto C = std::make_unique<Corpus>();
  if (TpchSf > 0) {
    db::generateTpchLike(C->Cat, TpchSf);
    for (db::Query &Q : db::tpchQueries())
      C->Queries.push_back(std::move(Q));
  }
  if (DsSf > 0) {
    db::generateTpcdsLike(C->Cat, DsSf);
    for (db::Query &Q : db::tpcdsQueries())
      C->Queries.push_back(std::move(Q));
  }
  for (const db::Query &Q : C->Queries) {
    C->Plans.push_back(db::compileQuery(Q, C->Cat));
    std::optional<uint64_t> Ref =
        referenceDigest(C->Plans.back(), C->Cat, Q.Name);
    if (!Ref) {
      std::fprintf(stderr, "set-up: %s traps\n", Q.Name.c_str());
      std::exit(1);
    }
    C->Ref.push_back(*Ref);
  }
  return C;
}

const std::vector<std::string> &ladderTiers() {
  static const std::vector<std::string> T = {
      "Interpreter", "Stencil", "DirectEmit", "Craneline", "MLVM-cheap",
      "MLVM-opt"};
  return T;
}

bool reportsExec(const std::string &Tier) { return Tier != "MLVM-cheap"; }

void writeSpans(const Args &A, const std::vector<const SpanLog *> &Logs) {
  std::string Path = (A.WorkDir.empty() ? std::string(".") : A.WorkDir) +
                     "/spans-" + A.Workload + ".csv";
  std::ofstream Out(Path);
  Out << "log,index,name,start_ns,end_ns,parent,request\n";
  for (size_t L = 0; L != Logs.size(); ++L) {
    const std::vector<Span> &S = Logs[L]->spans();
    for (size_t I = 0; I != S.size(); ++I)
      Out << L << ',' << I << ',' << S[I].Name << ',' << S[I].StartNs << ','
          << S[I].EndNs << ',' << S[I].Parent << ',' << S[I].Request << '\n';
  }
  std::printf("  spans written to %s\n", Path.c_str());
}

namespace {

/// Short lower-case key of a tier used in phase metric names.
std::string tierKey(const std::string &Tier) {
  static const std::map<std::string, std::string> K = {
      {"Interpreter", "interp"},   {"Stencil", "stencil"},
      {"DirectEmit", "direct"},    {"Craneline", "craneline"},
      {"MLVM-cheap", "mlvm-cheap"}, {"MLVM-opt", "mlvm-opt"}};
  auto It = K.find(Tier);
  return It == K.end() ? Tier : It->second;
}

/// The phase group of a TimeTrace label: its second component, with the
/// register-allocator sub-phases folded into "regalloc".
std::string phaseGroup(const std::string &Label) {
  size_t A = Label.find('.');
  if (A == std::string::npos)
    return Label;
  size_t B = Label.find('.', A + 1);
  std::string G = Label.substr(A + 1, B == std::string::npos ? B : B - A - 1);
  return G == "ra" ? "regalloc" : G;
}

/// Per-tier phase groups reported as phase.<tierKey>.<group>_ms.
const std::vector<std::pair<std::string, std::string>> &phaseMetrics() {
  static const std::vector<std::pair<std::string, std::string>> P = [] {
    std::vector<std::pair<std::string, std::string>> V;
    auto Add = [&](const std::string &Tier,
                   std::initializer_list<const char *> Groups) {
      for (const char *G : Groups)
        V.push_back({Tier, G});
    };
    Add("Interpreter", {"translate"});
    Add("Stencil", {"codegen", "link"});
    Add("DirectEmit", {"analysis", "codegen", "link"});
    Add("Craneline", {"irgen", "irpasses", "iselprepare", "isel", "regalloc",
                      "emit", "link"});
    for (const char *T : {"MLVM-cheap", "MLVM-opt"})
      Add(T, {"irgen", "prep", "opt", "targetmachine", "isel", "mir",
              "regalloc", "asmprinter", "objectwriter", "link", "irdestroy"});
    return V;
  }();
  return P;
}

} // namespace

void Layers::addSpans(const SpanLog &L,
                      const std::map<std::string, std::string> &As) {
  for (const auto &[Name, Ns] : L.selfByName()) {
    auto It = As.find(Name);
    if (It != As.end())
      Ms[It->second] += double(Ns) * 1e-6;
  }
  WallMs += double(L.rootNs()) * 1e-6;
}

void Layers::addPhases(const std::string &Tier, const TimeTrace &T) {
  for (const auto &[Label, Rec] : T.records())
    Ms["phase." + tierKey(Tier) + "." + phaseGroup(Label) + "_ms"] +=
        double(Rec.SelfNs) * 1e-6;
}

int64_t addExecChildren(SpanLog &L, int64_t Exec, uint64_t Req,
                        uint64_t ExecStart, const db::QueryStats &S) {
  int64_t Compile =
      L.add("exec.compile", Exec, Req, ExecStart, ExecStart + S.CompileNs);
  uint64_t T = ExecStart + S.CompileNs;
  for (const db::PipelineStats &P : S.Pipelines) {
    L.add("exec.pipeline", Exec, Req, T, T + P.ExecNs);
    T += P.ExecNs;
  }
  return Compile;
}

namespace {

/// The probe's median and fastest time on the reference machine (a 4-core
/// x86-64 VM) the bounds in BENCHMARK.json were set on.
constexpr double kReferenceProbeMs = 0.6;
constexpr double kReferenceFastestProbeMs = 0.45;
constexpr int kProbeKeys = 2000;
constexpr uint64_t kProbeEveryNs = 100'000'000;
constexpr uint64_t kProbeWindowNs = 1'500'000'000;

} // namespace

double probeMs() {
  // The probe's own memory, so that it neither takes from nor fragments
  // the program's heap (which peak_rss_mb measures).
  alignas(std::max_align_t) static std::byte Arena[1 << 19];
  uint64_t T0 = nowNs();
  uint64_t X = 0x2545F4914F6CDD1Dull, Sum = 0;
  {
    std::pmr::monotonic_buffer_resource Mem(Arena, sizeof(Arena),
                                            std::pmr::null_memory_resource());
    std::pmr::map<uint64_t, uint64_t> Tree(&Mem);
    std::pmr::vector<uint64_t> Keys(&Mem);
    for (int I = 0; I < kProbeKeys; ++I) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      Tree[X >> 40] += I;
      Keys.push_back(X);
    }
    std::sort(Keys.begin(), Keys.end());
    for (uint64_t K : Keys)
      Sum += Tree.count(K >> 40);
  }
  static std::atomic<uint64_t> Sink;
  Sink.store(Sum, std::memory_order_relaxed);
  MachineSpeed &M = machineSpeed();
  M.LastNs = nowNs();
  double Ms = double(M.LastNs - T0) * 1e-6;
  M.Samples.push_back({M.LastNs, Ms});
  return Ms;
}

void MachineSpeed::tick(bool Force) {
  if (Force || nowNs() - LastNs >= kProbeEveryNs)
    probeMs();
}

double MachineSpeed::factorAt(uint64_t AtNs) const {
  if (Samples.empty())
    return 1.0;
  auto Dist = [&](size_t I) {
    uint64_t T = Samples[I].first;
    return T > AtNs ? T - AtNs : AtNs - T;
  };
  std::vector<size_t> Idx(Samples.size());
  for (size_t I = 0; I != Idx.size(); ++I)
    Idx[I] = I;
  std::sort(Idx.begin(), Idx.end(),
            [&](size_t A, size_t B) { return Dist(A) < Dist(B); });
  std::vector<double> Near;
  for (size_t I : Idx) {
    if (Near.size() >= 3 && Dist(I) > kProbeWindowNs)
      break;
    Near.push_back(Samples[I].second);
  }
  return kReferenceProbeMs / median(Near);
}

std::vector<double> MachineSpeed::scaled(const std::vector<Timed> &Ts) const {
  std::vector<double> Out;
  Out.reserve(Ts.size());
  // Samples arrive in time order in runs of one window; memoize per
  // window start to keep this linear-ish for large latency vectors.
  uint64_t CachedAt = 0;
  double Cached = 1.0;
  for (const Timed &T : Ts) {
    if (T.ProbeMs > 0) {
      Out.push_back(T.Ms * kReferenceProbeMs / T.ProbeMs);
      continue;
    }
    if (Out.empty() || T.At / kProbeEveryNs != CachedAt) {
      CachedAt = T.At / kProbeEveryNs;
      Cached = factorAt(T.At);
    }
    Out.push_back(T.Ms * Cached);
  }
  return Out;
}

double scaledFastestSum(const std::vector<double> &FastestMs,
                        double FastestProbeMs) {
  double Sum = 0;
  for (double Ms : FastestMs)
    Sum += Ms;
  return FastestProbeMs > 0 ? Sum * kReferenceFastestProbeMs / FastestProbeMs
                            : 0;
}

double scaledMedian(const std::vector<Timed> &Ts) {
  return median(machineSpeed().scaled(Ts));
}

double ratePerS(double Count, const std::vector<Timed> &Busy) {
  double Ms = 0;
  for (double X : machineSpeed().scaled(Busy))
    Ms += X;
  return Ms > 0 ? Count / (Ms * 1e-3) : 0;
}

MachineSpeed &machineSpeed() {
  static MachineSpeed S;
  return S;
}

namespace {

/// Hands executeQuery a module compiled beforehand, so the ladder can
/// time Backend::compile on its own and still run that exact code.
class PrebuiltBackend : public backend::Backend {
public:
  explicit PrebuiltBackend(backend::CompiledModule &M) : M(M) {}
  std::string name() const override { return "prebuilt"; }
  std::unique_ptr<backend::CompiledModule>
  compile(const qir::Module &, const backend::CompileOptions &) override {
    return std::make_unique<Borrowed>(M);
  }

private:
  struct Borrowed : backend::CompiledModule {
    explicit Borrowed(backend::CompiledModule &M) : M(M) {}
    void *entry(const std::string &Name) override { return M.entry(Name); }
    backend::CompiledModule &M;
  };
  backend::CompiledModule &M;
};

} // namespace

Ladder::Ladder(Corpus &C) : C(C) {
  for (const std::string &T : ladderTiers())
    Tiers.push_back({T, backend::createBackend(T)});
  presize(RequestMs, 1u << 18);
}

void Ladder::round(Rng &R, Ops &O, std::map<std::string, TimeTrace> *Phases,
                   SpanLog *Spans) {
  std::vector<size_t> Order(Tiers.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBounded(I)]);

  uint64_t RoundStart = nowNs();
  int64_t Root = Spans ? Spans->open("round", -1, 0, RoundStart) : -1;
  for (size_t TI : Order) {
    auto &[Name, BE] = Tiers[TI];
    backend::CompileOptions CO;
    if (Phases)
      CO.Obs.Trace = &(*Phases)[Name];
    std::vector<double> &FastCompile = FastestCompileMs[Name];
    std::vector<double> &FastExec = FastestExecMs[Name];
    FastCompile.resize(C.Plans.size(), HUGE_VAL);
    FastExec.resize(C.Plans.size(), HUGE_VAL);
    size_t FirstRequest = RequestMs.size();
    for (size_t P = 0; P != C.Plans.size(); ++P) {
      uint64_t T0 = nowNs();
      std::unique_ptr<backend::CompiledModule> M =
          BE->compile(*C.Plans[P].Module, CO);
      uint64_t T1 = nowNs();
      PrebuiltBackend Pre(*M);
      bool Ran = false;
      db::ExecResult ER;
      uint64_t D = runDigest(C.Plans[P], Pre, C.Cat, {}, Ran, &ER);
      uint64_t T2 = nowNs();
      O.check(Ran, D, C.Ref[P]);
      FastCompile[P] = std::min(FastCompile[P], double(T1 - T0) * 1e-6);
      FastExec[P] = std::min(FastExec[P], double(T2 - T1) * 1e-6);
      RequestMs.push_back({double(T2 - T0) * 1e-6, T2});
      for (const db::PipelineStats &PS : ER.Stats.Pipelines)
        ParallelPipelines += PS.Workers > 1;
      if (Spans) {
        Spans->add("compile", Root, 0, T0, T1);
        int64_t E = Spans->add("db.execute", Root, 0, T1, T2);
        addExecChildren(*Spans, E, 0, T1, ER.Stats);
      }
    }
    double Probe = probeMs();
    if (FastestProbeMs == 0 || Probe < FastestProbeMs)
      FastestProbeMs = Probe;
    for (size_t I = FirstRequest; I != RequestMs.size(); ++I)
      RequestMs[I].ProbeMs = Probe;
  }
  uint64_t End = nowNs();
  if (Spans)
    Spans->close(Root, End);
  RoundMs.push_back(double(End - RoundStart) * 1e-6);
  machineSpeed().tick();
}

std::map<std::string, uint64_t> codeBytes(Corpus &C) {
  std::map<std::string, uint64_t> Out;
  for (const std::string &T : ladderTiers()) {
    if (T == "Interpreter")
      continue;
    std::unique_ptr<backend::Backend> BE = backend::createBackend(T);
    uint64_t Sum = 0;
    for (const db::CompiledPlan &P : C.Plans) {
      std::vector<uint8_t> Bytes;
      if (BE->compile(*P.Module)->serialize(Bytes))
        Sum += Bytes.size();
    }
    Out[T] = Sum;
  }
  return Out;
}

void reportLadder(Report &Rep, const Ladder &L) {
  auto Fastest = [&](const std::map<std::string, std::vector<double>> &M,
                     const std::string &T) {
    auto It = M.find(T);
    return It == M.end() ? 0 : scaledFastestSum(It->second, L.FastestProbeMs);
  };
  for (const std::string &T : ladderTiers())
    Rep.set("compile_ms." + T, Fastest(L.FastestCompileMs, T), "ms");
  for (const std::string &T : ladderTiers())
    if (reportsExec(T))
      Rep.set("exec_ms." + T, Fastest(L.FastestExecMs, T), "ms");
}

void reportLatency(Report &Rep, const std::vector<Timed> &Ms) {
  std::vector<double> Scaled = machineSpeed().scaled(Ms);
  std::vector<std::pair<uint64_t, double>> At;
  for (size_t I = 0; I != Ms.size(); ++I)
    At.push_back({Ms[I].At, Scaled[I]});
  WindowedPercentile P99 = windowedPercentile(At, 0.99, 1000, 3);
  std::printf("  query_ms over %zu samples; p99 from %zu windows\n", Ms.size(),
              P99.Windows);
  if (auto P50 = percentile(Scaled, 0.50))
    Rep.set("query_ms.p50", *P50, "ms");
  if (P99.Value)
    Rep.set("query_ms.p99", *P99.Value, "ms");
}

void reportLayers(Report &Rep, const std::map<std::string, double> &L,
                  const std::map<std::string, uint64_t> &CodeBytes) {
  static const std::vector<std::pair<std::string, std::string>> Fixed = {
      {"unattributed_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"db.codegen_ms", "ms"},
      {"serve.gate_ms", "ms"},
      {"serve.admit_wait_ms", "ms"},
      {"serve.query_ms", "ms"},
      {"cache.compile_ms", "ms"},
      {"cache.hit_ratio", "ratio"},
      {"cache.miss_share", "ratio"},
      {"cache.novel_share", "ratio"},
      {"cache.evictions", "1/kreq"},
      {"svc.jobs_completed", "1/kreq"},
      {"svc.queue_rejected", "1/kreq"},
      {"svc.compile_ms", "ms"},
      {"exec.cache_hit_ms", "ms"},
      {"exec.pipeline_ms", "ms"},
      {"exec.runtime_ms", "ms"},
      {"exec.parallel_pipelines", "count"},
      {"disk.hits", "count"},
      {"disk.misses", "count"},
      {"disk.stores", "count"},
      {"disk.rejected", "count"},
      {"disk.load_ms", "ms"},
      {"proto.overhead_ms", "ms"},
  };
  auto Get = [&](const std::string &N) {
    auto It = L.find(N);
    return It == L.end() ? 0.0 : It->second;
  };
  for (const auto &[N, U] : Fixed)
    Rep.set(N, Get(N), U);
  for (const std::string &T : ladderTiers())
    if (T != "Interpreter") {
      auto It = CodeBytes.find(T);
      Rep.set("code_bytes." + T, It == CodeBytes.end() ? 0 : double(It->second),
              "bytes");
    }
  for (const auto &[T, G] : phaseMetrics()) {
    std::string N = "phase." + tierKey(T) + "." + G + "_ms";
    Rep.set(N, Get(N), "ms");
  }
}

} // namespace qcf::perfbench
