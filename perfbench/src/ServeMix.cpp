//===- perfbench/src/ServeMix.cpp - serve_mix workload --------------------===//
//
// Part of the QCF project.
//
// The warm serving path: an in-process serve::Server with its defaults
// (Craneline, 2 compile workers) under a closed loop of 2 sessions over
// both corpora at SF 0.1. 90% of requests repeat the 23 corpus queries;
// 10% are parameter variants whose fingerprint the cache has not seen.
// The in-memory cache holds fewer entries than the run has distinct
// queries, so misses, compiles and evictions sit beside the hits.
//
// Server::execute cannot be opened from outside, so the traced run
// replays the same request sequence through the public calls the serve
// path makes (AdmissionGate enter/leave, db::compileQuery, db::executeQuery
// through a CachingBackend) and reports each layer's self time, and the
// residual, against the mean of untraced Server::execute calls made in
// alternating slices of the same run.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "backend/Cache.h"
#include "backend/CompileService.h"
#include "backend/Registry.h"
#include "db/Queries.h"
#include "serve/Server.h"
#include <cstdio>
#include <set>
#include <thread>
#include <tuple>

namespace qcf::perfbench {

namespace {

constexpr double kServeSf = 0.1;
constexpr unsigned kSessions = 2;
/// Fewer entries than distinct queries in a run: 23 corpus queries plus
/// the variants.
constexpr size_t kCacheCapacity = 32;
constexpr unsigned kNovelPercent = 10;
/// Distinct variants per run. A variant recurs only after all others
/// were used (about 5000 requests later), long after the cache evicted
/// it, so every use is a miss like a never-seen query.
constexpr unsigned kVariants = 512;
constexpr int64_t kMaxShift = 30;
constexpr size_t kSequence = 1u << 18;
constexpr double kSliceS = 0.75;
/// Tier-ladder rounds after each traffic slice.
constexpr unsigned kLadderRoundsPerSlice = 4;

/// Integer literals compared against in a Filter predicate of \p N.
void literalSites(db::PlanNode *N, std::vector<db::Expr *> &Out) {
  if (!N)
    return;
  if (N->K == db::PlanNode::Kind::Filter && N->Pred) {
    std::vector<db::Expr *> Work = {N->Pred.get()};
    while (!Work.empty()) {
      db::Expr *E = Work.back();
      Work.pop_back();
      bool Cmp = E->K >= db::Expr::Kind::CmpEq && E->K <= db::Expr::Kind::CmpGe;
      for (auto &K : E->Kids) {
        if (Cmp && K->K == db::Expr::Kind::ConstI64)
          Out.push_back(K.get());
        Work.push_back(K.get());
      }
    }
  }
  literalSites(N->Child.get(), Out);
  literalSites(N->Build.get(), Out);
}

struct Request {
  const db::Query *Q;
  uint64_t Ref;
  bool Novel;
};

struct Setup {
  std::unique_ptr<Corpus> C;
  std::vector<db::Query> Variants; ///< Reserved up front: never moves.
  std::vector<uint64_t> VariantRef;
  std::vector<Request> Seq;
  obs::MetricsRegistry Reg;
  std::unique_ptr<serve::Server> Srv;
  std::vector<uint64_t> Sids;
};

/// Builds the seeded variant pool: distinct (query, literal, shift)
/// triples, each with a reference digest. Variants whose reference run
/// traps are not used.
void makeVariants(Setup &S, Rng &R) {
  std::set<std::tuple<size_t, size_t, int64_t>> Seen;
  S.Variants.reserve(kVariants);
  while (S.Variants.size() < kVariants) {
    size_t B = R.nextBounded(S.C->Queries.size());
    std::vector<db::Query> Fresh = db::tpchQueries();
    for (db::Query &Q : db::tpcdsQueries())
      Fresh.push_back(std::move(Q));
    db::Query Q = std::move(Fresh[B]);
    std::vector<db::Expr *> Sites;
    literalSites(Q.Root.get(), Sites);
    if (Sites.empty())
      continue;
    size_t Site = R.nextBounded(Sites.size());
    int64_t Shift = R.nextRange(1, kMaxShift) * (R.nextBounded(2) ? 1 : -1);
    if (!Seen.insert({B, Site, Shift}).second)
      continue;
    Sites[Site]->IntVal += Shift;
    Q.Name += "~v" + std::to_string(S.Variants.size());
    std::optional<uint64_t> Ref =
        referenceDigest(db::compileQuery(Q, S.C->Cat), S.C->Cat, Q.Name);
    if (!Ref)
      continue;
    S.Variants.push_back(std::move(Q));
    S.VariantRef.push_back(*Ref);
  }
}

std::unique_ptr<Setup> makeSetup(uint64_t Seed) {
  auto S = std::make_unique<Setup>();
  S->C = makeCorpus(kServeSf, kServeSf);
  Rng R(Seed);
  makeVariants(*S, R);
  size_t NextVariant = 0;
  S->Seq.reserve(kSequence);
  for (size_t I = 0; I != kSequence; ++I) {
    if (R.nextBounded(100) < kNovelPercent) {
      size_t V = NextVariant++ % S->Variants.size();
      S->Seq.push_back({&S->Variants[V], S->VariantRef[V], true});
    } else {
      size_t Q = R.nextBounded(S->C->Queries.size());
      S->Seq.push_back({&S->C->Queries[Q], S->C->Ref[Q], false});
    }
  }
  serve::ServerConfig Cfg;
  Cfg.CacheCapacity = kCacheCapacity;
  Cfg.Reg = &S->Reg;
  S->Srv = std::make_unique<serve::Server>(Cfg, S->C->Cat);
  S->Srv->registerTenant("bench", serve::TenantQuota{});
  for (unsigned I = 0; I != kSessions; ++I)
    S->Sids.push_back(S->Srv->openSession("bench").SessionId);
  // Warm the cache with the corpus, as a server that has been up a while.
  for (const db::Query &Q : S->C->Queries)
    S->Srv->execute(S->Sids[0], Q);
  return S;
}

/// Per-thread results of one traffic slice.
struct SliceOut {
  std::vector<Timed> Ms;
  uint64_t Novel = 0;
  double AdmitWaitMs = 0;
};

/// Runs \p Body(Thread, Index, Request, Out) from kSessions threads until
/// \p Secs pass, each taking the next request of the shared seeded
/// sequence.
template <typename Fn>
std::vector<SliceOut> closedLoop(Setup &S, std::atomic<size_t> &Next,
                                 double Secs, Fn &&Body) {
  uint64_t End = nowNs() + uint64_t(Secs * 1e9);
  std::vector<SliceOut> Out(kSessions);
  std::vector<std::thread> Th;
  for (unsigned T = 0; T != kSessions; ++T)
    Th.emplace_back([&, T] {
      while (nowNs() < End) {
        size_t Idx = Next.fetch_add(1);
        const Request &Rq = S.Seq[Idx % S.Seq.size()];
        Out[T].Novel += Rq.Novel;
        Body(T, Idx, Rq, Out[T]);
      }
    });
  for (std::thread &T : Th)
    T.join();
  return Out;
}

/// One untraced slice of Server::execute calls.
std::vector<SliceOut> serverSlice(Setup &S, std::atomic<size_t> &Next, Ops &O,
                                  double Secs) {
  return closedLoop(S, Next, Secs,
                    [&](unsigned T, size_t, const Request &Rq, SliceOut &Out) {
                      uint64_t T0 = nowNs();
                      serve::QueryOutcome R = S.Srv->execute(S.Sids[T], *Rq.Q);
                      Out.Ms.push_back(timedSince(T0));
                      Out.AdmitWaitMs += double(R.AdmitWaitNs) * 1e-6;
                      O.check(R.Ok, R.Digest, Rq.Ref);
                    });
}

/// The serve path rebuilt from its public parts, for the traced replay.
struct Replay {
  explicit Replay(Setup &S)
      : Svc(2, 64, &Reg),
        Cache(backend::createBackend("Craneline"), kCacheCapacity, &Svc, &Reg),
        Gate(serve::AdmissionGate::Config(), &Reg) {
    for (const db::CompiledPlan &P : S.C->Plans)
      Cache.compile(*P.Module);
  }
  obs::MetricsRegistry Reg;
  backend::CompileService Svc;
  backend::CachingBackend Cache;
  serve::AdmissionGate Gate;
  SpanLog Spans[kSessions];
  TimeTrace Phases[kSessions];
};

void replaySlice(Setup &S, Replay &Rp, std::atomic<size_t> &Next, Ops &O,
                 double Secs) {
  closedLoop(S, Next, Secs, [&](unsigned T, size_t Req, const Request &Rq,
                                SliceOut &) {
    SpanLog &L = Rp.Spans[T];
    TimeTrace &Tr = Rp.Phases[T];
    uint64_t T0 = nowNs();
    int64_t Root = L.open("request", -1, Req, T0);
    serve::AdmissionGate::Decision D = Rp.Gate.enter();
    uint64_t T1 = nowNs();
    L.add("serve.gate", Root, Req, T0, T1);
    if (D.Outcome != serve::Admit::Ok) {
      O.fail(false);
      L.close(Root, T1);
      return;
    }
    db::CompiledPlan Plan = db::compileQuery(*Rq.Q, S.C->Cat);
    uint64_t T2 = nowNs();
    L.add("db.codegen", Root, Req, T1, T2);
    db::ExecOptions EO;
    EO.Obs = obs::ObsContext(&Tr, &Rp.Reg, nullptr);
    uint64_t PhaseBefore = Tr.selfNsWithPrefix("");
    bool Ran = false;
    db::ExecResult ER;
    uint64_t Dg = runDigest(Plan, Rp.Cache, S.C->Cat, EO, Ran, &ER);
    uint64_t T3 = nowNs();
    O.check(Ran, Dg, Rq.Ref);
    int64_t E = L.add("db.execute", Root, Req, T2, T3);
    int64_t C = addExecChildren(L, E, Req, T2, ER.Stats);
    // Back-end phases run inside the compile; they are reported as
    // phase.* layers, so the compile span keeps only the cache's share.
    L.add("exec.phases", C, Req, T2,
          T2 + (Tr.selfNsWithPrefix("") - PhaseBefore));
    Rp.Gate.leave(T3 - T1);
    uint64_t T4 = nowNs();
    L.add("serve.gate", Root, Req, T3, T4);
    L.close(Root, T4);
  });
}

/// Metric deltas of the Server between two snapshots.
struct ServerCounters {
  backend::CacheStats Cache;
  uint64_t Jobs = 0, Rejected = 0;

  static ServerCounters take(Setup &S) {
    ServerCounters C;
    C.Cache = S.Srv->cacheBackend().stats();
    obs::MetricsSnapshot Snap = S.Reg.snapshot();
    for (const auto &[Name, V] : Snap.Counters) {
      if (Name.rfind("svc.", 0) != 0)
        continue;
      if (Name.find(".jobs_completed") != std::string::npos)
        C.Jobs += V;
      else if (Name.find(".queue.rejected.") != std::string::npos)
        C.Rejected += V;
    }
    return C;
  }
};

} // namespace

int runServeMix(const Args &A) {
  std::vector<Timed> Setups;
  auto S = timedSetup<Setup>(5, Setups, [&] { return makeSetup(A.Seed); });
  Ops O;
  Rng R(A.Seed ^ 0x5e7e);
  Report Rep;
  std::atomic<size_t> Next{0};
  uint64_t End = nowNs() + uint64_t(A.Seconds * 1e9);

  if (!A.Trace) {
    // Traffic slices alternate with tier-ladder rounds over the same
    // plans and data, which give this workload's per-tier figures.
    Ladder L(*S->C);
    std::vector<Timed> Ms, Traffic;
    presize(Ms, 1u << 19);
    while (nowNs() < End) {
      uint64_t T0 = nowNs();
      for (SliceOut &Out : serverSlice(*S, Next, O, kSliceS))
        Ms.insert(Ms.end(), Out.Ms.begin(), Out.Ms.end());
      Traffic.push_back(timedSince(T0));
      machineSpeed().tick();
      for (unsigned I = 0; I != kLadderRoundsPerSlice; ++I)
        L.round(R, O);
    }
    // Before the statistics below allocate in proportion to the samples.
    double Rss = peakRssMb();
    Rep.set("setup_s", setupSeconds(Setups), "s");
    reportLadder(Rep, L);
    reportLatency(Rep, Ms);
    Rep.set("qps", ratePerS(double(Ms.size()), Traffic), "1/s");
    Rep.set("peak_rss_mb", Rss, "MiB");
    Rep.print(O);
    return 0;
  }

  Replay Rp(*S);
  double ServerMs = 0, AdmitMs = 0;
  uint64_t ServerReqs = 0, Novel = 0;
  backend::CacheStats ServerCache;
  uint64_t Jobs = 0, Rejected = 0;
  for (bool T = false; nowNs() < End; T = !T) {
    machineSpeed().tick();
    if (T) {
      replaySlice(*S, Rp, Next, O, kSliceS / 2);
      continue;
    }
    ServerCounters B = ServerCounters::take(*S);
    for (SliceOut &Out : serverSlice(*S, Next, O, kSliceS / 2)) {
      for (const Timed &Lat : Out.Ms)
        ServerMs += Lat.Ms;
      ServerReqs += Out.Ms.size();
      AdmitMs += Out.AdmitWaitMs;
      Novel += Out.Novel;
    }
    ServerCounters E = ServerCounters::take(*S);
    ServerCache.Hits += E.Cache.Hits - B.Cache.Hits;
    ServerCache.Misses += E.Cache.Misses - B.Cache.Misses;
    ServerCache.Evictions += E.Cache.Evictions - B.Cache.Evictions;
    Jobs += E.Jobs - B.Jobs;
    Rejected += E.Rejected - B.Rejected;
  }

  std::vector<const SpanLog *> Logs;
  for (const SpanLog &Log : Rp.Spans)
    Logs.push_back(&Log);
  writeSpans(A, Logs);
  Layers L;
  for (const SpanLog &Log : Rp.Spans)
    L.addSpans(Log, {{"serve.gate", "serve.gate_ms"},
                     {"db.codegen", "db.codegen_ms"},
                     {"db.execute", "exec.runtime_ms"},
                     {"exec.compile", "exec.cache_hit_ms"},
                     {"exec.pipeline", "exec.pipeline_ms"}});
  for (const TimeTrace &Tr : Rp.Phases)
    L.addPhases("Craneline", Tr);
  uint64_t Replayed = 0;
  for (const SpanLog &Log : Rp.Spans)
    for (const Span &Sp : Log.spans())
      Replayed += Sp.Parent < 0;
  std::map<std::string, double> Per;
  for (const auto &[N, Ms] : L.Ms)
    Per[N] = Ms / double(Replayed);
  double ServerMean = ServerMs / double(ServerReqs);
  Per["unattributed_ms"] = unattributed(ServerMean, Per);
  Per["trace.overhead_pct"] =
      (L.WallMs / double(Replayed) - ServerMean) / ServerMean * 100;
  Per["serve.query_ms"] = ServerMean;
  Per["serve.admit_wait_ms"] = AdmitMs / double(ServerReqs);
  double Lookups = double(ServerCache.lookups());
  Per["cache.hit_ratio"] = double(ServerCache.Hits) / Lookups;
  Per["cache.miss_share"] = double(ServerCache.Misses) / double(ServerReqs);
  Per["cache.novel_share"] = double(Novel) / double(ServerReqs);
  double PerK = 1000.0 / double(ServerReqs);
  Per["cache.evictions"] = double(ServerCache.Evictions) * PerK;
  Per["svc.jobs_completed"] = double(Jobs) * PerK;
  Per["svc.queue_rejected"] = double(Rejected) * PerK;
  std::printf("  %llu Server::execute requests, %llu replayed\n",
              (unsigned long long)ServerReqs, (unsigned long long)Replayed);
  reportLayers(Rep, Per, codeBytes(*S->C));
  Rep.print(O);
  return 0;
}

} // namespace qcf::perfbench
