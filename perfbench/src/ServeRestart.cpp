//===- perfbench/src/ServeRestart.cpp - serve_restart workload ------------===//
//
// Part of the QCF project.
//
// The real qcf_serve daemon, restarted over and over on one
// QCF_CODE_CACHE directory that a set-up instance populated. After each
// start one connection OPENs, EXECs each of the 11 TPC-H-like queries
// once (first touch after the restart), and sends SHUTDOWN. This is the
// only workload where the persistent code cache and the line protocol do
// the work.
//
// Every run gets a private directory with its own socket and a fresh copy
// of the set-up cache, and every restart begins from that set-up disk
// state, so restarts are identical. The daemon is killed on any harness
// error; one that does not come up counts as failed operations.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "db/Codegen.h"
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

namespace fs = std::filesystem;

namespace qcf::perfbench {

namespace {

constexpr double kServeSf = 0.1; ///< The daemon's default scale factor.
constexpr uint64_t kStartTimeoutNs = 5'000'000'000ull;
constexpr int kIoTimeoutS = 10;
/// One tier-ladder round per this many restarts (per-tier figures).
constexpr unsigned kRestartsPerLadder = 6;

/// A running qcf_serve child. The destructor kills and reaps it, so an
/// error anywhere in the harness leaves no daemon behind.
class Daemon {
public:
  Daemon(const std::string &Bin, const fs::path &RunDir,
         const fs::path &CacheDir) {
    // The child changes directory before exec: resolve paths first.
    std::string Exe = fs::absolute(Bin).string();
    std::string Cache = fs::absolute(CacheDir).string();
    pid_t Parent = ::getpid();
    std::fflush(nullptr); // The child must not repeat buffered output.
    Pid = ::fork();
    if (Pid == 0) {
      // Die with the benchmark, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != Parent)
        ::_exit(127);
      if (::chdir(RunDir.c_str()) != 0)
        ::_exit(127);
      ::setenv("QCF_CODE_CACHE", Cache.c_str(), 1);
      ::setenv("QCF_SERVE_SOCK", "qcf.sock", 1);
      std::FILE *Null = std::freopen("/dev/null", "w", stdout);
      (void)Null;
      ::execl(Exe.c_str(), Exe.c_str(), (char *)nullptr);
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  pid_t pid() const { return Pid; }
  /// False once the daemon has exited (it is then reaped, so the
  /// destructor never signals a recycled pid).
  bool alive() {
    if (Pid > 0 && ::waitpid(Pid, nullptr, WNOHANG) == Pid)
      Pid = -1;
    return Pid > 0;
  }

  /// Waits for a clean exit after SHUTDOWN; kills it after \p TimeoutNs.
  bool reap(uint64_t TimeoutNs) {
    uint64_t End = nowNs() + TimeoutNs;
    int Status = 0;
    while (nowNs() < End) {
      pid_t R = ::waitpid(Pid, &Status, WNOHANG);
      if (R == Pid) {
        Pid = -1;
        return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
      }
      ::usleep(200);
    }
    return false; // The destructor kills it.
  }

private:
  pid_t Pid = -1;
};

/// A blocking line-protocol connection to the daemon.
class Conn {
public:
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  /// Connects to \p Sock, retrying while the daemon starts.
  bool connect(const std::string &Sock, Daemon &D) {
    uint64_t End = nowNs() + kStartTimeoutNs;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Sock.size() >= sizeof(Addr.sun_path))
      return false;
    std::strncpy(Addr.sun_path, Sock.c_str(), sizeof(Addr.sun_path) - 1);
    while (nowNs() < End && D.alive()) {
      Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (Fd < 0)
        return false;
      if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
          0) {
        timeval Tv{kIoTimeoutS, 0};
        ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
        return true;
      }
      ::close(Fd);
      Fd = -1;
      ::usleep(100);
    }
    return false;
  }
  bool send(const std::string &Line) {
    std::string S = Line + "\n";
    size_t Off = 0;
    while (Off < S.size()) {
      ssize_t N = ::send(Fd, S.data() + Off, S.size() - Off, MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Off += size_t(N);
    }
    return true;
  }
  /// Next response line (without the newline); false on EOF or timeout.
  bool readLine(std::string &Line) {
    size_t NL;
    while ((NL = Buf.find('\n')) == std::string::npos) {
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return false;
      Buf.append(Chunk, size_t(N));
    }
    Line = Buf.substr(0, NL);
    Buf.erase(0, NL + 1);
    return true;
  }

private:
  int Fd = -1;
  std::string Buf;
};

/// Value of `key=` in an "OK rows=.. digest=.. ms=.." response.
std::string field(const std::string &Line, const std::string &Key) {
  size_t P = Line.find(" " + Key + "=");
  if (P == std::string::npos)
    return "";
  P += Key.size() + 2;
  return Line.substr(P, Line.find(' ', P) - P);
}

/// The STATS figures the traced run reports.
struct DaemonStats {
  double Hits = 0, Misses = 0, Stores = 0, Rejected = 0;
  double LoadMs = 0;            ///< cache.disk.load_ns total.
  double CompileMs = 0;         ///< Summed svc.*.latency.* histograms.
};

/// Parses a STATS dump (counter lines "name value", histogram lines
/// "name count=N mean=Xms ...").
DaemonStats parseStats(const std::vector<std::string> &Lines) {
  DaemonStats S;
  for (const std::string &L : Lines) {
    std::string Name = L.substr(0, L.find(' '));
    size_t C = L.find("count="), M = L.find("mean=");
    if (C != std::string::npos && M != std::string::npos) {
      double Count = std::strtod(L.c_str() + C + 6, nullptr);
      double Mean = std::strtod(L.c_str() + M + 5, nullptr);
      if (Name == "cache.disk.load_ns") {
        S.LoadMs = Count * Mean;
      } else if (Name.rfind("svc.", 0) == 0 &&
                 Name.find(".latency.") != std::string::npos) {
        S.CompileMs += Count * Mean;
      }
      continue;
    }
    double V = std::strtod(L.c_str() + Name.size(), nullptr);
    if (Name == "cache.disk.hits")
      S.Hits = V;
    else if (Name == "cache.disk.misses")
      S.Misses = V;
    else if (Name == "cache.disk.stores")
      S.Stores = V;
    else if (Name == "cache.disk.rejected")
      S.Rejected = V;
  }
  return S;
}

/// Replaces the contents of \p Dst with those of \p Src.
void restoreDir(const fs::path &Src, const fs::path &Dst) {
  fs::remove_all(Dst);
  fs::create_directories(Dst);
  for (const fs::directory_entry &E : fs::directory_iterator(Src))
    fs::copy_file(E.path(), Dst / E.path().filename());
}

struct Setup {
  std::unique_ptr<Corpus> C;
  fs::path RunDir, SetupCache, Cache;
  std::string Sock;
};

struct RestartOut {
  std::vector<Timed> LatMs;
  std::vector<double> ProtoMs;
  double DaemonMs = 0; ///< Summed ms= of the EXECs.
  double PeakRssMb = 0;
  Timed Wall;
  bool HaveStats = false;
  DaemonStats Stats;
};

/// One daemon lifetime: start, OPEN, every query once in a seeded order,
/// optionally STATS, SHUTDOWN. Failed EXECs (and all EXECs of a daemon
/// that never came up) count as failed operations.
RestartOut restart(const Args &A, Setup &S, const fs::path &CacheDir, Rng &R,
                   Ops &O, bool Stats) {
  RestartOut Out;
  std::vector<size_t> Order(S.C->Plans.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBounded(I)]);

  uint64_t Start = nowNs();
  Daemon D(A.ServeBin, S.RunDir, CacheDir);
  Conn Cn;
  std::string Line;
  size_t Done = 0;
  if (D.pid() > 0 && Cn.connect(S.Sock, D) && Cn.send("OPEN default") &&
      Cn.readLine(Line) && Line.rfind("OK ", 0) == 0) {
    std::string Sid = Line.substr(3);
    for (; Done != Order.size(); ++Done) {
      size_t Q = Order[Done];
      uint64_t T0 = nowNs();
      if (!Cn.send("EXEC " + Sid + " " + S.C->Queries[Q].Name) ||
          !Cn.readLine(Line))
        break;
      Timed Lat = timedSince(T0);
      bool Ok = Line.rfind("OK ", 0) == 0;
      uint64_t Digest = std::strtoull(field(Line, "digest").c_str(), nullptr, 16);
      O.check(Ok, Digest, S.C->Ref[Q]);
      if (!Ok)
        continue;
      double DaemonMs = std::strtod(field(Line, "ms").c_str(), nullptr);
      Out.LatMs.push_back(Lat);
      Out.ProtoMs.push_back(Lat.Ms - DaemonMs);
      Out.DaemonMs += DaemonMs;
    }
    if (Done == Order.size() && Stats && Cn.send("STATS")) {
      std::vector<std::string> Lines;
      while (Cn.readLine(Line) && Line != ".")
        Lines.push_back(Line);
      Out.Stats = parseStats(Lines);
      Out.HaveStats = true;
    }
    Out.PeakRssMb = peakRssMb(std::to_string(D.pid()));
    if (Cn.send("SHUTDOWN"))
      Cn.readLine(Line);
    D.reap(kStartTimeoutNs);
  }
  for (; Done < Order.size(); ++Done)
    O.fail(false);
  Out.Wall = timedSince(Start);
  machineSpeed().tick();
  return Out;
}

} // namespace

int runServeRestart(const Args &A) {
  if (A.ServeBin.empty() || ::access(A.ServeBin.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "serve_restart: no qcf_serve binary (--serve-bin)\n");
    return 1;
  }
  fs::path Work = A.WorkDir.empty() ? fs::path(".") : fs::path(A.WorkDir);
  fs::path RunDir = Work / ("restart-" + std::to_string(::getpid()));
  struct Cleanup {
    fs::path P;
    ~Cleanup() {
      std::error_code Ec;
      fs::remove_all(P, Ec);
    }
  } Clean{RunDir};
  Ops O;
  std::vector<Timed> Setups;
  auto S = timedSetup<Setup>(5, Setups, [&] {
    auto S = std::make_unique<Setup>();
    S->C = makeCorpus(kServeSf, 0);
    S->RunDir = RunDir;
    S->SetupCache = RunDir / "setup-cache";
    S->Cache = RunDir / "cache";
    S->Sock = (RunDir / "qcf.sock").string();
    fs::remove_all(RunDir);
    fs::create_directories(S->SetupCache);
    // The set-up instance: populates the cache directory every restart
    // of the run starts from.
    Rng R(A.Seed);
    restart(A, *S, S->SetupCache, R, O, false);
    return S;
  });

  Rng R(A.Seed);
  Report Rep;
  uint64_t End = nowNs() + uint64_t(A.Seconds * 1e9);

  if (!A.Trace) {
    Ladder L(*S->C);
    std::vector<Timed> Lat, Wall;
    presize(Lat, 1u << 15);
    std::vector<double> Rss;
    for (unsigned N = 0; nowNs() < End; ++N) {
      restoreDir(S->SetupCache, S->Cache);
      RestartOut Out = restart(A, *S, S->Cache, R, O, false);
      Lat.insert(Lat.end(), Out.LatMs.begin(), Out.LatMs.end());
      Wall.push_back(Out.Wall);
      if (Out.PeakRssMb > 0)
        Rss.push_back(Out.PeakRssMb);
      if (N % kRestartsPerLadder == 0)
        L.round(R, O);
    }
    Rep.set("setup_s", setupSeconds(Setups), "s");
    reportLadder(Rep, L);
    reportLatency(Rep, Lat);
    Rep.set("qps", ratePerS(double(Lat.size()), Wall), "1/s");
    Rep.set("peak_rss_mb", median(Rss), "MiB");
    Rep.print(O);
    return 0;
  }

  // Traced: restarts with STATS alternate with plain ones; the codegen
  // the daemon runs on every EXEC is timed in-process on the same
  // queries and data.
  std::vector<double> PlainWall, TracedWall, Lat, Proto;
  double DaemonMs = 0, CodegenMs = 0;
  DaemonStats Sum;
  unsigned Traced = 0;
  for (bool T = false; nowNs() < End; T = !T) {
    restoreDir(S->SetupCache, S->Cache);
    RestartOut Out = restart(A, *S, S->Cache, R, O, T);
    (T ? TracedWall : PlainWall).push_back(Out.Wall.Ms);
    if (!T || !Out.HaveStats)
      continue;
    ++Traced;
    for (const Timed &L : Out.LatMs)
      Lat.push_back(L.Ms);
    Proto.insert(Proto.end(), Out.ProtoMs.begin(), Out.ProtoMs.end());
    DaemonMs += Out.DaemonMs;
    Sum.Hits += Out.Stats.Hits;
    Sum.Misses += Out.Stats.Misses;
    Sum.Stores += Out.Stats.Stores;
    Sum.Rejected += Out.Stats.Rejected;
    Sum.LoadMs += Out.Stats.LoadMs;
    Sum.CompileMs += Out.Stats.CompileMs;
    uint64_t T0 = nowNs();
    for (const db::Query &Q : S->C->Queries)
      db::compileQuery(Q, S->C->Cat);
    CodegenMs += double(nowNs() - T0) * 1e-6;
  }
  double Execs = double(Lat.size());
  std::map<std::string, double> Per;
  Per["proto.overhead_ms"] = mean(Proto);
  Per["svc.compile_ms"] = Sum.CompileMs / Execs;
  Per["disk.load_ms"] = Sum.LoadMs / Execs;
  Per["db.codegen_ms"] = CodegenMs / Execs;
  Per["unattributed_ms"] = unattributed(mean(Lat), Per);
  Per["serve.query_ms"] = DaemonMs / Execs;
  Per["disk.hits"] = Sum.Hits / Traced;
  Per["disk.misses"] = Sum.Misses / Traced;
  Per["disk.stores"] = Sum.Stores / Traced;
  Per["disk.rejected"] = Sum.Rejected / Traced;
  double Base = median(PlainWall);
  Per["trace.overhead_pct"] = (median(TracedWall) - Base) / Base * 100;
  std::printf("  %u traced restarts, %.0f EXECs\n", Traced, Execs);
  reportLayers(Rep, Per, codeBytes(*S->C));
  Rep.print(O);
  return 0;
}

} // namespace qcf::perfbench
