//===- perfbench/src/Stats.h - Benchmark statistics helpers -----*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The statistics the benchmark reports its numbers with, kept apart from
/// the workloads so they can be unit-tested (tests/StatsTest.cpp):
///
///  - percentile selection that refuses a percentile the sample cannot
///    support (at least ten samples must lie beyond it, so p99 needs
///    1000 samples and p50 needs 20), also per time window;
///  - spans recorded around calls into each layer, and their self time:
///    a span's duration minus the part of it covered by its children,
///    where overlapping children are counted once;
///  - the unattributed residual: wall time minus the sum of the layers.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_PERFBENCH_STATS_H
#define QCF_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace qcf::perfbench {

/// Samples needed before percentile \p P (in (0,1)) is reported: ten
/// samples must lie above it, so P = 0.99 needs 1000.
inline size_t minSamplesFor(double P) {
  return size_t(std::ceil(10.0 / (1.0 - P) - 1e-9));
}

/// Nearest-rank percentile \p P of \p Samples, or nothing when the sample
/// count is below minSamplesFor(P).
inline std::optional<double> percentile(std::vector<double> Samples,
                                        double P) {
  if (Samples.empty() || Samples.size() < minSamplesFor(P))
    return std::nullopt;
  size_t Rank = size_t(std::ceil(P * double(Samples.size())));
  size_t Idx = Rank ? Rank - 1 : 0;
  std::nth_element(Samples.begin(), Samples.begin() + Idx, Samples.end());
  return Samples[Idx];
}

/// Median (mean of the two middle values for an even count); 0 for none.
inline double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  size_t N = Samples.size();
  std::sort(Samples.begin(), Samples.end());
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

inline double mean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0;
  double S = 0;
  for (double X : Samples)
    S += X;
  return S / double(Samples.size());
}

struct WindowedPercentile {
  std::optional<double> Value;
  size_t Windows = 0; ///< Windows the value is taken over (0: all).
};

/// Percentile \p P of time-stamped samples (At ns, value) that resists
/// interference from other tenants: the samples, in time order, are cut
/// into consecutive windows of \p Window samples (a short tail joins the
/// last window), and the result is the lower decile (nearest rank) of the
/// windows' percentiles, the tail at the quietest tenth of the run, when
/// there are at least \p MinWindows windows; otherwise the percentile of
/// all samples. Up to ten windows, that is the lowest one. Nothing below
/// minSamplesFor(P) samples, and \p Window is raised to minSamplesFor(P)
/// so every window supports the percentile.
inline WindowedPercentile
windowedPercentile(std::vector<std::pair<uint64_t, double>> Samples, double P,
                   size_t Window, size_t MinWindows) {
  WindowedPercentile R;
  Window = std::max(Window, minSamplesFor(P));
  std::sort(Samples.begin(), Samples.end());
  std::vector<double> All;
  for (const auto &S : Samples)
    All.push_back(S.second);
  size_t N = All.size() / Window;
  if (N < std::max<size_t>(MinWindows, 1)) {
    R.Value = percentile(All, P);
    return R;
  }
  std::vector<double> PerWindow;
  for (size_t W = 0; W != N; ++W) {
    auto B = All.begin() + W * Window;
    auto E = W + 1 == N ? All.end() : B + Window;
    PerWindow.push_back(*percentile(std::vector<double>(B, E), P));
  }
  size_t Rank = (N + 9) / 10;
  std::nth_element(PerWindow.begin(), PerWindow.begin() + (Rank - 1),
                   PerWindow.end());
  R.Value = PerWindow[Rank - 1];
  R.Windows = N;
  return R;
}

/// One timed call into a layer. Times are nanoseconds on one clock;
/// Parent is an index into the same log (-1 for a root).
struct Span {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int64_t Parent = -1;
  uint64_t Request = 0;

  uint64_t durNs() const { return EndNs > StartNs ? EndNs - StartNs : 0; }
};

/// Self time of every span in \p Spans (same order): its duration minus
/// the length of the union of its children's intervals, each child
/// clipped to the parent. Children that overlap one another (work done
/// in parallel) are subtracted once, so self time is never negative.
inline std::vector<uint64_t> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && size_t(S.Parent) < Spans.size())
      Kids[size_t(S.Parent)].push_back({S.StartNs, S.EndNs});
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    uint64_t Covered = 0, CurLo = 0, CurHi = 0;
    bool Open = false;
    for (auto [Lo, Hi] : K) {
      Lo = std::max(Lo, P.StartNs);
      Hi = std::min(Hi, P.EndNs);
      if (Hi <= Lo)
        continue;
      if (Open && Lo <= CurHi) {
        CurHi = std::max(CurHi, Hi);
        continue;
      }
      if (Open)
        Covered += CurHi - CurLo;
      CurLo = Lo;
      CurHi = Hi;
      Open = true;
    }
    if (Open)
      Covered += CurHi - CurLo;
    Self[I] = P.durNs() - std::min(Covered, P.durNs());
  }
  return Self;
}

/// Spans kept in memory while a traced run executes; one log per thread.
class SpanLog {
public:
  /// Opens a span now and returns its index.
  int64_t open(std::string Name, int64_t Parent, uint64_t Request,
               uint64_t StartNs) {
    Spans.push_back({std::move(Name), StartNs, 0, Parent, Request});
    return int64_t(Spans.size() - 1);
  }
  void close(int64_t Idx, uint64_t EndNs) { Spans[size_t(Idx)].EndNs = EndNs; }
  /// Adds a closed span whose interval is already known.
  int64_t add(std::string Name, int64_t Parent, uint64_t Request,
              uint64_t StartNs, uint64_t EndNs) {
    Spans.push_back({std::move(Name), StartNs, EndNs, Parent, Request});
    return int64_t(Spans.size() - 1);
  }

  const std::vector<Span> &spans() const { return Spans; }
  /// Summed self time per span name.
  std::map<std::string, uint64_t> selfByName() const {
    std::vector<uint64_t> Self = selfTimes(Spans);
    std::map<std::string, uint64_t> Out;
    for (size_t I = 0; I != Spans.size(); ++I)
      Out[Spans[I].Name] += Self[I];
    return Out;
  }

  /// Summed duration of root spans (the wall time the log covers).
  uint64_t rootNs() const {
    uint64_t T = 0;
    for (const Span &S : Spans)
      if (S.Parent < 0)
        T += S.durNs();
    return T;
  }

private:
  std::vector<Span> Spans;
};

/// Wall time minus the sum of the layer times: the part of the wall time
/// no layer accounts for. Negative when layers overlap in time or the
/// layer figures come from a run slower than the wall-time run.
inline double unattributed(double WallMs,
                           const std::map<std::string, double> &LayerMs) {
  double Sum = 0;
  for (const auto &[Name, Ms] : LayerMs)
    Sum += Ms;
  return WallMs - Sum;
}

} // namespace qcf::perfbench

#endif // QCF_PERFBENCH_STATS_H
