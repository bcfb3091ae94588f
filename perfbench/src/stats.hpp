// Statistics the benchmark reports: latency percentiles in which failed or
// refused operations count as misses, medians, the seeded open-loop
// arrival schedule, and the knee search over offered load.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace perfbench {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Latencies of one measurement window. A failed or refused operation is a
/// miss: it counts as slower than any limit (an infinite latency).
class LatencySet {
 public:
  void add(double ms) { ok_.push_back(ms); sorted_ = false; }
  void add_miss() { ++misses_; }
  void merge(const LatencySet& o);

  std::size_t count() const { return ok_.size() + misses_; }
  std::size_t misses() const { return misses_; }

  /// Nearest-rank quantile over successes and misses together; kInf when
  /// the rank falls among the misses, NaN when the set is empty.
  double quantile(double q) const;

 private:
  mutable std::vector<double> ok_;
  mutable bool sorted_ = true;
  std::size_t misses_ = 0;
};

/// The highest percentile (as a fraction, e.g. 0.999) that still has at
/// least `beyond` samples above it among `n`; 0 when n <= beyond.
double supported_quantile(std::size_t n, std::size_t beyond = 10);

/// Median of `v` (NaN when empty).
double median(std::vector<double> v);

/// Seeded Poisson arrival process: the same (seed, stream) always yields
/// the same sequence of due times, independent of how fast they are
/// consumed. Rate is ops/s; times are nanoseconds from the window start.
class PoissonSchedule {
 public:
  PoissonSchedule(std::uint64_t seed, std::uint64_t stream, double rate);
  /// Due time of the next arrival, then advances.
  std::int64_t next();

 private:
  std::uint64_t state_;
  double mean_gap_ns_;
  double t_ = 0;
};

/// One probe of the knee search: the system at one offered rate.
struct Probe {
  double offered = 0;      ///< ops/s the generator offered
  double goodput = 0;      ///< ops/s committed with a correct result
  double p99_ms = 0;       ///< misses count as infinitely slow
  bool backlog_grew = false;
  bool pass = false;       ///< p99 within the limit and no growing backlog
};

struct KneeResult {
  /// Mean goodput of the probes at the highest passing offered rate (0 if
  /// none passed).
  double knee_ops_s = 0;
  double knee_offered = 0;
  /// Relative width of the final pass/fail bracket (hi/lo - 1); kInf when
  /// no failing rate was found below the search cap.
  double resolution = kInf;
  std::vector<Probe> probes;
};

struct KneeSearch {
  double start_rate = 1000;  ///< first offered rate (a guess near the knee)
  double growth = 1.25;      ///< bracket factor while searching outward
  double resolution = 0.03;  ///< stop bisecting when hi/lo - 1 <= this
  int max_probes = 16;       ///< probe runs, repeats included
  double max_rate = 1e7;     ///< never offer more than this
};

/// Finds the highest offered rate whose probe passes: grows (or shrinks)
/// the rate geometrically from `start_rate` until it brackets a pass/fail
/// boundary, then bisects geometrically. `probe(rate)` runs the system at
/// that rate and reports the outcome (its `pass` field); a rate passes or
/// fails by the majority of up to three probes, the same rule either way.
KneeResult find_knee(const KneeSearch& params,
                     const std::function<Probe(double rate)>& probe);

}  // namespace perfbench
