#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

void LatencySet::merge(const LatencySet& o) {
  ok_.insert(ok_.end(), o.ok_.begin(), o.ok_.end());
  misses_ += o.misses_;
  sorted_ = false;
}

double LatencySet::quantile(double q) const {
  const std::size_t n = count();
  if (n == 0) return std::nan("");
  if (!sorted_) {
    std::sort(ok_.begin(), ok_.end());
    sorted_ = true;
  }
  // Nearest rank: the smallest value with at least q*n values at or below.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return rank <= ok_.size() ? ok_[rank - 1] : kInf;
}

double supported_quantile(std::size_t n, std::size_t beyond) {
  if (n <= beyond) return 0;
  return 1.0 - static_cast<double>(beyond) / static_cast<double>(n);
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {
std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

PoissonSchedule::PoissonSchedule(std::uint64_t seed, std::uint64_t stream,
                                 double rate)
    : state_(seed * 0x2545f4914f6cdd1dULL ^ (stream + 1) * 0x9e3779b97f4a7c15ULL),
      mean_gap_ns_(1e9 / rate) {}

std::int64_t PoissonSchedule::next() {
  const std::int64_t due = static_cast<std::int64_t>(t_);
  // Uniform in (0, 1] from the top 53 bits, then an exponential gap.
  const double u =
      (static_cast<double>(splitmix64(state_) >> 11) + 1.0) / 9007199254740992.0;
  t_ += -std::log(u) * mean_gap_ns_;
  return due;
}

KneeResult find_knee(const KneeSearch& params,
                     const std::function<Probe(double rate)>& probe) {
  KneeResult out;
  double lo = 0;  // highest passing offered rate
  double hi = 0;  // lowest failing offered rate (0 = none yet)
  auto budget_left = [&] {
    return static_cast<int>(out.probes.size()) < params.max_probes;
  };
  // A rate's verdict is the majority of up to three probes: two, and a
  // third only when they disagree. One disturbed probe can neither pass nor
  // fail a rate. A rate left without a majority (budget spent) decides
  // nothing.
  auto run = [&](double rate) {
    int passes = 0, fails = 0;
    while (passes < 2 && fails < 2 && budget_left()) {
      out.probes.push_back(probe(rate));
      out.probes.back().offered = rate;
      ++(out.probes.back().pass ? passes : fails);
    }
    if (passes >= 2 && rate > lo) lo = rate;
    if (fails >= 2 && (hi == 0 || rate < hi)) hi = rate;
  };

  double rate = std::min(params.start_rate, params.max_rate);
  run(rate);
  // Bracket: walk outward until one passing and one failing rate exist.
  while (budget_left()) {
    if (lo > 0 && hi > 0) break;
    if (hi == 0) {
      if (rate >= params.max_rate) break;
      rate = std::min(rate * params.growth, params.max_rate);
    } else {
      rate /= params.growth;
    }
    run(rate);
  }
  // Bisect geometrically inside the bracket.
  while (lo > 0 && hi > 0 && hi / lo - 1 > params.resolution && budget_left()) {
    run(std::sqrt(lo * hi));
  }
  if (lo > 0) {
    // Goodput at the knee: the mean over that rate's probes.
    double sum = 0;
    int n = 0;
    for (const Probe& p : out.probes) {
      if (p.offered == lo) {
        sum += p.goodput;
        ++n;
      }
    }
    out.knee_ops_s = sum / n;
    out.knee_offered = lo;
  }
  out.resolution = (lo > 0 && hi > 0) ? hi / lo - 1 : kInf;
  return out;
}

}  // namespace perfbench
