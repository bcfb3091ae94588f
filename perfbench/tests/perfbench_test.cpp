// Tests of the benchmark's own pieces: percentiles with misses, medians,
// the seeded arrival schedule and op sequence, the knee search, and the
// stage decomposition of a traced command.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(LatencySet, FailuresCountAsMisses) {
  LatencySet s;
  for (int i = 1; i <= 98; ++i) s.add(i);
  s.add_miss();
  s.add_miss();
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 50);
  EXPECT_DOUBLE_EQ(s.quantile(0.98), 98);
  // Rank 99 of 100 falls among the misses: slower than any limit.
  EXPECT_TRUE(std::isinf(s.quantile(0.99)));
}

TEST(LatencySet, NearestRankWithoutMisses) {
  LatencySet s;
  for (int i = 10; i >= 1; --i) s.add(i);  // unsorted input
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5);
  EXPECT_DOUBLE_EQ(s.quantile(0.9), 9);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10);
  EXPECT_TRUE(std::isnan(LatencySet().quantile(0.5)));
}

TEST(Stats, SupportedQuantileKeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(supported_quantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(supported_quantile(20000), 0.9995);
  EXPECT_EQ(supported_quantile(10), 0);
}

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(PoissonSchedule, SameSeedSameScheduleAndRate) {
  PoissonSchedule a(7, 1, 10'000), b(7, 1, 10'000), c(8, 1, 10'000);
  bool differs = false;
  std::int64_t last = 0;
  for (int i = 0; i < 100'000; ++i) {
    const std::int64_t x = a.next();
    ASSERT_EQ(x, b.next());
    differs = differs || x != c.next();
    ASSERT_GE(x, last);
    last = x;
  }
  EXPECT_TRUE(differs);
  // 100k arrivals at 10k ops/s span ~10 s (Poisson: within a few percent).
  EXPECT_NEAR(static_cast<double>(last) / 1e9, 10.0, 0.2);
}

TEST(Workloads, SeedReproducesOperationSequence) {
  for (const WorkloadConfig& cfg : all_workloads()) {
    auto a = make_workload(cfg, 42);
    auto b = make_workload(cfg, 42);
    auto c = make_workload(cfg, 43);
    bool differs = false;
    for (int i = 0; i < 500; ++i) {
      const GenOp x = a->next();
      const GenOp y = b->next();
      const GenOp z = c->next();
      ASSERT_EQ(x.request.op, y.request.op) << cfg.name;
      ASSERT_EQ(x.request.group_set(), y.request.group_set()) << cfg.name;
      ASSERT_EQ(x.type, y.type) << cfg.name;
      differs = differs || x.request.op != z.request.op;
    }
    EXPECT_TRUE(differs) << cfg.name;
  }
}

/// Synthetic system: p99 grows like a queue as the rate nears capacity.
Probe synthetic(double rate, double capacity, double limit_ms) {
  Probe p;
  p.goodput = std::min(rate, capacity);
  p.p99_ms = rate < capacity ? 0.1 + 50.0 / (capacity - rate) : kInf;
  p.backlog_grew = rate >= capacity;
  p.pass = p.p99_ms <= limit_ms && !p.backlog_grew;
  return p;
}

TEST(KneeSearch, FindsLatencyLimitCrossingOnSyntheticCurve) {
  const double capacity = 40'000;
  const double limit = 1.0;
  // p99 == limit at rate = capacity - 50 / 0.9.
  const double truth = capacity - 50.0 / 0.9;
  KneeSearch ks;
  ks.start_rate = 20'000;
  ks.resolution = 0.02;
  ks.max_probes = 30;
  const KneeResult r = find_knee(
      ks, [&](double rate) { return synthetic(rate, capacity, limit); });
  EXPECT_LE(r.knee_offered, truth);
  EXPECT_GE(r.knee_offered, truth / (1 + ks.resolution));
  EXPECT_LE(r.resolution, ks.resolution);
  EXPECT_DOUBLE_EQ(r.knee_ops_s, r.knee_offered);  // goodput at the knee
}

TEST(KneeSearch, ShrinksWhenTheStartRateFails) {
  KneeSearch ks;
  ks.start_rate = 100'000;
  ks.max_probes = 40;
  const KneeResult r = find_knee(
      ks, [&](double rate) { return synthetic(rate, 10'000, 5.0); });
  EXPECT_GT(r.knee_offered, 0);
  EXPECT_LT(r.knee_offered, 10'000);
  EXPECT_FALSE(r.probes.front().pass);
}

TEST(KneeSearch, OneDisturbedFailureDoesNotFailARate) {
  KneeSearch ks;
  ks.start_rate = 20'000;
  ks.resolution = 0.02;
  ks.max_probes = 40;
  int calls = 0;
  const KneeResult r = find_knee(ks, [&](double rate) {
    Probe p = synthetic(rate, 40'000, 1.0);
    if (++calls == 1) p.pass = false;  // the first probe hits a host stall
    return p;
  });
  // Fail, pass, then a third probe at the same rate breaks the tie.
  ASSERT_GE(r.probes.size(), 3u);
  EXPECT_FALSE(r.probes[0].pass);
  EXPECT_TRUE(r.probes[1].pass);
  EXPECT_TRUE(r.probes[2].pass);
  EXPECT_DOUBLE_EQ(r.probes[2].offered, 20'000);
  EXPECT_GE(r.knee_offered, (40'000 - 50.0 / 0.9) / (1 + ks.resolution));
}

TEST(KneeSearch, OneLuckyPassDoesNotPassARate) {
  // The rule is symmetric: above the true knee, a single passing probe per
  // rate (a lucky window) must not lift the result.
  const double truth = 40'000 - 50.0 / 0.9;
  KneeSearch ks;
  ks.start_rate = 20'000;
  ks.resolution = 0.02;
  ks.max_probes = 60;
  std::map<double, int> calls;
  const KneeResult r = find_knee(ks, [&](double rate) {
    Probe p = synthetic(rate, 40'000, 1.0);
    if (++calls[rate] == 1) p.pass = true;
    return p;
  });
  EXPECT_LE(r.knee_offered, truth);
  EXPECT_GE(r.knee_offered, truth / (1 + ks.resolution));
}

TEST(KneeSearch, RateWithoutMajorityDecidesNothing) {
  // The budget ends after two disagreeing probes of the second rate.
  KneeSearch ks;
  ks.start_rate = 1000;
  ks.max_probes = 4;
  int calls = 0;
  const KneeResult r = find_knee(ks, [&](double) {
    Probe p;
    p.goodput = 1000;
    p.pass = ++calls != 4;
    return p;
  });
  EXPECT_EQ(r.probes.size(), 4u);
  EXPECT_DOUBLE_EQ(r.knee_offered, 1000);
  EXPECT_TRUE(std::isinf(r.resolution));
}

TEST(KneeSearch, ReportsUnresolvedWhenNothingFails) {
  KneeSearch ks;
  ks.start_rate = 1000;
  ks.max_rate = 2000;
  const KneeResult r = find_knee(
      ks, [&](double rate) { return synthetic(rate, 1e9, 5.0); });
  EXPECT_DOUBLE_EQ(r.knee_offered, 2000);
  EXPECT_TRUE(std::isinf(r.resolution));
}

CommandStamps full_stamps() {
  CommandStamps s;
  s.due = 1000;
  s.arrived = 1010;
  s.admit = 1100;
  s.deliver = 1500;
  s.exec_start = 1550;
  s.apply_start = 1560;
  s.apply_end = 1600;
  s.exec_end = 1610;
  s.reply = 1700;
  return s;
}

TEST(Trace, StagesSumToEndToEnd) {
  std::vector<Span> spans;
  build_spans(42, full_stamps(), spans);
  ASSERT_EQ(spans.front().name, "e2e");
  std::int64_t stages = 0;
  for (const Span& s : spans) {
    EXPECT_EQ(s.trace_id, 42u);
    if (s.parent == 0) stages += s.end - s.start;
  }
  EXPECT_EQ(stages, 1700 - 1000);
  EXPECT_DOUBLE_EQ(unattributed_frac(spans), 0);
  // Self time: execute minus the state machine's apply inside it.
  const auto sum = summarize(spans);
  EXPECT_DOUBLE_EQ(sum.at("stage.execute").total_ns, 60);
  EXPECT_DOUBLE_EQ(sum.at("stage.execute").self_ns, 20);
  EXPECT_DOUBLE_EQ(sum.at("sm.apply").self_ns, 40);
  EXPECT_DOUBLE_EQ(sum.at("e2e").self_ns, 0);
  for (const char* name :
       {"client.gen_lag", "stage.client_to_admit", "stage.admit_to_deliver",
        "stage.deliver_to_execute", "stage.execute_to_reply"}) {
    EXPECT_EQ(sum.count(name), 1u) << name;
  }
}

TEST(Trace, MissingStampShowsAsUnattributed) {
  CommandStamps s = full_stamps();
  s.deliver = kNoStamp;  // admit->deliver and deliver->execute both vanish
  std::vector<Span> spans;
  build_spans(1, s, spans);
  EXPECT_DOUBLE_EQ(unattributed_frac(spans), (1550.0 - 1100.0) / 700.0);
  std::vector<Span> none;
  s.reply = kNoStamp;
  build_spans(2, s, none);
  EXPECT_TRUE(none.empty());
}

TEST(Trace, SelfTimeUsesTheUnionOfOverlappingChildren) {
  std::vector<Span> spans = {{"root", 0, 100, -1, 1},
                             {"a", 10, 40, 0, 1},
                             {"b", 30, 60, 0, 1},
                             {"c", 90, 120, 0, 1}};  // clipped at 100
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
}

}  // namespace
}  // namespace perfbench
