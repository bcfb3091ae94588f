// perfbench — the repository benchmark program.
//
//   perfbench --workload <store-mix|dlog-sync> --seed N
//             --seconds S --trace <0|1> [--tmp-dir D] [--out-dir D]
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up time
// (median over every deployment of the run), latency at the workload's fixed open-loop
// rate, CPU per committed op, peak RSS, the share of ops committed with a
// correct result, and the knee (highest offered rate meeting the p99 limit
// without a growing backlog). --trace 1 measures the per-layer metrics:
// an untraced reference window, then the same window on an instrumented
// deployment (stage spans, per-layer counters), then a stress window at
// the workload's knee hint for the queue high-water marks.
//
// Human-readable report lines go to stdout first; the last line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Any failed
// correctness check makes the exit code non-zero.
#include <fcntl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "generator.hpp"
#include "instrument.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mrp::runtime::Node;
using mrp::runtime::TransportStats;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  // required
  int trace = 0;
  std::string tmp_dir = ".bench_build/perfbench-tmp";
  std::string out_dir = ".bench_build/perfbench-traces";
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <store-mix|dlog-sync> "
               "--seed N --seconds S --trace <0|1> [--tmp-dir D] "
               "[--out-dir D]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = std::atoi(v.c_str());
    else if (k == "--tmp-dir") a.tmp_dir = v;
    else if (k == "--out-dir") a.out_dir = v;
    else usage();
  }
  if (find_workload(a.workload) == nullptr || a.seconds <= 0) usage();
  return a;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

Generator& as_gen(Node* n) { return dynamic_cast<Generator&>(*n); }

/// Finite value for JSON: an infinite latency (a miss) is reported as the
/// given cap.
double finite(double v, double cap) { return std::isfinite(v) ? v : cap; }

struct ProcessCpu {
  double user_us = 0, sys_us = 0;
};
ProcessCpu process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_utime.tv_sec) * 1e6 + ru.ru_utime.tv_usec,
          static_cast<double>(ru.ru_stime.tv_sec) * 1e6 + ru.ru_stime.tv_usec};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Bytes this process caused to be written to storage (/proc/self/io);
/// 0 where the kernel does not expose it.
double io_write_bytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  double v = 0;
  while (in >> key >> v) {
    if (key == "write_bytes:") return v;
  }
  return 0;
}

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// --- the JSON result ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.9g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

/// The per-deployment storage directories of one run. Deleting a file on
/// a filesystem mounted with `discard` makes the next journal commits wait
/// for the device to trim the freed blocks, which would stall the fsyncs
/// of the deployments that follow. So nothing is deleted while measuring:
/// the directories go at the end of the run, and the filesystem is synced
/// at both ends so no run inherits another run's pending work.
class ScratchSpace {
 public:
  ScratchSpace(std::string parent, const std::string& leaf)
      : parent_(std::move(parent)), root_(parent_ + "/" + leaf) {
    std::error_code ec;
    remove_stale_runs();
    std::filesystem::create_directories(root_, ec);
    sync_fs();
  }
  ~ScratchSpace() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
    sync_fs();
  }
  ScratchSpace(const ScratchSpace&) = delete;
  ScratchSpace& operator=(const ScratchSpace&) = delete;

  std::string dir(const std::string& leaf) const { return root_ + "/" + leaf; }

 private:
  /// Removes the "run-<pid>" directories of runs that were killed (their
  /// process is gone); a live run's directory is left alone.
  void remove_stale_runs() const {
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(parent_, ec)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("run-", 0) != 0) continue;
      if (std::filesystem::exists("/proc/" + name.substr(4))) continue;
      std::filesystem::remove_all(e.path(), ec);
    }
  }

  void sync_fs() const {
    const int fd = ::open(parent_.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      ::syncfs(fd);
      ::close(fd);
    }
  }
  std::string parent_;
  std::string root_;
};

// --- one benchmark run ---

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args), config_(*find_workload(args.workload)),
        scratch_(args.tmp_dir, "run-" + std::to_string(::getpid())) {}

  int run() { return args_.trace ? run_traced() : run_untraced(); }

 private:
  /// Builds and starts a deployment, then waits until every ring has
  /// committed one command through the generator. Returns null on failure.
  std::unique_ptr<Deployment> setup(bool traced, double* seconds) {
    const double t0 = now_s();
    DeployOptions o;
    o.seed = args_.seed;
    o.traced = traced;
    o.storage_dir = scratch_.dir("deployment-" + std::to_string(setups_++));
    auto dep = std::make_unique<Deployment>(config_, o);
    const int id = next_window_++;
    dep->cluster().call(kGeneratorPid, [&](Node* n) {
      std::vector<GenOp> ops;
      for (GroupId g : dep->groups()) ops.push_back(dep->workload().probe(g));
      as_gen(n).begin_fixed(id, std::move(ops));
    });
    const WindowReport r = finish_window(*dep, id, 60.0);
    *seconds = now_s() - t0;
    if (r.committed != dep->groups().size()) {
      std::printf("setup: only %llu of %zu rings committed a command\n",
                  static_cast<unsigned long long>(r.committed),
                  dep->groups().size());
      return nullptr;
    }
    return dep;
  }

  /// Polls until window `id` finished (or `deadline_s` passed), closes it
  /// and accounts its ops in the run totals.
  WindowReport finish_window(Deployment& dep, int id, double deadline_s) {
    const double until = now_s() + deadline_s;
    bool done = false;
    while (!done && now_s() < until) {
      dep.cluster().call(kGeneratorPid,
                         [&](Node* n) { done = as_gen(n).window_done(id); });
      if (!done) sleep_s(0.002);
    }
    WindowReport r;
    dep.cluster().call(kGeneratorPid,
                       [&](Node* n) { r = as_gen(n).close_window(id); });
    attempted_ += r.attempted;
    failed_ += r.wrong + r.missed;
    wrong_ += r.wrong;
    return r;
  }

  WindowReport run_window(Deployment& dep, double rate, double seconds,
                          bool trace, double drain_s) {
    const int id = next_window_++;
    dep.cluster().call(kGeneratorPid, [&](Node* n) {
      as_gen(n).begin_window(id, args_.seed, static_cast<std::uint64_t>(id),
                             rate, seconds, trace);
    });
    sleep_s(seconds);
    return finish_window(dep, id, drain_s);
  }

  /// One report out of the fixed-rate parts: totals summed, latencies
  /// pooled.
  static WindowReport merge_parts(const std::vector<WindowReport>& parts) {
    WindowReport all;
    for (const WindowReport& p : parts) {
      all.offered_rate = p.offered_rate;
      all.arrival_seconds += p.arrival_seconds;
      all.attempted += p.attempted;
      all.committed += p.committed;
      all.wrong += p.wrong;
      all.missed += p.missed;
      all.retries += p.retries;
      all.busy_pushbacks += p.busy_pushbacks;
      all.latency.merge(p.latency);
      all.gen_lag_us.insert(all.gen_lag_us.end(), p.gen_lag_us.begin(),
                            p.gen_lag_us.end());
    }
    return all;
  }

  /// Waits until the generator has no unfinished command at all.
  bool drain(Deployment& dep, double deadline_s) {
    const double until = now_s() + deadline_s;
    for (;;) {
      std::uint64_t left = 0;
      dep.cluster().call(kGeneratorPid,
                         [&](Node* n) { left = as_gen(n).unfinished(); });
      if (left == 0) return true;
      if (now_s() > until) return false;
      sleep_s(0.002);
    }
  }

  std::uint64_t issued(Deployment& dep) {
    std::uint64_t n = 0;
    dep.cluster().call(kGeneratorPid,
                       [&](Node* node) { n = as_gen(node).issued(); });
    return n;
  }

  Generator::Cpu gen_cpu(Deployment& dep) {
    Generator::Cpu c;
    dep.cluster().call(kGeneratorPid, [&](Node* n) { c = as_gen(n).cpu(); });
    return c;
  }

  /// Final drain plus every correctness check; prints failures.
  bool final_checks(Deployment& dep) {
    bool ok = drain(dep, 30.0);
    if (!ok) std::printf("check FAILED: commands still unfinished after 30 s\n");
    const std::vector<std::string> failures = dep.check_final(issued(dep));
    for (const std::string& f : failures) std::printf("check FAILED: %s\n", f.c_str());
    if (wrong_ > 0) {
      std::printf("check FAILED: %llu replies with a wrong result\n",
                  static_cast<unsigned long long>(wrong_));
    }
    return ok && failures.empty() && wrong_ == 0;
  }

  void print_window(const char* what, const WindowReport& r) {
    const std::size_t n = r.latency.count();
    const double q = supported_quantile(n);
    std::vector<double> lag = r.gen_lag_us;
    LatencySet lagset;
    for (double v : lag) lagset.add(v);
    std::printf(
        "%s: open-loop Poisson at %.0f ops/s for %.2f s: %llu attempted, "
        "%llu committed, %llu wrong, %llu missed, %llu retries, %llu busy\n",
        what, r.offered_rate, r.arrival_seconds,
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.committed),
        static_cast<unsigned long long>(r.wrong),
        static_cast<unsigned long long>(r.missed),
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.busy_pushbacks));
    std::printf(
        "%s: latency from due time over %zu samples: p50 %.4f ms, p99 %.4f "
        "ms, p%.4g %.4f ms (highest percentile with >=10 samples beyond)\n",
        what, n, r.latency.quantile(0.5), r.latency.quantile(0.99), q * 100,
        q > 0 ? r.latency.quantile(q) : 0.0);
    std::printf(
        "%s: generator lateness p50 %.1f us, p99 %.1f us, max %.1f us "
        "(included in the latency above)\n",
        what, lagset.quantile(0.5), lagset.quantile(0.99), lagset.quantile(1));
  }

  int run_untraced() {
    // Fixed-rate latency: half the run, spread over kFixedDeployments fresh
    // deployments. Per-deployment accidents (which coordinator won an
    // election first, hence the relative phase of the rings' rate-leveling
    // timers) decide a deployment's merge wait; spreading the window
    // averages them out instead of letting one draw decide the run.
    constexpr int kFixedDeployments = 45;
    const double part_s = 0.5 * args_.seconds / kFixedDeployments;
    std::vector<double> setup_times;
    std::vector<WindowReport> parts;
    double user_us = 0, sys_us = 0;
    bool ok = true;
    for (int i = 0; i < kFixedDeployments; ++i) {
      double s = 0;
      auto dep = setup(false, &s);
      if (!dep) return 1;
      setup_times.push_back(s);
      const ProcessCpu c0 = process_cpu();
      const Generator::Cpu g0 = gen_cpu(*dep);
      parts.push_back(run_window(*dep, config_.fixed_rate, part_s, false, 10.0));
      const ProcessCpu c1 = process_cpu();
      const Generator::Cpu g1 = gen_cpu(*dep);
      // The generator's own threads are the client, not the system.
      user_us += (c1.user_us - c0.user_us) - (g1.user_us - g0.user_us);
      sys_us += (c1.sys_us - c0.sys_us) - (g1.sys_us - g0.sys_us);
      ok = final_checks(*dep) && ok;
    }
    const WindowReport fixed = merge_parts(parts);
    print_window("fixed", fixed);
    // p50_ms and p99_ms: the median over the parts of each part's
    // percentile, misses included. A host stall of a few milliseconds that
    // hits one or two parts would move a pooled p99 by more than the
    // metric's bound; the median keeps whatever hits at least half of the
    // parts. Failed ops also count in ok_frac, wherever they fall.
    std::vector<double> part_p50, part_p99;
    for (const WindowReport& p : parts) {
      part_p50.push_back(p.latency.quantile(0.5));
      part_p99.push_back(p.latency.quantile(0.99));
    }
    auto print_parts = [](const char* name, const std::vector<double>& v) {
      std::printf("fixed: %s per deployment (ms):", name);
      for (double x : v) std::printf(" %.3f", finite(x, 1e9));
      std::printf("\n");
    };
    print_parts("p50", part_p50);
    print_parts("p99", part_p99);
    const double ops = static_cast<double>(fixed.committed);
    user_us = ratio(user_us, ops);
    sys_us = ratio(sys_us, ops);
    // Peak memory of the set-ups and the fixed-rate windows (before the
    // knee probes, whose overload queues would make it rate-dependent).
    const double rss_mb = peak_rss_mb();

    // Knee search over offered load. Each probe runs on a fresh deployment:
    // an overloaded probe leaves state behind (a ring that outran lambda
    // keeps its lead in the merge for good) that would skew the next one.
    KneeSearch ks;
    ks.start_rate = config_.knee_hint;
    const double probe_s = 0.5 * args_.seconds / ks.max_probes;
    const double limit = config_.p99_limit_ms;
    const KneeResult knee = find_knee(ks, [&](double rate) {
      Probe p;
      double s = 0;
      auto d = setup(false, &s);
      if (!d) {
        ok = false;
        return p;
      }
      setup_times.push_back(s);
      const WindowReport r = run_window(*d, rate, probe_s, false, 15.0);
      ok = final_checks(*d) && ok;
      d.reset();
      p.goodput = static_cast<double>(r.committed) / r.arrival_seconds;
      p.p99_ms = r.latency.quantile(0.99);
      p.backlog_grew = static_cast<double>(r.backlog_at_end) >
                       rate * limit / 1e3 + 32;
      p.pass = p.p99_ms <= limit && !p.backlog_grew;
      LatencySet lag;
      for (double v : r.gen_lag_us) lag.add(v);
      std::printf(
          "knee probe: offered %.0f ops/s -> goodput %.0f ops/s, p99 %.3f ms "
          "(generator lateness p99 %.0f us), backlog at end %llu -> %s\n",
          rate, p.goodput, finite(p.p99_ms, 1e9), finite(lag.quantile(0.99), 0),
          static_cast<unsigned long long>(r.backlog_at_end),
          p.pass ? "pass" : "fail");
      return p;
    });
    std::printf("knee: %.0f ops/s (offered %.0f, bracket resolution %.3f, "
                "p99 limit %.1f ms)\n",
                knee.knee_ops_s, knee.knee_offered, knee.resolution, limit);
    const double setup_s = median(setup_times);
    std::printf("setup_s: median %.4f over %zu set-ups\n", setup_s,
                setup_times.size());
    std::printf("checks: %s\n", ok ? "all passed" : "FAILED");

    // A percentile among the misses is reported as the part's length.
    const double p50 = finite(median(part_p50), part_s * 1e3);
    const double p99 = finite(median(part_p99), part_s * 1e3);
    std::printf("p50_ms, p99_ms (medians over %zu deployments): %.4f, %.4f\n",
                parts.size(), p50, p99);
    print_result(
        ok, attempted_, failed_,
        {{"setup_s", setup_s, "s"},
         {"p50_ms", p50, "ms"},
         {"p99_ms", p99, "ms"},
         {"knee_ops_s", knee.knee_ops_s, "ops/s"},
         {"cpu_user_us_per_op", user_us, "us"},
         {"cpu_sys_us_per_op", sys_us, "us"},
         {"rss_mb", rss_mb, "MB"},
         {"ok_frac", ratio(ops, static_cast<double>(fixed.attempted)),
          "ratio"}});
    return ok ? 0 : 1;
  }

  // --- traced run ---

  /// Per-layer counters of a deployment at one instant.
  struct LayerSnap {
    double wall_ns = 0;
    TransportStats net_replicas, net_all;
    std::uint64_t decided = 0, skips = 0, retransmissions = 0;  // replica 1
    std::uint64_t retrans_all = 0, ring_shed = 0;
    std::size_t inflight_hwm = 0, pending_hwm = 0;
    std::uint64_t merge_skipped = 0, merge_delivered = 0, merge_rounds = 0;
    std::uint64_t executed = 0;  // summed over replicas
    std::uint64_t own_values = 0, own_value_commands = 0;
    std::size_t admission_hwm = 0;
    std::uint64_t admission_shed = 0;
    std::array<std::uint64_t, TimedStateMachine::kTypes> apply_n{}, apply_ns{};
    std::vector<double> loop_cpu_ns;  // per replica
    Generator::Cpu gen;
    CodecTotals codec;
    double io_write = 0;
    ProcessCpu cpu;
  };

  LayerSnap snapshot(Deployment& dep) {
    LayerSnap s;
    s.wall_ns = static_cast<double>(steady_ns());
    s.cpu = process_cpu();
    s.io_write = io_write_bytes();
    s.codec = codec_totals();
    s.net_all = dep.cluster().transport_stats_all();
    for (ProcessId r : dep.replicas()) {
      s.net_replicas += dep.cluster().transport_stats(r);
      dep.cluster().call(r, [&](Node* n) {
        auto& rep = dynamic_cast<TracedReplica&>(*n);
        s.loop_cpu_ns.push_back(thread_cpu_ns());
        s.executed += rep.executed();
        s.own_values += rep.own_values();
        s.own_value_commands += rep.own_value_commands();
        for (GroupId g : dep.groups()) {
          const auto* h = rep.handler(g);
          if (r == dep.replicas().front()) {
            s.decided += h->decided_count();
            s.skips += h->skip_count();
          }
          s.retrans_all += h->retransmissions();
          const auto f = h->flow_stats();
          s.inflight_hwm = std::max(s.inflight_hwm, f.inflight_hwm);
          s.pending_hwm = std::max(s.pending_hwm, f.pending_hwm);
          s.ring_shed += f.shed;
          const auto a = rep.admission_stats(g);
          s.admission_hwm = std::max(s.admission_hwm, a.commands_hwm);
          s.admission_shed += a.shed;
        }
        if (r == dep.replicas().front() && rep.merger() != nullptr) {
          s.merge_skipped = rep.merger()->skipped_instances();
          s.merge_delivered = rep.merger()->delivered();
          s.merge_rounds = rep.merger()->round();
        }
        if (auto* t = dynamic_cast<TimedStateMachine*>(&rep.state_machine())) {
          for (int i = 0; i < TimedStateMachine::kTypes; ++i) {
            s.apply_n[i] += t->count()[i];
            s.apply_ns[i] += t->ns()[i];
          }
        }
      });
    }
    s.gen = gen_cpu(dep);
    return s;
  }

  void set_stamping(Deployment& dep, bool on) {
    for (ProcessId r : dep.replicas()) {
      dep.cluster().call(r, [&](Node* n) {
        dynamic_cast<TracedReplica&>(*n).set_stamping(on);
      });
    }
  }

  /// Joins generator traces with the replicas' stamps into spans.
  std::vector<Span> collect_spans(Deployment& dep) {
    std::vector<GenTrace> traces;
    dep.cluster().call(kGeneratorPid,
                       [&](Node* n) { traces = as_gen(n).take_traces(); });
    std::map<ProcessId, std::unordered_map<std::uint64_t, TracedReplica::Stamps>>
        stamps;
    for (ProcessId r : dep.replicas()) {
      dep.cluster().call(r, [&](Node* n) {
        stamps[r] = dynamic_cast<TracedReplica&>(*n).stamps();
      });
    }
    std::vector<Span> spans;
    for (const GenTrace& t : traces) {
      CommandStamps s = t.stamps;
      for (const auto& [r, m] : stamps) {
        auto it = m.find(t.trace_id);
        if (it == m.end()) continue;
        const auto& st = it->second;
        if (st.admit >= 0 && (s.admit < 0 || st.admit < s.admit)) s.admit = st.admit;
        if (r == t.replier) {
          s.deliver = st.deliver;
          s.exec_start = st.exec_start;
          s.apply_start = st.apply_start;
          s.apply_end = st.apply_end;
          s.exec_end = st.exec_end;
        }
      }
      build_spans(t.trace_id, s, spans);
    }
    return spans;
  }

  int run_traced() {
    // 1. Untraced reference window (plain objects, plain codec).
    const double ref_s = 0.3 * args_.seconds;
    const double traced_s = 0.4 * args_.seconds;
    const double stress_s = 0.3 * args_.seconds;
    double setup_s = 0;
    auto dep = setup(false, &setup_s);
    if (!dep) return 1;
    const ProcessCpu rc0 = process_cpu();
    const Generator::Cpu rg0 = gen_cpu(*dep);
    const WindowReport ref =
        run_window(*dep, config_.fixed_rate, ref_s, false, 10.0);
    const ProcessCpu rc1 = process_cpu();
    const Generator::Cpu rg1 = gen_cpu(*dep);
    print_window("untraced reference", ref);
    const double ref_cpu_per_op =
        ratio((rc1.user_us - rc0.user_us + rc1.sys_us - rc0.sys_us) -
                  (rg1.user_us - rg0.user_us + rg1.sys_us - rg0.sys_us),
              static_cast<double>(ref.committed));
    bool ok = final_checks(*dep);
    dep.reset();

    // 2. Traced deployment: fixed-rate window with stamps, then stress.
    dep = setup(true, &setup_s);
    if (!dep) return 1;
    set_stamping(*dep, true);
    const LayerSnap l0 = snapshot(*dep);
    const WindowReport tw =
        run_window(*dep, config_.fixed_rate, traced_s, true, 10.0);
    const LayerSnap l1 = snapshot(*dep);
    set_stamping(*dep, false);
    print_window("traced", tw);
    drain(*dep, 15.0);
    const WindowReport stress =
        run_window(*dep, config_.knee_hint, stress_s, false, 15.0);
    const LayerSnap l2 = snapshot(*dep);
    print_window("stress (knee hint)", stress);
    ok = final_checks(*dep) && ok;
    std::printf("checks: %s\n", ok ? "all passed" : "FAILED");
    const std::vector<Span> spans = collect_spans(*dep);
    dep.reset();

    // Spans: per-name totals and self time, and the file with a sample.
    const auto summary = summarize(spans);
    std::printf("spans: %zu (name: count, mean total us, mean self us)\n",
                spans.size());
    for (const auto& [name, s] : summary) {
      std::printf("  %-26s %8llu %10.2f %10.2f\n", name.c_str(),
                  static_cast<unsigned long long>(s.count),
                  s.total_ns / static_cast<double>(s.count) / 1e3,
                  s.self_ns / static_cast<double>(s.count) / 1e3);
    }
    write_span_sample(spans);

    // Per-layer metrics.
    const double ops = static_cast<double>(tw.committed);
    const double win_s = (l1.wall_ns - l0.wall_ns) / 1e9;
    const TransportStats net = delta(l0.net_replicas, l1.net_replicas);
    const TransportStats net_all = delta(l0.net_all, l1.net_all);
    const TransportStats stress_net = delta(l1.net_all, l2.net_all);
    std::vector<Metric> m;
    m.push_back({"runtime.syscalls_per_op", ratio(net.syscalls, ops), "count"});
    m.push_back({"runtime.epoll_waits_per_op", ratio(net.epoll_waits, ops), "count"});
    m.push_back({"runtime.frames_per_op", ratio(net.frames_sent, ops), "count"});
    m.push_back({"runtime.bytes_per_op", ratio(net.flushed_bytes, ops), "B"});
    m.push_back({"runtime.frames_per_flush",
                 ratio(net.flushed_frames, net.flushes), "count"});
    m.push_back({"runtime.wake_coalesce_ratio",
                 net_all.wakes_written > 0
                     ? ratio(net_all.wakes_requested, net_all.wakes_written)
                     : 1.0,
                 "ratio"});
    m.push_back({"runtime.frames_dropped",
                 static_cast<double>(stress_net.frames_dropped + net_all.frames_dropped),
                 "count"});
    m.push_back({"runtime.pending_bytes_hwm",
                 static_cast<double>(l2.net_all.pending_bytes_hwm), "B"});
    m.push_back({"net.encode_ns_per_op",
                 ratio(static_cast<double>(l1.codec.encode_ns - l0.codec.encode_ns), ops),
                 "ns"});
    m.push_back({"net.decode_ns_per_op",
                 ratio(static_cast<double>(l1.codec.decode_ns - l0.codec.decode_ns), ops),
                 "ns"});
    m.push_back({"net.encodes_per_frame",
                 ratio(net.bodies_encoded, net.frames_sent), "ratio"});
    m.push_back({"ringpaxos.instances_per_op",
                 ratio(static_cast<double>(l1.decided - l0.decided), ops), "count"});
    m.push_back({"ringpaxos.skips_per_s",
                 ratio(static_cast<double>(l1.skips - l0.skips), win_s), "1/s"});
    m.push_back({"ringpaxos.retransmissions",
                 static_cast<double>(l2.retrans_all - l0.retrans_all), "count"});
    m.push_back({"ringpaxos.inflight_hwm", static_cast<double>(l2.inflight_hwm), "count"});
    m.push_back({"ringpaxos.pending_hwm", static_cast<double>(l2.pending_hwm), "count"});
    m.push_back({"ringpaxos.shed", static_cast<double>(l2.ring_shed - l0.ring_shed), "count"});
    m.push_back({"multiring.skipped_per_delivered",
                 ratio(static_cast<double>(l1.merge_skipped - l0.merge_skipped),
                       static_cast<double>(l1.merge_delivered - l0.merge_delivered)),
                 "ratio"});
    m.push_back({"multiring.rounds_per_op",
                 ratio(static_cast<double>(l1.merge_rounds - l0.merge_rounds), ops),
                 "count"});
    m.push_back({"smr.commands_per_value",
                 ratio(static_cast<double>(l1.own_value_commands - l0.own_value_commands),
                       static_cast<double>(l1.own_values - l0.own_values)),
                 "ratio"});
    m.push_back({"smr.admission_hwm", static_cast<double>(l2.admission_hwm), "count"});
    m.push_back({"smr.shed", static_cast<double>(l2.admission_shed - l0.admission_shed),
                 "count"});
    double apply_ns = 0, apply_n = 0;
    for (int i = 0; i < TimedStateMachine::kTypes; ++i) {
      apply_ns += static_cast<double>(l1.apply_ns[i] - l0.apply_ns[i]);
      apply_n += static_cast<double>(l1.apply_n[i] - l0.apply_n[i]);
    }
    m.push_back({"smr.execute_ns_per_op", ratio(apply_ns, apply_n), "ns"});
    auto per_type = [&](const char* service, const char* type, int code) {
      const bool mine = args_.workload == service;
      const double n = static_cast<double>(l1.apply_n[code] - l0.apply_n[code]);
      const double ns = static_cast<double>(l1.apply_ns[code] - l0.apply_ns[code]);
      m.push_back({std::string(service == std::string("store-mix") ? "mrpstore" : "dlog") +
                       ".apply_ns." + type,
                   mine ? ratio(ns, n) : 0.0, "ns"});
    };
    per_type("store-mix", "read", 1);
    per_type("store-mix", "update", 2);
    per_type("store-mix", "scan", 5);
    per_type("store-mix", "transfer", 9);
    per_type("dlog-sync", "append", 1);
    per_type("dlog-sync", "multi_append", 2);
    m.push_back({"storage.write_bytes_per_op", ratio(l1.io_write - l0.io_write, ops), "B"});
    double replica_util = 0;
    for (std::size_t i = 0; i < l1.loop_cpu_ns.size(); ++i) {
      replica_util = std::max(
          replica_util, ratio(l1.loop_cpu_ns[i] - l0.loop_cpu_ns[i], l1.wall_ns - l0.wall_ns));
    }
    m.push_back({"loop.replica_max.cpu_util", replica_util, "ratio"});
    m.push_back({"loop.client.cpu_util",
                 ratio(l1.gen.loop_cpu_ns - l0.gen.loop_cpu_ns, l1.wall_ns - l0.wall_ns),
                 "ratio"});
    LatencySet lag;
    for (double v : tw.gen_lag_us) lag.add(v);
    m.push_back({"client.gen_lag_p99_us", finite(lag.quantile(0.99), 0), "us"});
    m.push_back({"client.retries", static_cast<double>(tw.retries + stress.retries), "count"});
    m.push_back({"client.busy_pushbacks",
                 static_cast<double>(tw.busy_pushbacks + stress.busy_pushbacks), "count"});
    for (const char* stage : {"client_to_admit", "admit_to_deliver",
                              "deliver_to_execute", "execute",
                              "execute_to_reply"}) {
      LatencySet d;
      auto it = summary.find(std::string("stage.") + stage);
      if (it != summary.end()) {
        for (double ns : it->second.durations_ns) d.add(ns / 1e3);
      }
      for (const char* q : {"p50", "p99"}) {
        const double v = d.count() ? d.quantile(q[1] == '5' ? 0.5 : 0.99) : 0;
        m.push_back({std::string("stage.") + stage + "_us." + q, v, "us"});
      }
    }
    m.push_back({"trace.unattributed_frac", unattributed_frac(spans), "ratio"});
    const double ref_p50 = ref.latency.quantile(0.5);
    m.push_back({"trace.overhead_p50_frac",
                 ratio(tw.latency.quantile(0.5) - ref_p50, ref_p50), "ratio"});
    const double traced_cpu_per_op =
        ratio((l1.cpu.user_us - l0.cpu.user_us + l1.cpu.sys_us - l0.cpu.sys_us) -
                  (l1.gen.user_us - l0.gen.user_us + l1.gen.sys_us - l0.gen.sys_us),
              ops);
    m.push_back({"trace.overhead_cpu_frac",
                 ratio(traced_cpu_per_op - ref_cpu_per_op, ref_cpu_per_op), "ratio"});
    print_result(ok, attempted_, failed_, m);
    return ok ? 0 : 1;
  }

  static TransportStats delta(const TransportStats& a, const TransportStats& b) {
    TransportStats d;
    d.frames_sent = b.frames_sent - a.frames_sent;
    d.frames_dropped = b.frames_dropped - a.frames_dropped;
    d.frames_received = b.frames_received - a.frames_received;
    d.bodies_encoded = b.bodies_encoded - a.bodies_encoded;
    d.flushes = b.flushes - a.flushes;
    d.flushed_bytes = b.flushed_bytes - a.flushed_bytes;
    d.flushed_frames = b.flushed_frames - a.flushed_frames;
    d.epoll_waits = b.epoll_waits - a.epoll_waits;
    d.syscalls = b.syscalls - a.syscalls;
    d.wakes_requested = b.wakes_requested - a.wakes_requested;
    d.wakes_written = b.wakes_written - a.wakes_written;
    d.pending_bytes_hwm = b.pending_bytes_hwm;
    return d;
  }

  static double ratio(std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0;
  }
  static double ratio(std::uint64_t a, double b) {
    return b > 0 ? static_cast<double>(a) / b : 0;
  }
  static double ratio(double a, double b) { return b > 0 ? a / b : 0; }

  /// Writes the spans of the first traced commands (a prefix keeps the
  /// parent indices valid) once the traced run is over.
  void write_span_sample(const std::vector<Span>& spans) {
    constexpr std::size_t kTraces = 2000;
    std::size_t end = 0, roots = 0;
    while (end < spans.size()) {
      if (spans[end].parent < 0 && ++roots > kTraces) break;
      ++end;
    }
    std::error_code ec;
    std::filesystem::create_directories(args_.out_dir, ec);
    const std::string path = args_.out_dir + "/" + config_.name + "-seed" +
                             std::to_string(args_.seed) + ".jsonl";
    const std::vector<Span> sample(spans.begin(), spans.begin() + end);
    if (write_spans(path, sample)) {
      std::printf("spans of %zu traced commands written to %s\n",
                  std::min(roots, kTraces), path.c_str());
    }
  }

  Args args_;
  const WorkloadConfig& config_;
  ScratchSpace scratch_;
  int next_window_ = 1;
  int setups_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t wrong_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  perfbench::Bench bench(args);
  return bench.run();
}
