// Open-loop load generator: one runtime::Node on its own loop thread, one
// connection per replica.
//
// Arrivals follow a seeded Poisson schedule (PoissonSchedule) at the
// window's offered rate and take the next operation of the workload's
// seeded sequence, so the same seed reproduces the same schedule and the
// same operations. Each arrival takes a free session from a pool (one
// outstanding command per session); when none is free it waits in a FIFO
// backlog. Latency is timed from the *due* time, so a stall of the system
// (or of the generator) is charged to every request it delays — no
// coordinated omission. A request is re-sent with the same (session, seq)
// on timeout, rotating to the next candidate proposer, and after the
// retry_after of a MsgClientBusy pushback.
//
// The runtime's timers are millisecond-grained, so a pacer thread owned by
// the generator sleeps (absolute, 1 ns timer slack) until the next due time
// and then schedules a zero-delay tick on the generator's loop; every
// generator state change happens on that loop. Both threads are the
// client's cost and are kept out of the system's CPU accounting.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/node.hpp"
#include "smr/command.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Generator-side trace of one command.
struct GenTrace {
  std::uint64_t trace_id = 0;
  CommandStamps stamps;  // due, arrived, reply
  ProcessId replier = -1;
};

/// What one measurement window observed.
struct WindowReport {
  double offered_rate = 0;
  double arrival_seconds = 0;  ///< length of the arrival period
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;  ///< replies that passed the check
  std::uint64_t wrong = 0;      ///< replies that failed the check
  std::uint64_t missed = 0;     ///< no reply before the window was closed
  std::uint64_t retries = 0;
  std::uint64_t busy_pushbacks = 0;
  std::uint64_t backlog_at_end = 0;  ///< unfinished arrivals at period end
  LatencySet latency;                ///< ms from due time; misses included
  std::vector<double> gen_lag_us;    ///< arrival handled minus due time
};

class Generator final : public mrp::runtime::Node {
 public:
  Generator(mrp::runtime::Runtime& rt, Workload& workload,
            std::vector<ProcessId> replicas);
  ~Generator() override;

  void on_start() override;
  void on_message(ProcessId from, const mrp::runtime::Message& m) override;

  // --- control (call on the generator's loop, via ThreadCluster::call) ---

  /// Opens window `id`: Poisson arrivals at `rate` ops/s for `seconds`,
  /// stream `stream` of the seeded schedule.
  void begin_window(int id, std::uint64_t seed, std::uint64_t stream,
                    double rate, double seconds, bool trace);
  /// Opens window `id` whose arrivals are exactly `ops`, all due now.
  void begin_fixed(int id, std::vector<GenOp> ops);
  /// True once the window's arrivals are over and none is unfinished.
  bool window_done(int id) const;
  /// Closes the window: unfinished arrivals count as misses. Returns what
  /// it observed (and forgets it).
  WindowReport close_window(int id);
  /// Generator-side traces of the traced windows so far (moved out).
  std::vector<GenTrace> take_traces();
  /// Distinct commands issued so far (every replica must execute each once).
  std::uint64_t issued() const { return issued_; }
  std::uint64_t unfinished() const;

  /// CPU of the generator's own threads (loop + pacer), in microseconds.
  /// Call on the generator's loop.
  struct Cpu {
    double user_us = 0, sys_us = 0;
    double loop_cpu_ns = 0;  ///< loop thread only (CLOCK_THREAD_CPUTIME_ID)
  };
  Cpu cpu() const;
 private:
  struct Arrival {
    int window = 0;
    std::int64_t due = 0;
    std::int64_t arrived = 0;
    GenOp op;
  };
  struct Slot {
    bool busy = false;
    std::uint64_t seq = 0;
    Arrival a;
    std::vector<std::size_t> cursor;  // per send: candidate proposer index
    std::int64_t deadline = 0;        // next timeout re-send
    bool traced = false;
    std::size_t trace_index = 0;
  };
  struct Window {
    bool fixed = false;
    std::optional<PoissonSchedule> schedule;
    std::int64_t start = 0;
    std::int64_t end = 0;        // no arrival due at or after this
    std::int64_t next_due = 0;   // absolute
    bool arrivals_over = false;
    bool trace = false;
    std::uint64_t unfinished = 0;
    WindowReport report;
  };

  void tick();
  void publish_next_due();
  void pace();
  void arrive(Window& w, int id, std::int64_t due, GenOp op);
  void dispatch(std::size_t slot);
  void send_one(std::size_t slot, std::size_t send_index);
  void finish(std::size_t slot, const mrp::smr::MsgClientReply& reply,
              ProcessId from);
  void scan_timeouts(std::int64_t now);
  Window* window(int id);
  static constexpr std::size_t kSessions = 4096;

  Workload& workload_;
  std::vector<ProcessId> replicas_;
  std::vector<Slot> slots_;
  std::deque<std::size_t> free_;
  std::deque<Arrival> backlog_;
  std::map<int, Window> windows_;
  std::vector<GenTrace> traces_;
  std::uint64_t issued_ = 0;
  std::int64_t retry_timeout_ns_ = 3'000'000'000;

  // Pacer: next due time published by the loop (INT64_MAX = none), a flag
  // so at most one tick is queued, and the pacer's own CPU usage.
  std::atomic<std::int64_t> next_due_{INT64_MAX};
  std::atomic<bool> tick_queued_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> pacer_user_us_{0}, pacer_sys_us_{0};
  std::thread pacer_;  // last: joined before the members it reads go away
};

}  // namespace perfbench
