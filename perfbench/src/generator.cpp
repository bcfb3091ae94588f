#include "generator.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>

#include "instrument.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kMs = 1'000'000;

void sleep_until_ns(std::int64_t t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(t % 1'000'000'000);
  // steady_clock is CLOCK_MONOTONIC on Linux, so the absolute deadline is
  // on the same timeline as steady_ns().
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

double tv_us(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
}

}  // namespace

Generator::Generator(mrp::runtime::Runtime& rt, Workload& workload,
                     std::vector<ProcessId> replicas)
    : Node(rt), workload_(workload), replicas_(std::move(replicas)),
      slots_(kSessions) {
  for (std::size_t i = 0; i < kSessions; ++i) free_.push_back(i);
}

Generator::~Generator() {
  stop_.store(true);
  if (pacer_.joinable()) pacer_.join();
}

void Generator::on_start() {
  every(5 * kMs, [this] { scan_timeouts(steady_ns()); });
  pacer_ = std::thread([this] { pace(); });
}

void Generator::pace() {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  while (!stop_.load(std::memory_order_acquire)) {
    const std::int64_t now = steady_ns();
    if (tick_queued_.load(std::memory_order_acquire)) {
      sleep_until_ns(now + 10'000);  // the loop has not run the last tick yet
      continue;
    }
    const std::int64_t due = next_due_.load(std::memory_order_acquire);
    if (due > now) {
      sleep_until_ns(std::min(due, now + kMs));  // re-read at least every ms
      continue;
    }
    tick_queued_.store(true, std::memory_order_release);
    rt().schedule(0, [this] { tick(); });
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    pacer_user_us_.store(static_cast<std::int64_t>(tv_us(ru.ru_utime)));
    pacer_sys_us_.store(static_cast<std::int64_t>(tv_us(ru.ru_stime)));
  }
}

Generator::Cpu Generator::cpu() const {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  Cpu c;
  c.user_us = tv_us(ru.ru_utime) + static_cast<double>(pacer_user_us_.load());
  c.sys_us = tv_us(ru.ru_stime) + static_cast<double>(pacer_sys_us_.load());
  c.loop_cpu_ns = static_cast<double>(ts.tv_sec) * 1e9 +
                  static_cast<double>(ts.tv_nsec);
  return c;
}

Generator::Window* Generator::window(int id) {
  auto it = windows_.find(id);
  return it == windows_.end() ? nullptr : &it->second;
}

void Generator::begin_window(int id, std::uint64_t seed, std::uint64_t stream,
                             double rate, double seconds, bool trace) {
  Window& w = windows_[id];
  w.schedule.emplace(seed, stream, rate);
  w.start = steady_ns() + kMs;
  w.end = w.start + static_cast<std::int64_t>(seconds * 1e9);
  w.next_due = w.start + w.schedule->next();
  w.trace = trace;
  w.report.offered_rate = rate;
  w.report.arrival_seconds = seconds;
  publish_next_due();
}

void Generator::begin_fixed(int id, std::vector<GenOp> ops) {
  Window& w = windows_[id];
  w.fixed = true;
  w.start = w.end = steady_ns();
  for (GenOp& op : ops) arrive(w, id, w.start, std::move(op));
  w.arrivals_over = true;
  w.report.backlog_at_end = w.unfinished;
}

bool Generator::window_done(int id) const {
  auto it = windows_.find(id);
  return it == windows_.end() ||
         (it->second.arrivals_over && it->second.unfinished == 0);
}

std::uint64_t Generator::unfinished() const {
  std::uint64_t n = backlog_.size();
  for (const Slot& s : slots_) n += s.busy ? 1 : 0;
  return n;
}

void Generator::publish_next_due() {
  std::int64_t next = INT64_MAX;
  for (const auto& [id, w] : windows_) {
    if (w.fixed || w.arrivals_over) continue;
    next = std::min(next, std::min(w.next_due, w.end));
  }
  next_due_.store(next, std::memory_order_release);
}

void Generator::tick() {
  tick_queued_.store(false, std::memory_order_release);
  const std::int64_t now = steady_ns();
  for (auto& [id, w] : windows_) {
    if (w.fixed || w.arrivals_over) continue;
    for (;;) {
      if (w.next_due >= w.end) {
        if (now >= w.end) {
          w.arrivals_over = true;
          w.report.backlog_at_end = w.unfinished;
        }
        break;
      }
      if (w.next_due > now) break;
      arrive(w, id, w.next_due, workload_.next());
      w.next_due = w.start + w.schedule->next();
    }
  }
  publish_next_due();
}

void Generator::arrive(Window& w, int id, std::int64_t due, GenOp op) {
  Arrival a{id, due, steady_ns(), std::move(op)};
  ++w.report.attempted;
  ++w.unfinished;
  w.report.gen_lag_us.push_back(static_cast<double>(a.arrived - due) / 1e3);
  if (free_.empty()) {
    backlog_.push_back(std::move(a));
    return;
  }
  const std::size_t slot = free_.front();
  free_.pop_front();
  slots_[slot].a = std::move(a);
  dispatch(slot);
}

void Generator::dispatch(std::size_t slot) {
  Slot& s = slots_[slot];
  s.busy = true;
  ++s.seq;
  ++issued_;
  s.cursor.assign(s.a.op.request.sends.size(), 0);
  s.deadline = steady_ns() + retry_timeout_ns_;
  Window* w = window(s.a.window);
  s.traced = w != nullptr && w->trace;
  if (s.traced) {
    GenTrace t;
    t.trace_id = trace_id(
        mrp::smr::make_session(id(), static_cast<std::uint32_t>(slot)), s.seq);
    t.stamps.due = s.a.due;
    t.stamps.arrived = s.a.arrived;
    s.trace_index = traces_.size();
    traces_.push_back(t);
  }
  for (std::size_t i = 0; i < s.cursor.size(); ++i) send_one(slot, i);
}

void Generator::send_one(std::size_t slot, std::size_t send_index) {
  Slot& s = slots_[slot];
  const mrp::smr::Request& req = s.a.op.request;
  const mrp::smr::Request::Send& target = req.sends[send_index];
  auto msg = std::make_shared<mrp::smr::MsgClientRequest>();
  msg->group = target.group;
  msg->command.session =
      mrp::smr::make_session(id(), static_cast<std::uint32_t>(slot));
  msg->command.seq = s.seq;
  msg->command.op = req.op;
  if (req.atomic) msg->command.groups = req.group_set();
  send(target.targets[s.cursor[send_index] % target.targets.size()],
       std::move(msg));
}

void Generator::on_message(ProcessId from, const mrp::runtime::Message& m) {
  if (m.kind() == mrp::smr::kMsgClientReply) {
    const auto& r = mrp::runtime::msg_cast<mrp::smr::MsgClientReply>(m);
    const std::size_t slot = r.session & 0xfffff;
    if (slot < kSessions && slots_[slot].busy && slots_[slot].seq == r.seq) {
      finish(slot, r, from);
    }
    return;
  }
  if (m.kind() == mrp::smr::kMsgClientBusy) {
    const auto& b = mrp::runtime::msg_cast<mrp::smr::MsgClientBusy>(m);
    const std::size_t slot = b.session & 0xfffff;
    if (slot >= kSessions || !slots_[slot].busy || slots_[slot].seq != b.seq) {
      return;
    }
    Slot& s = slots_[slot];
    if (Window* w = window(s.a.window)) ++w->report.busy_pushbacks;
    const auto& sends = s.a.op.request.sends;
    for (std::size_t i = 0; i < sends.size(); ++i) {
      if (sends[i].group != b.group) continue;
      const std::uint64_t seq = s.seq;
      after(std::max<mrp::TimeNs>(b.retry_after, kMs), [this, slot, seq, i] {
        Slot& again = slots_[slot];
        if (!again.busy || again.seq != seq) return;
        ++again.cursor[i];  // another candidate proposer may have room
        send_one(slot, i);
      });
    }
  }
}

void Generator::finish(std::size_t slot, const mrp::smr::MsgClientReply& reply,
                       ProcessId from) {
  Slot& s = slots_[slot];
  const std::int64_t now = steady_ns();
  // Always checked, also for a window already closed: checks may record
  // state (dLog's acked positions) that the final checks need.
  const bool ok = workload_.check(s.a.op, reply.result);
  if (Window* w = window(s.a.window)) {
    WindowReport& r = w->report;
    const double ms = static_cast<double>(now - s.a.due) / 1e6;
    if (ok) {
      ++r.committed;
      r.latency.add(ms);
    } else {
      ++r.wrong;
      r.latency.add_miss();
    }
    --w->unfinished;
  }
  if (s.traced && s.trace_index < traces_.size()) {
    traces_[s.trace_index].stamps.reply = now;
    traces_[s.trace_index].replier = from;
  }
  s.busy = false;
  if (!backlog_.empty()) {
    s.a = std::move(backlog_.front());
    backlog_.pop_front();
    dispatch(slot);
  } else {
    free_.push_back(slot);
  }
}

void Generator::scan_timeouts(std::int64_t now) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.busy || s.deadline > now) continue;
    if (Window* w = window(s.a.window)) ++w->report.retries;
    s.deadline = now + retry_timeout_ns_;
    for (std::size_t j = 0; j < s.cursor.size(); ++j) {
      ++s.cursor[j];
      send_one(i, j);
    }
  }
}

WindowReport Generator::close_window(int id) {
  Window* w = window(id);
  if (w == nullptr) return {};
  WindowReport& r = w->report;
  auto miss = [&] {
    ++r.missed;
    r.latency.add_miss();
  };
  for (Slot& s : slots_) {
    if (s.busy && s.a.window == id) {
      miss();
      s.a.window = -1;  // a late reply no longer counts for this window
    }
  }
  std::deque<Arrival> keep;
  for (Arrival& a : backlog_) {
    if (a.window == id) {
      miss();  // never sent: it is dropped, not issued
    } else {
      keep.push_back(std::move(a));
    }
  }
  backlog_.swap(keep);
  WindowReport out = std::move(r);
  windows_.erase(id);
  publish_next_due();
  return out;
}

std::vector<GenTrace> Generator::take_traces() {
  std::vector<GenTrace> out;
  out.swap(traces_);
  return out;
}

}  // namespace perfbench
