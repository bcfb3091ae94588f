#include "instrument.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "net/wire.hpp"
#include "smr/command.hpp"

namespace perfbench {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- net ---

namespace {

// Per-thread counters: each loop thread writes only its own block (relaxed
// stores, no contention); codec_totals() sums the blocks.
struct CodecCounters {
  std::atomic<std::uint64_t> encodes{0}, encode_ns{0};
  std::atomic<std::uint64_t> decodes{0}, decode_ns{0};
};

std::mutex g_counters_mu;
std::vector<std::unique_ptr<CodecCounters>>& all_counters() {
  static std::vector<std::unique_ptr<CodecCounters>> v;
  return v;
}

CodecCounters& my_counters() {
  thread_local CodecCounters* mine = [] {
    std::lock_guard<std::mutex> lk(g_counters_mu);
    all_counters().push_back(std::make_unique<CodecCounters>());
    return all_counters().back().get();
  }();
  return *mine;
}

void bump(std::atomic<std::uint64_t>& a, std::uint64_t d) {
  a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

bool timed_encode(mrp::codec::Writer& w, const mrp::runtime::Message& m) {
  const std::int64_t t0 = steady_ns();
  const bool ok = mrp::net::wire_encode(w, m);
  CodecCounters& c = my_counters();
  bump(c.encodes, 1);
  bump(c.encode_ns, static_cast<std::uint64_t>(steady_ns() - t0));
  return ok;
}

mrp::runtime::MessagePtr timed_decode(int kind, mrp::codec::Reader& r) {
  const std::int64_t t0 = steady_ns();
  mrp::runtime::MessagePtr m = mrp::net::wire_decode(kind, r);
  CodecCounters& c = my_counters();
  bump(c.decodes, 1);
  bump(c.decode_ns, static_cast<std::uint64_t>(steady_ns() - t0));
  return m;
}

}  // namespace

mrp::runtime::WireCodec timed_codec() {
  return mrp::runtime::WireCodec{&timed_encode, &timed_decode};
}

CodecTotals codec_totals() {
  CodecTotals t;
  std::lock_guard<std::mutex> lk(g_counters_mu);
  for (const auto& c : all_counters()) {
    t.encodes += c->encodes.load(std::memory_order_relaxed);
    t.encode_ns += c->encode_ns.load(std::memory_order_relaxed);
    t.decodes += c->decodes.load(std::memory_order_relaxed);
    t.decode_ns += c->decode_ns.load(std::memory_order_relaxed);
  }
  return t;
}

// --- state machine ---

mrp::Bytes TimedStateMachine::apply(mrp::GroupId group, const mrp::Bytes& op) {
  const int type = op.empty() ? 0 : op[0] % kTypes;
  last_start_ = steady_ns();
  mrp::Bytes out = inner_->apply(group, op);
  last_end_ = steady_ns();
  ++count_[type];
  ns_[type] += static_cast<std::uint64_t>(last_end_ - last_start_);
  return out;
}

mrp::smr::StateMachine& unwrap(mrp::smr::StateMachine& sm) {
  auto* timed = dynamic_cast<TimedStateMachine*>(&sm);
  return timed != nullptr ? timed->inner() : sm;
}

// --- smr ---

void TracedReplica::on_start() {
  ReplicaNode::on_start();
  set_delivery_observer([this](mrp::GroupId, mrp::InstanceId,
                               const mrp::Payload& payload) {
    if (!stamping_ || payload.empty()) return;
    const std::int64_t t = steady_ns();
    for (const mrp::smr::Command& c :
         mrp::smr::decode_batch(payload.bytes()).commands) {
      Stamps& s = stamps_[trace_id(c.session, c.seq)];
      if (s.deliver < 0) s.deliver = t;  // first copy (multi-group: gather)
    }
  });
}

void TracedReplica::on_app_message(mrp::ProcessId from,
                                   const mrp::runtime::Message& m) {
  if (stamping_ && m.kind() == mrp::smr::kMsgClientRequest) {
    const auto& req = mrp::runtime::msg_cast<mrp::smr::MsgClientRequest>(m);
    Stamps& s = stamps_[trace_id(req.command.session, req.command.seq)];
    if (s.admit < 0) s.admit = steady_ns();
  }
  ReplicaNode::on_app_message(from, m);
}

mrp::Bytes TracedReplica::apply_command(mrp::GroupId group,
                                        const mrp::smr::Command& c) {
  if (!stamping_) return ReplicaNode::apply_command(group, c);
  const std::int64_t t0 = steady_ns();
  mrp::Bytes out = ReplicaNode::apply_command(group, c);
  const std::int64_t t1 = steady_ns();
  Stamps& s = stamps_[trace_id(c.session, c.seq)];
  s.exec_start = t0;
  s.exec_end = t1;
  if (auto* timed = dynamic_cast<TimedStateMachine*>(&state_machine())) {
    s.apply_start = timed->last_start();
    s.apply_end = timed->last_end();
  }
  return out;
}

void TracedReplica::on_own_value_delivered(mrp::GroupId group,
                                           const mrp::paxos::Value& v) {
  if (!v.is_skip() && !v.payload.empty()) {
    ++own_values_;
    own_value_commands_ +=
        mrp::smr::decode_batch(v.payload.bytes()).commands.size();
  }
  ReplicaNode::on_own_value_delivered(group, v);
}

}  // namespace perfbench
