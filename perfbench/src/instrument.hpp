// Instrumentation of the traced run, all from outside the program: each
// piece wraps or subclasses a layer's public interface.
//
//   * timed_codec()      — a WireCodec that delegates to net::wire_codec()
//                          and times every encode and decode (net layer);
//   * TimedStateMachine  — a StateMachine decorator that times apply() per
//                          op type (service layer: mrpstore, dlog);
//   * TracedReplica      — an smr::ReplicaNode subclass that stamps
//                          admission, merged delivery and execution of each
//                          command and counts the commands per own
//                          multicast value (smr layer).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "runtime/thread_runtime.hpp"
#include "smr/replica.hpp"
#include "smr/state_machine.hpp"

namespace perfbench {

/// Trace id of a command: (session, seq) packed into one word.
inline std::uint64_t trace_id(mrp::smr::SessionId session, std::uint64_t seq) {
  return (session << 32) | (seq & 0xffffffffULL);
}

// --- net ---

mrp::runtime::WireCodec timed_codec();

struct CodecTotals {
  std::uint64_t encodes = 0, encode_ns = 0;
  std::uint64_t decodes = 0, decode_ns = 0;
};
/// Sum over every thread that ran the timed codec so far.
CodecTotals codec_totals();

// --- state machine ---

class TimedStateMachine final : public mrp::smr::StateMachine {
 public:
  static constexpr int kTypes = 16;  // op type = first byte of the op

  explicit TimedStateMachine(std::unique_ptr<mrp::smr::StateMachine> inner)
      : inner_(std::move(inner)) {}

  mrp::Bytes apply(mrp::GroupId group, const mrp::Bytes& op) override;
  mrp::Bytes snapshot() const override { return inner_->snapshot(); }
  void restore(const mrp::Bytes& s) override { inner_->restore(s); }

  mrp::smr::StateMachine& inner() { return *inner_; }
  /// Start and end of the most recent apply (steady-clock ns).
  std::int64_t last_start() const { return last_start_; }
  std::int64_t last_end() const { return last_end_; }
  /// Applies and their total ns, indexed by op type.
  const std::array<std::uint64_t, kTypes>& count() const { return count_; }
  const std::array<std::uint64_t, kTypes>& ns() const { return ns_; }

 private:
  std::unique_ptr<mrp::smr::StateMachine> inner_;
  std::int64_t last_start_ = 0;
  std::int64_t last_end_ = 0;
  std::array<std::uint64_t, kTypes> count_{};
  std::array<std::uint64_t, kTypes> ns_{};
};

/// The service state machine behind an optional TimedStateMachine.
mrp::smr::StateMachine& unwrap(mrp::smr::StateMachine& sm);

/// Steady-clock nanoseconds on the timeline every loop shares (the
/// ThreadCluster epoch is a steady_clock point too, so differences agree).
std::int64_t steady_ns();

// --- smr ---

class TracedReplica final : public mrp::smr::ReplicaNode {
 public:
  struct Stamps {
    std::int64_t admit = -1;
    std::int64_t deliver = -1;
    std::int64_t exec_start = -1;
    std::int64_t apply_start = -1;
    std::int64_t apply_end = -1;
    std::int64_t exec_end = -1;
  };

  using ReplicaNode::ReplicaNode;

  void on_start() override;

  /// Stamping is off until enabled (the counters always run).
  void set_stamping(bool on) { stamping_ = on; }
  const std::unordered_map<std::uint64_t, Stamps>& stamps() const {
    return stamps_;
  }
  /// Own multicast values delivered back, and the commands they carried.
  std::uint64_t own_values() const { return own_values_; }
  std::uint64_t own_value_commands() const { return own_value_commands_; }

 protected:
  void on_app_message(mrp::ProcessId from,
                      const mrp::runtime::Message& m) override;
  mrp::Bytes apply_command(mrp::GroupId group,
                           const mrp::smr::Command& c) override;
  void on_own_value_delivered(mrp::GroupId group,
                              const mrp::paxos::Value& v) override;

 private:
  bool stamping_ = false;
  std::unordered_map<std::uint64_t, Stamps> stamps_;
  std::uint64_t own_values_ = 0;
  std::uint64_t own_value_commands_ = 0;
};

}  // namespace perfbench
