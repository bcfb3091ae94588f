// Consensus core types shared by the Ring Paxos implementation and the
// storage layer: proposed values, per-instance acceptor records, and the
// Phase-1 value-selection rule.
//
// Rounds: the coordination service's view epochs are used directly as Paxos
// round numbers — each newly elected coordinator owns a strictly higher
// round than any predecessor, which is the only property Paxos needs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace mrp::paxos {

/// A value proposed to one consensus instance. `skip_count > 0` marks a
/// rate-leveling skip: the value is null and the *single* Phase 2 message
/// decides `skip_count` consecutive instances starting at its instance id
/// (Section 4, "the coordinator can propose to skip several consensus
/// instances in a single message").
struct Value {
  ValueId id;
  Payload payload;
  std::uint32_t skip_count = 0;

  bool is_skip() const { return skip_count > 0; }
  std::size_t wire_size() const { return 24 + payload.size(); }
  static void fields(auto& s, auto&& f) { f(s.id, s.skip_count, s.payload); }

  static Value skip(ValueId id, std::uint32_t count) {
    Value v;
    v.id = id;
    v.skip_count = count;
    return v;
  }
};

/// What an acceptor persists per accepted instance (the Phase 2B vote),
/// plus the decided flag learned when the decision circulates.
struct LogRecord {
  Round vround = 0;
  Value value;
  bool decided = false;
};

/// Phase 1B payload for one instance.
struct Promise {
  InstanceId instance = 0;
  Round vround = 0;
  Value value;
  bool decided = false;

  static void fields(auto& s, auto&& f) {
    f(s.instance, s.vround, s.value, s.decided);
  }
};

/// Phase-1 value-selection: given the promises of a quorum for one instance,
/// returns the value that must be (re-)proposed, or nullopt if any value may
/// be proposed (no acceptor in the quorum voted).
std::optional<Value> choose_phase1_value(const std::vector<Promise>& promises);

/// True iff `votes` (a bitmask over acceptor indexes) reaches a majority of
/// `total_acceptors`.
bool is_quorum(std::uint64_t votes, std::size_t total_acceptors);

/// Number of set bits in the vote mask.
int vote_count(std::uint64_t votes);

}  // namespace mrp::paxos
