// Recovery protocol messages (kind range 610-629).
#pragma once

#include <string>

#include "codec/fields.hpp"
#include "common/types.hpp"
#include "runtime/message.hpp"
#include "storage/checkpoint_store.hpp"

namespace mrp::recovery {

constexpr int kMsgTrimQuery = 610;
constexpr int kMsgTrimReply = 611;
constexpr int kMsgCkptQuery = 612;
constexpr int kMsgCkptInfo = 613;
constexpr int kMsgCkptFetch = 614;
constexpr int kMsgCkptState = 615;

/// Ring coordinator asks a replica for its highest safe instance of `group`
/// (the durable-checkpoint entry k[x]_p, Section 5.2).
struct MsgTrimQuery final : runtime::Message {
  GroupId group = -1;
  static void fields(auto& s, auto&& f) { f(s.group); }
  int kind() const override { return kMsgTrimQuery; }
  std::size_t wire_size() const override { return 16; }
};

struct MsgTrimReply final : runtime::Message {
  GroupId group = -1;
  InstanceId safe = 0;         // k[x]_p from the last durable checkpoint
  std::string partition_key;   // identifies the replica's partition
  static void fields(auto& s, auto&& f) { f(s.group, s.safe, s.partition_key); }
  int kind() const override { return kMsgTrimReply; }
  std::size_t wire_size() const override { return 32 + partition_key.size(); }
};

/// Recovering replica asks a partition peer for its checkpoint identifier.
struct MsgCkptQuery final : runtime::Message {
  static void fields(auto&, auto&&) {}
  int kind() const override { return kMsgCkptQuery; }
  std::size_t wire_size() const override { return 8; }
};

struct MsgCkptInfo final : runtime::Message {
  bool has = false;
  storage::CheckpointTuple tuple;  // k_q
  std::uint64_t sequence = 0;
  static void fields(auto& s, auto&& f) { f(s.has, s.tuple, s.sequence); }
  int kind() const override { return kMsgCkptInfo; }
  std::size_t wire_size() const override { return 24 + tuple.size() * 16; }
};

/// Recovering replica fetches the state of the best checkpoint in Q_R.
struct MsgCkptFetch final : runtime::Message {
  static void fields(auto&, auto&&) {}
  int kind() const override { return kMsgCkptFetch; }
  std::size_t wire_size() const override { return 8; }
};

/// The full checkpoint (state transfer — wire size includes the state, so
/// the transfer consumes simulated bandwidth like the real thing).
struct MsgCkptState final : runtime::Message {
  bool has = false;
  storage::Checkpoint checkpoint;
  static void fields(auto& s, auto&& f) {
    f(s.has, codec::when(s.has, s.checkpoint));
  }
  int kind() const override { return kMsgCkptState; }
  std::size_t wire_size() const override {
    return 24 + (has ? checkpoint.wire_size() : 0);
  }
};

}  // namespace mrp::recovery
