// Core identifier and payload types shared by every subsystem.
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace mrp {

/// Simulated time in nanoseconds since the start of the run.
using TimeNs = std::int64_t;

constexpr TimeNs kMicrosecond = 1'000;
constexpr TimeNs kMillisecond = 1'000'000;
constexpr TimeNs kSecond = 1'000'000'000;

constexpr double to_seconds(TimeNs t) { return static_cast<double>(t) / 1e9; }
constexpr double to_millis(TimeNs t) { return static_cast<double>(t) / 1e6; }
constexpr TimeNs from_millis(double ms) { return static_cast<TimeNs>(ms * 1e6); }
constexpr TimeNs from_micros(double us) { return static_cast<TimeNs>(us * 1e3); }
constexpr TimeNs from_seconds(double s) { return static_cast<TimeNs>(s * 1e9); }

/// Identifies a process (proposer/acceptor/learner/replica/client) in the
/// deployment. Dense non-negative integers assigned by the environment.
using ProcessId = std::int32_t;
constexpr ProcessId kNoProcess = -1;

/// Identifies a multicast group. Multi-Ring Paxos assigns one Ring Paxos
/// instance (ring) per group, so GroupId doubles as the ring identifier.
using GroupId = std::int32_t;

/// A consensus instance number within one ring. Instances start at 0 and are
/// decided in a (mostly) contiguous sequence.
using InstanceId = std::uint64_t;

/// Paxos round (ballot) number. Higher rounds pre-empt lower ones.
using Round = std::uint64_t;

/// Raw byte payloads carried by multicast values and commands.
using Bytes = std::vector<std::uint8_t>;

inline Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }
inline std::string to_string(const Bytes& b) { return std::string(b.begin(), b.end()); }

/// Immutable, cheaply-shareable payload. Multicast values circulate a ring
/// and are retained by acceptor logs and learner caches; sharing one buffer
/// keeps the simulator honest about memory without copying per hop.
class Payload {
 public:
  // Default-constructed payloads (decoder scratch, skip values, log record
  // temporaries) all alias one immutable empty buffer instead of allocating.
  Payload() : data_(empty_bytes()) {}
  explicit Payload(Bytes b) : data_(std::make_shared<const Bytes>(std::move(b))) {}
  explicit Payload(const std::string& s) : Payload(to_bytes(s)) {}

  const Bytes& bytes() const { return *data_; }
  std::size_t size() const { return data_->size(); }
  bool empty() const { return data_->empty(); }
  std::string as_string() const { return to_string(*data_); }

  friend bool operator==(const Payload& a, const Payload& b) {
    return *a.data_ == *b.data_;
  }

 private:
  static const std::shared_ptr<const Bytes>& empty_bytes() {
    static const std::shared_ptr<const Bytes> empty =
        std::make_shared<const Bytes>();
    return empty;
  }

  std::shared_ptr<const Bytes> data_;
};

/// Uniquely identifies a proposed value across the whole deployment:
/// (proposing process, per-proposer sequence number).
struct ValueId {
  ProcessId proposer = kNoProcess;
  std::uint64_t seq = 0;

  /// Wire layout (codec/fields.hpp).
  static void fields(auto& s, auto&& f) { f(s.proposer, s.seq); }
  friend bool operator==(const ValueId&, const ValueId&) = default;
  friend auto operator<=>(const ValueId&, const ValueId&) = default;
};

struct ValueIdHash {
  std::size_t operator()(const ValueId& v) const {
    return std::hash<std::uint64_t>()(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v.proposer)) << 40) ^ v.seq);
  }
};

}  // namespace mrp
