// The benchmark workloads: what each deploys on the ThreadRuntime
// backend (3 replica loops + the generator loop + the registry oracle in one
// OS process, loopback TCP between them), the seeded operation sequence the
// generator offers, and the correctness checks on replies and final state.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "coord/registry.hpp"
#include "runtime/thread_runtime.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace perfbench {

using mrp::Bytes;
using mrp::GroupId;
using mrp::ProcessId;

/// Fixed parameters of one workload (the values BENCHMARK.json records).
struct WorkloadConfig {
  std::string name;
  double fixed_rate = 0;    ///< ops/s of the latency window
  double p99_limit_ms = 0;  ///< the knee's latency limit
  double knee_hint = 0;     ///< knee search start; stress rate when traced
};

/// Returns null for an unknown workload name.
const WorkloadConfig* find_workload(const std::string& name);
const std::vector<WorkloadConfig>& all_workloads();

/// One operation as the generator offers it.
struct GenOp {
  mrp::smr::Request request;
  std::uint8_t type = 0;  ///< the service's op type (first byte of the op)
};

/// Operation source and reply checker. next() and check() run on the
/// generator's loop thread only.
class Workload {
 public:
  virtual ~Workload() = default;
  /// The k-th call returns the k-th operation of the seeded sequence.
  virtual GenOp next() = 0;
  /// One operation addressed to `group` (set-up probes: every ring must
  /// commit one before the deployment counts as serving).
  virtual GenOp probe(GroupId group) = 0;
  /// True when `result` is a correct reply to `op`.
  virtual bool check(const GenOp& op, const Bytes& result) = 0;
};

constexpr ProcessId kGeneratorPid = 500;

struct DeployOptions {
  std::uint64_t seed = 1;
  bool traced = false;      ///< instrumented replicas, codec, state machines
  std::string storage_dir;  ///< per-deployment directory (dlog-sync only)
};

/// One running deployment of a workload. Construction builds and starts
/// the cluster; destruction stops every loop thread. The storage directory
/// is left for the caller to remove (see ScratchSpace in main.cpp).
class Deployment {
 public:
  Deployment(const WorkloadConfig& config, const DeployOptions& options);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  mrp::runtime::ThreadCluster& cluster() { return *cluster_; }
  const std::vector<ProcessId>& replicas() const { return replicas_; }
  const std::vector<GroupId>& groups() const { return groups_; }
  /// The generator's operation source (touch it on the generator loop).
  Workload& workload() { return *workload_; }

  /// Waits until every replica executed `distinct` commands and checks the
  /// workload's state invariants (replica digests, conservation, log
  /// positions). Returns the failed checks; empty when all hold.
  std::vector<std::string> check_final(std::uint64_t distinct);

 private:
  WorkloadConfig config_;
  std::vector<ProcessId> replicas_;
  std::vector<GroupId> groups_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<mrp::runtime::ThreadCluster> cluster_;
  std::unique_ptr<mrp::coord::Registry> registry_;
};

/// Builds the workload's operation source from the seed (exposed so tests
/// can check that a seed reproduces its operation sequence).
std::unique_ptr<Workload> make_workload(const WorkloadConfig& config,
                                        std::uint64_t seed);

}  // namespace perfbench
