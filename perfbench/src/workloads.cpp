#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "dlog/client.hpp"
#include "dlog/dlog.hpp"
#include "generator.hpp"
#include "instrument.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/partitioning.hpp"
#include "mrpstore/store.hpp"
#include "net/wire.hpp"
#include "workload/distributions.hpp"

namespace perfbench {

using namespace mrp;

const std::vector<WorkloadConfig>& all_workloads() {
  // Rates and limits are fixed after measuring on a 4-core x86 box; the
  // knee hint only starts the search (and sets the traced stress rate).
  static const std::vector<WorkloadConfig> table = {
      {"store-mix", 10000, 20.0, 38000},
      {"dlog-sync", 2500, 50.0, 5000},
  };
  return table;
}

const WorkloadConfig* find_workload(const std::string& name) {
  for (const WorkloadConfig& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

constexpr GroupId kPartition0 = 0;
constexpr GroupId kPartition1 = 1;
constexpr GroupId kThirdRing = 2;  // store: global ring; dlog: common ring

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t v = rng.next();
    for (std::size_t j = i; j < std::min(n, i + 8); ++j) {
      b[j] = static_cast<std::uint8_t>(v);
      v >>= 8;
    }
  }
  return b;
}

// --- store-mix ---

constexpr std::uint64_t kKeys = 10'000;
constexpr std::size_t kValueBytes = 1024;
constexpr int kAccounts = 64;
constexpr std::int64_t kInitialBalance = 1000;
constexpr std::uint32_t kScanLimit = 10;

std::string store_key(std::uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "k%07llu", static_cast<unsigned long long>(i));
  return buf;
}

std::string account_key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "acct%03d", i);
  return buf;
}

Bytes preload_value(std::uint64_t key, std::uint64_t seed) {
  Bytes v(kValueBytes);
  for (std::size_t j = 0; j < kValueBytes; ++j) {
    v[j] = static_cast<std::uint8_t>(key * 131 + j * 7 + seed);
  }
  return v;
}

mrpstore::StoreDeployment store_routing(const std::vector<ProcessId>& replicas) {
  mrpstore::StoreDeployment d;
  d.partition_groups = {kPartition0, kPartition1};
  d.global_group = kThirdRing;
  // Both partitions are co-located on the same three replicas.
  d.replicas = {replicas, replicas};
  d.partitioner = std::make_shared<mrpstore::HashPartitioner>(2);
  d.schema_version = 0;  // no schema installed at the replicas
  return d;
}

class StoreWorkload final : public Workload {
 public:
  StoreWorkload(std::uint64_t seed, const std::vector<ProcessId>& replicas)
      : rng_(seed), client_(store_routing(replicas)), zipf_(kKeys),
        partitioner_(2) {
    for (int i = 0; i < kAccounts; ++i) {
      const std::string k = account_key(i);
      accounts_[partitioner_.partition_for_key(k)].push_back(k);
    }
  }

  GenOp next() override {
    GenOp g;
    const std::uint64_t roll = rng_.next_below(100);
    const std::string key = store_key(zipf_.next(rng_));
    if (roll < 85) {
      g.request = client_.read(key);
    } else if (roll < 95) {
      g.request = client_.update(key, random_bytes(rng_, kValueBytes));
    } else if (roll < 98) {
      g.request = client_.scan(key, "", kScanLimit);
    } else {
      // Cross-partition: one account from each partition, random direction.
      const auto& a = accounts_[0];
      const auto& b = accounts_[1];
      std::string from = a[rng_.next_below(a.size())];
      std::string to = b[rng_.next_below(b.size())];
      if (rng_.next_below(2) == 1) std::swap(from, to);
      g.request = client_.transfer(
          from, to, static_cast<std::int64_t>(1 + rng_.next_below(100)));
    }
    g.type = g.request.op[0];
    return g;
  }

  GenOp probe(GroupId group) override {
    GenOp g;
    g.request = group == kThirdRing
                    ? client_.scan(store_key(0), "", kScanLimit)
                    : client_.read(key_in_partition(group));
    g.type = g.request.op[0];
    return g;
  }

  bool check(const GenOp& op, const Bytes& result) override {
    const mrpstore::Result r = mrpstore::decode_result(result);
    if (r.status != mrpstore::Status::kOk) return false;  // incl. stale
    switch (static_cast<mrpstore::OpType>(op.type)) {
      case mrpstore::OpType::kRead:
        return r.value.size() == kValueBytes;
      case mrpstore::OpType::kUpdate:
        return true;
      case mrpstore::OpType::kScan: {
        if (r.entries.empty() || r.entries.size() > kScanLimit) return false;
        for (std::size_t i = 0; i < r.entries.size(); ++i) {
          if (r.entries[i].second.size() != kValueBytes) return false;
          if (i > 0 && !(r.entries[i - 1].first < r.entries[i].first)) {
            return false;
          }
        }
        return true;
      }
      case mrpstore::OpType::kTransfer:
        return r.entries.size() == 2;  // both accounts are co-located
      default:
        return false;
    }
  }

  static std::vector<std::string> accounts() {
    std::vector<std::string> out;
    for (int i = 0; i < kAccounts; ++i) out.push_back(account_key(i));
    return out;
  }

 private:
  std::string key_in_partition(GroupId group) const {
    for (std::uint64_t i = 0;; ++i) {
      if (partitioner_.partition_for_key(store_key(i)) == group) {
        return store_key(i);
      }
    }
  }

  Rng rng_;
  mrpstore::StoreClient client_;
  workload::ScrambledZipfianGenerator zipf_;
  mrpstore::HashPartitioner partitioner_;
  std::map<int, std::vector<std::string>> accounts_;
};

std::unique_ptr<smr::StateMachine> make_store_sm(std::uint64_t seed) {
  auto sm = std::make_unique<mrpstore::KvStateMachine>();
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    sm->preload(store_key(i), preload_value(i, seed));
  }
  for (int i = 0; i < kAccounts; ++i) {
    sm->preload(account_key(i), to_bytes(std::to_string(kInitialBalance)));
  }
  return sm;
}

// --- dlog-sync ---

// Small entries keep the run's synced write volume low: with 1 KiB entries
// a run writes and then deletes about 600 MB, and on a shared virtual disk
// that slows the fsyncs of the runs that follow.
constexpr std::size_t kEntryBytes = 128;

dlog::DLogDeployment dlog_routing(const std::vector<ProcessId>& servers) {
  dlog::DLogDeployment d;
  d.log_groups = {kPartition0, kPartition1};
  d.common_group = kThirdRing;
  d.servers = servers;
  d.num_logs = 2;
  return d;
}

class DlogWorkload final : public Workload {
 public:
  DlogWorkload(std::uint64_t seed, const std::vector<ProcessId>& servers)
      : rng_(seed), client_(dlog_routing(servers)) {}

  GenOp next() override {
    GenOp g;
    Bytes data = random_bytes(rng_, kEntryBytes);
    if (rng_.next_below(100) < 90) {
      g.request = client_.append(
          static_cast<dlog::LogId>(rng_.next_below(2)), std::move(data));
    } else {
      g.request = client_.multi_append({0, 1}, std::move(data));
    }
    g.type = g.request.op[0];
    return g;
  }

  GenOp probe(GroupId group) override {
    GenOp g;
    Bytes data = random_bytes(rng_, kEntryBytes);
    g.request = group == kThirdRing
                    ? client_.multi_append({0, 1}, std::move(data))
                    : client_.append(static_cast<dlog::LogId>(group),
                                     std::move(data));
    g.type = g.request.op[0];
    return g;
  }

  bool check(const GenOp& op, const Bytes& result) override {
    const dlog::Result r = dlog::decode_result(result);
    if (r.status != dlog::Status::kOk) return false;
    const bool multi =
        static_cast<dlog::OpType>(op.type) == dlog::OpType::kMultiAppend;
    if (r.positions.size() != (multi ? 2u : 1u)) return false;
    for (const auto& [log, pos] : r.positions) {
      if (log > 1) return false;
      acked_[log].push_back(pos);
    }
    return true;
  }

  /// Acked positions per log (generator loop only).
  const std::map<dlog::LogId, std::vector<dlog::Position>>& acked() const {
    return acked_;
  }

 private:
  Rng rng_;
  dlog::DLogClient client_;
  std::map<dlog::LogId, std::vector<dlog::Position>> acked_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const WorkloadConfig& config,
                                        std::uint64_t seed) {
  const std::vector<ProcessId> replicas = {1, 2, 3};
  // The operation stream gets its own seed lane (the arrival schedule uses
  // PoissonSchedule streams of the same seed).
  const std::uint64_t op_seed = seed * 0x9e3779b97f4a7c15ULL + 0x5eed;
  if (config.name == "store-mix") {
    return std::make_unique<StoreWorkload>(op_seed, replicas);
  }
  return std::make_unique<DlogWorkload>(op_seed, replicas);
}

Deployment::Deployment(const WorkloadConfig& config,
                       const DeployOptions& options)
    : config_(config), replicas_({1, 2, 3}) {
  const bool dlog = config.name == "dlog-sync";
  groups_ = {kPartition0, kPartition1, kThirdRing};
  workload_ = make_workload(config, options.seed);

  runtime::ThreadClusterOptions copts;
  copts.seed = options.seed;
  copts.codec = options.traced ? timed_codec() : net::wire_codec();
  if (dlog) copts.storage_dir = options.storage_dir;
  cluster_ = std::make_unique<runtime::ThreadCluster>(copts);
  registry_ = std::make_unique<coord::Registry>(
      cluster_->add_oracle(coord::kRegistrySender), 100 * kMillisecond);

  multiring::NodeConfig node_cfg;
  node_cfg.merge_m = 1;
  for (GroupId g : groups_) {
    coord::RingConfig rc;
    rc.ring = g;
    rc.order = replicas_;
    rc.acceptors = {replicas_.begin(), replicas_.end()};
    registry_->create_ring(rc);

    ringpaxos::RingParams rp;
    // Rate leveling (the paper's Delta = 5 ms, lambda = 9000): idle rings
    // keep the deterministic merge moving with skip instances.
    rp.skip_interval = 5 * kMillisecond;
    rp.lambda = 9000;
    if (dlog) {
      rp.write_mode = storage::WriteMode::Sync;
      rp.disk_index = g;  // one log file per ring
    }
    node_cfg.rings.push_back(multiring::RingSub{g, rp, true});
  }

  smr::ReplicaOptions ropts;
  // Periodic checkpoints and trims are off: one would land at a different
  // phase of every run. Recovery is not what this benchmark measures.
  ropts.checkpoint.interval = 0;
  ropts.trim.interval = 0;

  const std::uint64_t seed = options.seed;
  const bool traced = options.traced;
  smr::StateMachineFactory factory =
      [dlog, seed, traced](runtime::Runtime& rt,
                           ProcessId self) -> std::unique_ptr<smr::StateMachine> {
    std::unique_ptr<smr::StateMachine> sm;
    if (dlog) {
      sm = std::make_unique<dlog::LogStateMachine>(
          rt, self, std::vector<dlog::LogId>{0, 1},
          dlog::LogStateMachineOptions{});
    } else {
      sm = make_store_sm(seed);
    }
    if (traced) return std::make_unique<TimedStateMachine>(std::move(sm));
    return sm;
  };

  coord::Registry* registry = registry_.get();
  for (ProcessId r : replicas_) {
    cluster_->add_local(r, [=](runtime::Runtime& rt)
                               -> std::unique_ptr<runtime::Node> {
      if (traced) {
        return std::make_unique<TracedReplica>(rt, registry, node_cfg,
                                               factory, ropts);
      }
      return std::make_unique<smr::ReplicaNode>(rt, registry, node_cfg,
                                                factory, ropts);
    });
  }
  Workload* wl = workload_.get();
  std::vector<ProcessId> reps = replicas_;
  cluster_->add_local(kGeneratorPid, [wl, reps](runtime::Runtime& rt) {
    return std::make_unique<Generator>(rt, *wl, reps);
  });
  cluster_->start();
}

Deployment::~Deployment() {
  cluster_->stop();
  registry_.reset();
  cluster_.reset();
  // Hand the freed heap back, so a run's peak RSS is that of its largest
  // deployment rather than depending on how earlier ones fragmented it.
  malloc_trim(0);
}

std::vector<std::string> Deployment::check_final(std::uint64_t distinct) {
  std::vector<std::string> failures;
  auto replica = [](runtime::Node* n) -> smr::ReplicaNode& {
    return dynamic_cast<smr::ReplicaNode&>(*n);
  };

  // Exactly-once: every replica executes each distinct command once. A
  // replica may still be applying the tail of the run, so wait for it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::vector<std::uint64_t> executed(replicas_.size());
  for (;;) {
    bool all = true;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      cluster_->call(replicas_[i], [&](runtime::Node* n) {
        executed[i] = replica(n).executed();
      });
      all = all && executed[i] >= distinct;
    }
    if (all || std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (executed[i] != distinct) {
      failures.push_back("replica " + std::to_string(replicas_[i]) +
                         " executed " + std::to_string(executed[i]) +
                         " commands, expected " + std::to_string(distinct));
    }
  }

  std::vector<std::uint64_t> digests;
  if (config_.name == "store-mix") {
    const std::vector<std::string> accounts = StoreWorkload::accounts();
    for (ProcessId r : replicas_) {
      std::int64_t total = 0;
      cluster_->call(r, [&](runtime::Node* n) {
        auto& kv = dynamic_cast<mrpstore::KvStateMachine&>(
            unwrap(replica(n).state_machine()));
        digests.push_back(kv.digest());
        for (const std::string& a : accounts) {
          const auto v = kv.get(a);
          total += v ? std::stoll(mrp::to_string(*v)) : 0;
        }
      });
      if (total != kAccounts * kInitialBalance) {
        failures.push_back("replica " + std::to_string(r) +
                           " account total " + std::to_string(total) +
                           " != " +
                           std::to_string(kAccounts * kInitialBalance));
      }
    }
  } else if (config_.name == "dlog-sync") {
    std::map<dlog::LogId, std::vector<dlog::Position>> acked;
    cluster_->call(kGeneratorPid, [&](runtime::Node*) {
      acked = dynamic_cast<DlogWorkload&>(*workload_).acked();
    });
    std::map<dlog::LogId, dlog::Position> next;
    for (ProcessId r : replicas_) {
      cluster_->call(r, [&](runtime::Node* n) {
        auto& log = dynamic_cast<dlog::LogStateMachine&>(
            unwrap(replica(n).state_machine()));
        digests.push_back(log.digest());
        for (dlog::LogId l : {0u, 1u}) next[l] = log.next_position(l);
      });
    }
    for (auto& [log, positions] : acked) {
      std::sort(positions.begin(), positions.end());
      bool ok = positions.size() == next[log];
      for (std::size_t i = 0; ok && i < positions.size(); ++i) {
        ok = positions[i] == i;  // unique and gap-free from 0
      }
      if (!ok) {
        failures.push_back("log " + std::to_string(log) + ": " +
                           std::to_string(positions.size()) +
                           " acked positions are not exactly 0.." +
                           std::to_string(next[log]) + "-1");
      }
    }
  }
  for (std::size_t i = 1; i < digests.size(); ++i) {
    if (digests[i] != digests[0]) {
      failures.push_back("replica " + std::to_string(replicas_[i]) +
                         " state digest differs from replica " +
                         std::to_string(replicas_[0]));
    }
  }
  return failures;
}

}  // namespace perfbench
