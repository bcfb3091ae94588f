// Loopback ring smoke test: the same protocol objects the sim tests drive —
// Registry, three ReplicaNodes, a closed-loop ClientNode — deployed on the
// ThreadRuntime backend: one event-loop thread per process, every message
// serialized through net/wire onto real loopback TCP sockets.
//
// This is deliberately a smoke test (does consensus make progress, is
// execution exactly-once, do all replicas converge), not a perf test —
// fig11_realnet covers throughput/latency. One case runs dLog with Sync
// acceptor logs on disk, the write path behind the thread backend's group
// commit.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coord/registry.hpp"
#include "dlog/client.hpp"
#include "dlog/dlog.hpp"
#include "net/wire.hpp"
#include "runtime/thread_runtime.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace mrp {
namespace {

class CounterSm final : public smr::StateMachine {
 public:
  Bytes apply(GroupId, const Bytes& op) override {
    if (mrp::to_string(op) == "inc") ++value_;
    return to_bytes(std::to_string(value_));
  }
  Bytes snapshot() const override { return to_bytes(std::to_string(value_)); }
  void restore(const Bytes& s) override {
    value_ = std::stoll(mrp::to_string(s));
  }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class ThreadRingTest : public ::testing::Test {
 protected:
  static constexpr GroupId kRing = 0;
  static constexpr ProcessId kClient = 500;

  runtime::ThreadClusterOptions cluster_options() {
    runtime::ThreadClusterOptions o;
    o.seed = 99;
    o.codec = net::wire_codec();
    return o;
  }

  /// Polls `pred` (cheap, cross-thread safe) until it holds or `seconds` of
  /// real time elapse.
  static bool wait_for(const std::function<bool()>& pred, int seconds) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
  }
};

TEST_F(ThreadRingTest, ThreeProcessRingDecidesAndConverges) {
  runtime::ThreadCluster cluster(cluster_options());

  // The registry is an oracle: timers + outgoing watch notifications, no
  // inbound handler. Protocol processes call into it directly (its methods
  // are mutex-guarded for exactly this deployment).
  coord::Registry registry(cluster.add_oracle(coord::kRegistrySender),
                           50 * kMillisecond);

  coord::RingConfig cfg;
  cfg.ring = kRing;
  cfg.order = {1, 2, 3};
  cfg.acceptors = {1, 2, 3};
  registry.create_ring(cfg);

  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, {}, true});
  for (ProcessId r : {1, 2, 3}) {
    cluster.add_local(r, [&registry, node_cfg](runtime::Runtime& rt) {
      return std::make_unique<smr::ReplicaNode>(
          rt, &registry, node_cfg,
          smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
            return std::make_unique<CounterSm>();
          }),
          smr::ReplicaOptions{});
    });
  }

  static constexpr int kTarget = 25;
  std::atomic<int> done{0};
  cluster.add_local(kClient, [&done](runtime::Runtime& rt) {
    smr::ClientNode::Options opts;
    opts.workers = 1;
    opts.retry_timeout = kSecond;
    return std::make_unique<smr::ClientNode>(
        rt, opts,
        smr::ClientNode::NextFn(
            [&done](std::uint32_t) -> std::optional<smr::Request> {
              if (done.load() >= kTarget) return std::nullopt;
              return smr::Request::single(kRing, {1, 2, 3}, to_bytes("inc"));
            }),
        smr::ClientNode::DoneFn(
            [&done](const smr::Completion&) { done.fetch_add(1); }));
  });

  cluster.start();
  ASSERT_TRUE(wait_for([&done] { return done.load() >= kTarget; }, 60))
      << "ring made no progress over loopback TCP: " << done.load() << "/"
      << kTarget << " completions";

  // Exactly-once execution: every replica's counter converges to the number
  // of completed commands (retries deduplicate server-side).
  for (ProcessId r : {1, 2, 3}) {
    ASSERT_TRUE(wait_for(
        [&cluster, r] {
          std::int64_t v = 0;
          cluster.call(r, [&v](runtime::Node* n) {
            auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
            v = dynamic_cast<CounterSm&>(replica.state_machine()).value();
          });
          return v >= kTarget;
        },
        30))
        << "replica " << r << " did not converge";
    cluster.call(r, [r](runtime::Node* n) {
      auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
      EXPECT_EQ(dynamic_cast<CounterSm&>(replica.state_machine()).value(),
                kTarget)
          << "replica " << r << " over-executed (dedup broken)";
    });
  }
  cluster.stop();
}

TEST_F(ThreadRingTest, AtomicMultiGroupOverLoopbackTcp) {
  // Two rings, every process subscribing both: an atomic multi-group
  // command travels as one copy per ring over real TCP, is gathered at each
  // replica and executes exactly once — interleaved with single-ring
  // commands from the same sessions (the overtaking case the exact dedup
  // exists for), all on the threaded backend under TSan.
  static constexpr GroupId kRingB = 1;
  runtime::ThreadCluster cluster(cluster_options());
  coord::Registry registry(cluster.add_oracle(coord::kRegistrySender),
                           50 * kMillisecond);

  for (GroupId g : {kRing, kRingB}) {
    coord::RingConfig cfg;
    cfg.ring = g;
    cfg.order = {1, 2, 3};
    cfg.acceptors = {1, 2, 3};
    registry.create_ring(cfg);
  }

  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, {}, true});
  node_cfg.rings.push_back(multiring::RingSub{kRingB, {}, true});
  for (ProcessId r : {1, 2, 3}) {
    cluster.add_local(r, [&registry, node_cfg](runtime::Runtime& rt) {
      return std::make_unique<smr::ReplicaNode>(
          rt, &registry, node_cfg,
          smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
            return std::make_unique<CounterSm>();
          }),
          smr::ReplicaOptions{});
    });
  }

  static constexpr int kTarget = 30;
  std::atomic<int> done{0};
  cluster.add_local(kClient, [&done](runtime::Runtime& rt) {
    smr::ClientNode::Options opts;
    opts.workers = 2;
    opts.retry_timeout = kSecond;
    return std::make_unique<smr::ClientNode>(
        rt, opts,
        smr::ClientNode::NextFn(
            [n = 0](std::uint32_t) mutable -> std::optional<smr::Request> {
              // Bound the *issued* count: with two workers a done-count
              // bound would let one extra request slip in flight.
              if (n >= kTarget) return std::nullopt;
              const int k = n++;
              smr::Request req;
              req.op = to_bytes("inc");
              if (k % 3 == 0) {
                // Atomic multi-group: one copy per ring, same identity.
                req.sends.push_back(smr::Request::Send{kRing, {1, 2, 3}});
                req.sends.push_back(smr::Request::Send{kRingB, {1, 2, 3}});
                req.atomic = true;
              } else {
                req.sends.push_back(
                    smr::Request::Send{k % 3 == 1 ? kRing : kRingB, {1, 2, 3}});
              }
              req.expected_partitions = 1;  // all replicas answer with tag 0
              return req;
            }),
        smr::ClientNode::DoneFn(
            [&done](const smr::Completion&) { done.fetch_add(1); }));
  });

  cluster.start();
  ASSERT_TRUE(wait_for([&done] { return done.load() >= kTarget; }, 60))
      << "multi-group mix stalled over loopback TCP: " << done.load() << "/"
      << kTarget << " completions";

  // Exactly-once: a command addressed to both rings is delivered twice per
  // replica but must bump the counter once, so every replica converges to
  // exactly the completion count.
  for (ProcessId r : {1, 2, 3}) {
    ASSERT_TRUE(wait_for(
        [&cluster, r] {
          std::int64_t v = 0;
          cluster.call(r, [&v](runtime::Node* n) {
            auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
            v = dynamic_cast<CounterSm&>(replica.state_machine()).value();
          });
          return v >= kTarget;
        },
        30))
        << "replica " << r << " did not converge";
    cluster.call(r, [r](runtime::Node* n) {
      auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
      EXPECT_EQ(dynamic_cast<CounterSm&>(replica.state_machine()).value(),
                kTarget)
          << "replica " << r
          << " over-executed a multi-group command (gather dedup broken)";
    });
  }
  cluster.stop();
}

TEST_F(ThreadRingTest, AutoHealAfterHardKillOverLoopbackTcp) {
  // The full self-healing sequence on real threads + sockets: one acceptor's
  // loop thread is permanently killed mid-load (ThreadCluster::stop_local —
  // its peers see a dead socket, the registry's failure detector sees a dead
  // heartbeat), the registry drafts the standby, the standby catches up from
  // the union of the surviving acceptors' logs over TCP and activates, and
  // the closed loop keeps completing increments exactly once throughout.
  runtime::ThreadCluster cluster(cluster_options());
  coord::Registry registry(cluster.add_oracle(coord::kRegistrySender),
                           50 * kMillisecond);

  coord::RingConfig cfg;
  cfg.ring = kRing;
  cfg.order = {1, 2, 3, 4};
  cfg.acceptors = {1, 2, 3};
  cfg.standbys = {4};  // member + learner from birth, acceptor on demand
  cfg.fd.auto_heal = true;
  cfg.fd.suspect_grace = 300 * kMillisecond;
  registry.create_ring(cfg);

  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, {}, true});
  for (ProcessId r : {1, 2, 3, 4}) {
    cluster.add_local(r, [&registry, node_cfg](runtime::Runtime& rt) {
      return std::make_unique<smr::ReplicaNode>(
          rt, &registry, node_cfg,
          smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
            return std::make_unique<CounterSm>();
          }),
          smr::ReplicaOptions{});
    });
  }

  static constexpr int kTarget = 80;
  std::atomic<int> done{0};
  cluster.add_local(kClient, [&done](runtime::Runtime& rt) {
    smr::ClientNode::Options opts;
    opts.workers = 2;
    opts.retry_timeout = kSecond;
    return std::make_unique<smr::ClientNode>(
        rt, opts,
        smr::ClientNode::NextFn(
            [n = 0](std::uint32_t) mutable -> std::optional<smr::Request> {
              if (n >= kTarget) return std::nullopt;
              ++n;
              // Address the replicas that stay up; 2 serves as a pure
              // acceptor until it is killed.
              return smr::Request::single(kRing, {1, 3, 4}, to_bytes("inc"));
            }),
        smr::ClientNode::DoneFn(
            [&done](const smr::Completion&) { done.fetch_add(1); }));
  });

  cluster.start();
  ASSERT_TRUE(wait_for([&done] { return done.load() >= 20; }, 60))
      << "no progress before the kill";

  cluster.stop_local(2);  // permanent: joined, peers see it dead

  ASSERT_TRUE(wait_for([&registry] { return registry.heal_count() >= 1; }, 30))
      << "registry never drafted the standby after the hard kill";
  ASSERT_TRUE(wait_for([&done] { return done.load() >= kTarget; }, 60))
      << "closed loop stalled across the heal: " << done.load() << "/"
      << kTarget;

  // The drafted standby is a live acceptor of the healed basis...
  const coord::RingView view = registry.current_view(kRing);
  EXPECT_EQ(view.configured_acceptors, (std::vector<ProcessId>{1, 3, 4}));
  EXPECT_FALSE(view.contains(2));
  cluster.call(4, [](runtime::Node* n) {
    auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
    EXPECT_TRUE(replica.handler(kRing)->is_acceptor())
        << "standby never activated";
  });
  // ...and execution stayed exactly-once through kill + view change: every
  // survivor converges to exactly the completion count.
  for (ProcessId r : {1, 3, 4}) {
    ASSERT_TRUE(wait_for(
        [&cluster, r] {
          std::int64_t v = 0;
          cluster.call(r, [&v](runtime::Node* n) {
            auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
            v = dynamic_cast<CounterSm&>(replica.state_machine()).value();
          });
          return v >= kTarget;
        },
        30))
        << "replica " << r << " did not converge after the heal";
    cluster.call(r, [r](runtime::Node* n) {
      auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
      EXPECT_EQ(dynamic_cast<CounterSm&>(replica.state_machine()).value(),
                kTarget)
          << "replica " << r << " over-executed across the heal";
    });
  }
  cluster.stop();
}

TEST_F(ThreadRingTest, MultiWorkerLoadMakesProgress) {
  runtime::ThreadCluster cluster(cluster_options());
  coord::Registry registry(cluster.add_oracle(coord::kRegistrySender),
                           50 * kMillisecond);

  coord::RingConfig cfg;
  cfg.ring = kRing;
  cfg.order = {1, 2, 3};
  cfg.acceptors = {1, 2, 3};
  registry.create_ring(cfg);

  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, {}, true});
  for (ProcessId r : {1, 2, 3}) {
    cluster.add_local(r, [&registry, node_cfg](runtime::Runtime& rt) {
      return std::make_unique<smr::ReplicaNode>(
          rt, &registry, node_cfg,
          smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
            return std::make_unique<CounterSm>();
          }),
          smr::ReplicaOptions{});
    });
  }

  smr::ClientNode* client = nullptr;
  cluster.add_local(kClient, [&client](runtime::Runtime& rt) {
    smr::ClientNode::Options opts;
    opts.workers = 8;
    opts.retry_timeout = kSecond;
    auto node = std::make_unique<smr::ClientNode>(
        rt, opts,
        smr::ClientNode::NextFn([](std::uint32_t) {
          return smr::Request::single(kRing, {1, 2, 3}, to_bytes("inc"));
        }),
        smr::ClientNode::DoneFn(nullptr));
    client = node.get();
    return node;
  });

  cluster.start();
  ASSERT_TRUE(wait_for(
      [&cluster, &client] {
        std::uint64_t completed = 0;
        cluster.call(kClient, [&](runtime::Node*) {
          completed = client->completed();
        });
        return completed >= 200;
      },
      60))
      << "8-worker closed loop stalled";
  cluster.call(kClient, [&client](runtime::Node*) { client->stop(); });
  cluster.stop();
}

TEST_F(ThreadRingTest, SyncAcceptorLogsOverLoopbackTcp) {
  // dLog with Sync acceptor logs on disk: every Phase 2 vote leaves only
  // after the group-committed WAL append holding its record is fdatasync'ed
  // (the paper's "sync" storage mode). Concurrent appenders keep several
  // votes in one loop turn, so commits must be shared between records.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("mrp_thread_ring_sync_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  static constexpr GroupId kCommon = 2;
  const std::vector<ProcessId> servers = {1, 2, 3};
  runtime::ThreadClusterOptions o = cluster_options();
  o.storage_dir = dir.string();
  {
    runtime::ThreadCluster cluster(o);
    coord::Registry registry(cluster.add_oracle(coord::kRegistrySender),
                             50 * kMillisecond);

    multiring::NodeConfig node_cfg;
    for (GroupId g : {GroupId{0}, GroupId{1}, kCommon}) {
      coord::RingConfig cfg;
      cfg.ring = g;
      cfg.order = servers;
      cfg.acceptors = {servers.begin(), servers.end()};
      registry.create_ring(cfg);

      ringpaxos::RingParams rp;
      rp.write_mode = storage::WriteMode::Sync;
      rp.disk_index = g;
      // Rate leveling keeps the merge moving while a ring is idle.
      rp.skip_interval = 5 * kMillisecond;
      rp.lambda = 9000;
      node_cfg.rings.push_back(multiring::RingSub{g, rp, true});
    }
    for (ProcessId r : servers) {
      cluster.add_local(r, [&registry, node_cfg](runtime::Runtime& rt) {
        return std::make_unique<smr::ReplicaNode>(
            rt, &registry, node_cfg,
            smr::StateMachineFactory([](runtime::Runtime& sm_rt,
                                        ProcessId self) {
              return std::make_unique<dlog::LogStateMachine>(
                  sm_rt, self, std::vector<dlog::LogId>{0, 1},
                  dlog::LogStateMachineOptions{});
            }),
            smr::ReplicaOptions{});
      });
    }

    dlog::DLogDeployment routing;
    routing.log_groups = {0, 1};
    routing.common_group = kCommon;
    routing.servers = servers;
    routing.num_logs = 2;
    const dlog::DLogClient log_client(routing);

    static constexpr int kTarget = 400;
    std::mutex mu;
    std::map<dlog::LogId, std::vector<dlog::Position>> acked;
    int bad_replies = 0;
    std::atomic<int> done{0};
    cluster.add_local(kClient, [&](runtime::Runtime& rt) {
      return std::make_unique<smr::ClientNode>(
          rt, dlog::DLogClient::client_options(8, 0, kSecond),
          smr::ClientNode::NextFn(
              [&log_client, n = 0](std::uint32_t) mutable
              -> std::optional<smr::Request> {
                if (n >= kTarget) return std::nullopt;
                const int k = n++;
                Bytes data = to_bytes("entry-" + std::to_string(k));
                if (k % 10 == 0) {
                  return log_client.multi_append({0, 1}, std::move(data));
                }
                return log_client.append(static_cast<dlog::LogId>(k % 2),
                                         std::move(data));
              }),
          smr::ClientNode::DoneFn([&](const smr::Completion& c) {
            {
              std::lock_guard<std::mutex> lk(mu);
              const dlog::Result res =
                  c.results.size() == 1
                      ? dlog::decode_result(c.results.begin()->second)
                      : dlog::Result{dlog::Status::kNotFound, {}, {}};
              if (res.status != dlog::Status::kOk || res.positions.empty()) {
                ++bad_replies;
              }
              for (const auto& [log, pos] : res.positions) {
                acked[log].push_back(pos);
              }
            }
            done.fetch_add(1);
          }));
    });

    cluster.start();
    ASSERT_TRUE(wait_for([&done] { return done.load() >= kTarget; }, 60))
        << "Sync-mode dLog stalled over loopback TCP: " << done.load() << "/"
        << kTarget << " completions";

    // Acked positions of each log are unique and gap-free: 0..n-1.
    std::map<dlog::LogId, dlog::Position> expected_next;
    {
      std::lock_guard<std::mutex> lk(mu);
      EXPECT_EQ(bad_replies, 0);
      for (dlog::LogId log : {0u, 1u}) {
        std::vector<dlog::Position> pos = acked[log];
        std::sort(pos.begin(), pos.end());
        for (std::size_t i = 0; i < pos.size(); ++i) {
          ASSERT_EQ(pos[i], i) << "log " << log << ": duplicate or gap";
        }
        expected_next[log] = pos.size();
      }
    }

    // Every server converges to exactly the acked log contents.
    auto server_state = [&cluster](ProcessId r) {
      std::pair<std::map<dlog::LogId, dlog::Position>, std::uint64_t> st;
      cluster.call(r, [&st](runtime::Node* n) {
        const auto& sm = dynamic_cast<const dlog::LogStateMachine&>(
            dynamic_cast<smr::ReplicaNode&>(*n).state_machine());
        for (dlog::LogId log : {0u, 1u}) st.first[log] = sm.next_position(log);
        st.second = sm.digest();
      });
      return st;
    };
    std::vector<std::uint64_t> digests;
    for (ProcessId r : servers) {
      ASSERT_TRUE(wait_for(
          [&] { return server_state(r).first == expected_next; }, 30))
          << "server " << r << " did not converge to the acked positions";
      digests.push_back(server_state(r).second);
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);

    // Group commit happened: fewer fdatasyncs than records written.
    const runtime::TransportStats io = cluster.transport_stats_all();
    EXPECT_GT(io.durable_writes, 0u);
    EXPECT_LT(io.durable_syncs, io.durable_writes);
    cluster.stop();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mrp
