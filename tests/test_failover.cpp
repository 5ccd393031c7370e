// Failover suite for the sharded metaserver control plane.
//
// A live cluster per test: N shards, each a primary MetaserverNode and a
// backup joined by log-shipping replication, plus real computing servers
// and a ShardedMetaserver client routing over the consistent-hash ring.
//
// The invariants, asserted under seeded kill schedules:
//  * every dispatch completes correctly or throws a typed ninf::Error
//    within its deadline — killing a shard primary mid-storm never hangs
//    or corrupts a call;
//  * the backup promotes within its heartbeat miss budget and the shard
//    epoch advances, so clients flush stale pooled connections;
//  * a deposed primary fences itself on the first StaleEpoch ack and
//    refuses registrations from then on;
//  * registration is idempotent on (endpoint, reg_epoch) — retries and
//    replayed log entries never double-register a server.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "common/rng.h"
#include "metaserver/node.h"
#include "metaserver/sharded.h"
#include "numlib/ep.h"
#include "obs/metrics.h"
#include "reactor_probe.h"
#include "server/server.h"
#include "transport/tcp_transport.h"
#include "v1_peer.h"
#include "xdr/xdr.h"

namespace ninf {
namespace {

using client::CallOptions;
using client::NinfClient;
using metaserver::MetaserverNode;
using metaserver::NodeOptions;
using metaserver::ShardedMetaserver;
using metaserver::ShardedOptions;
using protocol::ArgValue;

constexpr double kHeartbeat = 0.02;
constexpr std::size_t kMissBudget = 3;
/// Promotion must land within the miss budget; the assertion allows a
/// generous CI-noise multiple of it.
constexpr double kPromotionBound = 1.0;
constexpr double kDeadlineSeconds = 5.0;
constexpr double kHangBound = 30.0;

std::string endpointOf(std::uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

std::unique_ptr<NinfClient> dialEndpoint(const std::string& endpoint) {
  const auto colon = endpoint.rfind(':');
  NINF_REQUIRE(colon != std::string::npos, "endpoint must be host:port");
  return NinfClient::connectTcp(
      endpoint.substr(0, colon),
      static_cast<std::uint16_t>(std::stoi(endpoint.substr(colon + 1))),
      2.0);
}

/// Rebuilds a computing server's connection factory from its endpoint.
metaserver::FactoryResolver dialResolver() {
  return [](const std::string& endpoint) {
    return client::ConnectionFactory(
        [endpoint] { return dialEndpoint(endpoint); });
  };
}

/// Options for one unreplicated node, alone in its ring, at `endpoint`.
NodeOptions soloNode(const std::string& endpoint) {
  NodeOptions opts;
  protocol::ShardInfo shard;
  shard.epoch = 1;
  shard.primary_endpoint = endpoint;
  opts.ring.shards.push_back(shard);
  opts.self_endpoint = endpoint;
  return opts;
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Spin until `pred` holds; false when `bound` seconds elapse first.
template <typename Pred>
bool eventually(double bound, Pred&& pred) {
  const auto start = std::chrono::steady_clock::now();
  while (!pred()) {
    if (secondsSince(start) > bound) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// One shard's pair of nodes plus their listeners.
struct ShardNodes {
  std::unique_ptr<MetaserverNode> primary;
  std::unique_ptr<MetaserverNode> backup;
  std::string primary_endpoint;
  std::string backup_endpoint;
};

/// A live N-shard metaserver cluster with real computing servers.
class ShardCluster {
 public:
  explicit ShardCluster(std::size_t shard_count,
                        std::size_t server_count = 2,
                        double status_freshness = 0.05) {
    // Listeners first: the ring descriptor needs every port up front.
    std::vector<std::shared_ptr<transport::TcpListener>> plisten, blisten;
    protocol::RingDescriptor ring;
    for (std::size_t i = 0; i < shard_count; ++i) {
      plisten.push_back(std::make_shared<transport::TcpListener>(0));
      blisten.push_back(std::make_shared<transport::TcpListener>(0));
      protocol::ShardInfo info;
      info.id = static_cast<std::uint32_t>(i);
      info.epoch = 1;
      info.primary_endpoint = endpointOf(plisten.back()->port());
      info.backup_endpoint = endpointOf(blisten.back()->port());
      ring.shards.push_back(info);
    }
    const metaserver::FactoryResolver resolver = dialResolver();
    for (std::size_t i = 0; i < shard_count; ++i) {
      ShardNodes shard;
      shard.primary_endpoint = ring.shards[i].primary_endpoint;
      shard.backup_endpoint = ring.shards[i].backup_endpoint;

      NodeOptions popts;
      popts.shard_id = static_cast<std::uint32_t>(i);
      popts.primary = true;
      popts.status_freshness = status_freshness;
      popts.cooldown_seconds = 0.1;
      popts.heartbeat_interval_s = kHeartbeat;
      popts.heartbeat_miss_budget = kMissBudget;
      popts.resolver = resolver;
      const std::string backup_ep = shard.backup_endpoint;
      popts.backup_factory = [backup_ep] { return dialEndpoint(backup_ep); };
      popts.self_endpoint = shard.primary_endpoint;
      popts.ring = ring;
      shard.primary = std::make_unique<MetaserverNode>(std::move(popts));
      shard.primary->serve(plisten[i]);

      NodeOptions bopts;
      bopts.shard_id = static_cast<std::uint32_t>(i);
      bopts.primary = false;
      bopts.status_freshness = status_freshness;
      bopts.cooldown_seconds = 0.1;
      bopts.heartbeat_interval_s = kHeartbeat;
      bopts.heartbeat_miss_budget = kMissBudget;
      bopts.resolver = resolver;
      bopts.self_endpoint = shard.backup_endpoint;
      bopts.ring = ring;
      shard.backup = std::make_unique<MetaserverNode>(std::move(bopts));
      shard.backup->serve(blisten[i]);

      shards_.push_back(std::move(shard));
    }

    for (std::size_t i = 0; i < server_count; ++i) {
      auto registry = std::make_unique<server::Registry>();
      server::registerStandardExecutables(*registry);
      auto srv = std::make_unique<server::NinfServer>(
          *registry, server::ServerOptions{.workers = 2});
      auto listener = std::make_shared<transport::TcpListener>(0);
      server_endpoints_.push_back(endpointOf(listener->port()));
      srv->start(listener);
      registries_.push_back(std::move(registry));
      servers_.push_back(std::move(srv));
    }
  }

  ~ShardCluster() {
    for (auto& s : shards_) {
      s.primary->stop();
      s.backup->stop();
    }
    for (auto& s : servers_) s->stop();
  }

  ShardedMetaserver makeClient() {
    ShardedOptions opts;
    for (const auto& s : shards_) {
      opts.seeds.push_back(s.primary_endpoint);
      opts.seeds.push_back(s.backup_endpoint);
    }
    opts.node_dialer = dialEndpoint;
    opts.server_dialer = dialEndpoint;
    opts.retry_backoff = 0.005;
    return ShardedMetaserver(std::move(opts));
  }

  /// Register the first `count` computing servers (every one by
  /// default) for `entry` (routes to its owning shard) and wait for the
  /// backup to catch up over replication.
  void registerServersFor(ShardedMetaserver& client, const std::string& entry,
                          std::size_t count = SIZE_MAX) {
    count = std::min(count, servers_.size());
    for (std::size_t i = 0; i < count; ++i) {
      protocol::WireServerDesc desc;
      desc.name = "server-" + std::to_string(i);
      desc.endpoint = server_endpoints_[i];
      desc.entries = {entry};
      const auto results = client.registerServer(desc, 1, kDeadlineSeconds);
      ASSERT_EQ(results.size(), 1u);
      ASSERT_EQ(results[0].status, protocol::RegisterResult::Status::Applied);
    }
    const std::uint32_t owner = client.ownerOf(entry);
    ASSERT_TRUE(eventually(kDeadlineSeconds, [&] {
      return shards_[owner].backup->directory().serverCount() == count;
    })) << "replication never caught the backup up";
  }

  std::vector<ShardNodes> shards_;
  std::vector<std::unique_ptr<server::Registry>> registries_;
  std::vector<std::unique_ptr<server::NinfServer>> servers_;
  std::vector<std::string> server_endpoints_;
};

std::vector<ArgValue> epArgs(std::vector<double>& sums,
                             std::vector<double>& q,
                             std::int64_t samples) {
  return {ArgValue::inInt(0), ArgValue::inInt(samples),
          ArgValue::outArray(sums), ArgValue::outArray(q)};
}

TEST(ShardedMetaserverTest, RingBootstrapRoutesAndDispatches) {
  ShardCluster cluster(2);
  auto client = cluster.makeClient();
  client.refreshRing();
  EXPECT_EQ(client.ringEpoch(), 2u);  // sum of two shard epochs at 1
  EXPECT_EQ(client.ringDescriptor().shards.size(), 2u);

  cluster.registerServersFor(client, "ep");
  const auto choice = client.route(
      "ep", {}, std::chrono::steady_clock::now() + std::chrono::seconds(5));
  EXPECT_FALSE(choice.server_name.empty());
  EXPECT_FALSE(choice.endpoint.empty());

  constexpr std::int64_t kSamples = 256;
  const auto expected = numlib::runEp(0, kSamples);
  std::vector<double> sums(2, -1.0), q(10);
  auto args = epArgs(sums, q, kSamples);
  CallOptions opts;
  opts.deadline_seconds = kDeadlineSeconds;
  client.dispatch("ep", args, opts);
  EXPECT_NEAR(sums[0], expected.sx, 1e-9);
  EXPECT_NEAR(sums[1], expected.sy, 1e-9);

  // The node connection the dispatch pooled agreed on version 1, which
  // keeps the control plane on the client's lock-step path.
  const std::string node =
      cluster.shards_[client.ownerOf("ep")].primary_endpoint;
  auto lease = client.nodePool().acquire(
      node,
      [&node] {
        ADD_FAILURE() << "the dispatch pooled no connection to " << node;
        return dialEndpoint(node);
      },
      client.ringEpoch());
  EXPECT_EQ(lease->channel().negotiatedVersion(), protocol::kVersion);
}

TEST(ShardedMetaserverTest, UnknownEntryYieldsTypedNotFound) {
  ShardCluster cluster(2, /*server_count=*/0);
  auto client = cluster.makeClient();
  // The owning shard is reachable but has no candidates: typed error,
  // not a hang or a transport error.
  EXPECT_THROW(
      client.route("nonexistent", {},
                   std::chrono::steady_clock::now() + std::chrono::seconds(5)),
      NotFoundError);
  // Dispatch passes a first-attempt NotFoundError through as is.
  CallOptions opts;
  opts.deadline_seconds = kDeadlineSeconds;
  EXPECT_THROW(client.dispatch("nonexistent", {}, opts), NotFoundError);
}

TEST(ShardedMetaserverTest, RegistrationIsIdempotentOnEndpointEpoch) {
  ShardCluster cluster(2, /*server_count=*/1);
  auto client = cluster.makeClient();

  protocol::WireServerDesc desc;
  desc.name = "server-0";
  desc.endpoint = cluster.server_endpoints_[0];
  desc.entries = {"ep"};
  const std::uint32_t owner = client.ownerOf("ep");
  auto& dir = cluster.shards_[owner].primary->directory();

  auto first = client.registerServer(desc, 7, kDeadlineSeconds);
  ASSERT_EQ(first[0].status, protocol::RegisterResult::Status::Applied);
  EXPECT_EQ(dir.serverCount(), 1u);

  // A retried register with the identical key is acknowledged but never
  // applied twice.
  auto retry = client.registerServer(desc, 7, kDeadlineSeconds);
  EXPECT_EQ(retry[0].status, protocol::RegisterResult::Status::Duplicate);
  EXPECT_EQ(dir.serverCount(), 1u);

  // A later epoch re-registers (update in place), still one entry.
  auto update = client.registerServer(desc, 8, kDeadlineSeconds);
  EXPECT_EQ(update[0].status, protocol::RegisterResult::Status::Applied);
  EXPECT_EQ(dir.serverCount(), 1u);

  // Deregister applies once; the straggler retry is a quiet duplicate.
  auto gone = client.deregisterServer(desc.endpoint, desc.name, desc.entries,
                                      9, kDeadlineSeconds);
  EXPECT_EQ(gone[0].status, protocol::RegisterResult::Status::Applied);
  EXPECT_EQ(dir.serverCount(), 0u);
  auto again = client.deregisterServer(desc.endpoint, desc.name, desc.entries,
                                       9, kDeadlineSeconds);
  EXPECT_EQ(again[0].status, protocol::RegisterResult::Status::Duplicate);
  EXPECT_EQ(dir.serverCount(), 0u);
}

TEST(ShardedMetaserverTest, MisroutedQueryDrawsWrongShard) {
  ShardCluster cluster(2, /*server_count=*/0);
  auto client = cluster.makeClient();

  // Find two entries with different owners (the hash spreads names, so
  // a handful of tries suffices).
  std::string here = "ep";
  const std::uint32_t owner = client.ownerOf(here);
  std::optional<std::string> elsewhere;
  for (int i = 0; i < 64 && !elsewhere; ++i) {
    const std::string name = "probe-" + std::to_string(i);
    if (client.ownerOf(name) != owner) elsewhere = name;
  }
  ASSERT_TRUE(elsewhere.has_value());

  auto node = dialEndpoint(cluster.shards_[owner].primary_endpoint);
  try {
    node->scheduleQuery(*elsewhere, {}, 2.0);
    FAIL() << "expected WrongShardError";
  } catch (const WrongShardError& e) {
    EXPECT_NE(e.ownerShard(), owner);
    EXPECT_FALSE(e.notPrimary());
    EXPECT_EQ(e.ringEpoch(), 2u);
  }

  // Right shard, wrong role: the backup bounces with NotPrimary.
  auto backup = dialEndpoint(cluster.shards_[owner].backup_endpoint);
  try {
    backup->scheduleQuery(here, {}, 2.0);
    FAIL() << "expected WrongShardError";
  } catch (const WrongShardError& e) {
    EXPECT_EQ(e.ownerShard(), owner);
    EXPECT_TRUE(e.notPrimary());
  }
}

TEST(ShardedMetaserverTest, PartitionPromotesBackupAndFencesOldPrimary) {
  ShardCluster cluster(1, /*server_count=*/1);
  auto client = cluster.makeClient();
  cluster.registerServersFor(client, "ep");

  auto& shard = cluster.shards_[0];
  ASSERT_NE(shard.primary->replication(), nullptr);
  ASSERT_TRUE(shard.primary->isPrimary());
  ASSERT_FALSE(shard.backup->isPrimary());

  // Cut the (simulated) wire: heartbeats stop, the backup's miss budget
  // runs down, it promotes and bumps the shard epoch.
  const auto cut = std::chrono::steady_clock::now();
  shard.primary->replication()->setPaused(true);
  ASSERT_TRUE(eventually(kPromotionBound,
                         [&] { return shard.backup->isPrimary(); }))
      << "backup never promoted";
  EXPECT_LT(secondsSince(cut), kPromotionBound);
  EXPECT_EQ(shard.backup->shardEpoch(), 2u);

  // Heal the partition: the old primary's next ship draws StaleEpoch
  // and it fences itself.
  const std::uint64_t fenced_before =
      obs::counter("metaserver.replication.fenced_writes").value();
  shard.primary->replication()->setPaused(false);
  ASSERT_TRUE(eventually(kPromotionBound,
                         [&] { return shard.primary->isFenced(); }))
      << "deposed primary never fenced";

  // Writes at the deposed primary are refused with the typed error.
  protocol::WireServerDesc desc;
  desc.name = "late";
  desc.endpoint = cluster.server_endpoints_[0];
  desc.entries = {"ep"};
  auto direct = dialEndpoint(shard.primary_endpoint);
  EXPECT_THROW(direct->registerServer(desc, 99, 2.0), FencedError);
  EXPECT_GT(obs::counter("metaserver.replication.fenced_writes").value(),
            fenced_before);

  // The routed path refreshes onto the promoted backup and succeeds —
  // and the merged ring epoch advanced past the seed view.
  auto results = client.registerServer(desc, 99, kDeadlineSeconds);
  EXPECT_EQ(results[0].status, protocol::RegisterResult::Status::Applied);
  EXPECT_GE(client.ringEpoch(), 2u);
}

TEST(ShardedMetaserverTest, PromotionFlushesStalePooledConnections) {
  ShardCluster cluster(1, /*server_count=*/1);
  auto client = cluster.makeClient();
  cluster.registerServersFor(client, "ep");

  const std::uint64_t flushes_before =
      obs::counter("pool.generation_flushes").value();

  // Kill the primary outright.  Routing under the stale epoch-1 ring
  // finds the primary dead, bounces off the not-yet-promoted backup
  // with NotPrimary (pooling that connection under generation 1), and
  // keeps refreshing until the backup promotes and serves.
  auto& shard = cluster.shards_[0];
  shard.primary->stop();
  const auto choice = client.route(
      "ep", {}, std::chrono::steady_clock::now() + std::chrono::seconds(5));
  EXPECT_FALSE(choice.server_name.empty());
  EXPECT_TRUE(shard.backup->isPrimary());
  EXPECT_GE(client.ringEpoch(), 2u);

  // The post-promotion acquire of the same backup endpoint carries the
  // new ring epoch as its generation, retiring the epoch-1 connection.
  (void)client.route(
      "ep", {}, std::chrono::steady_clock::now() + std::chrono::seconds(5));
  EXPECT_GT(obs::counter("pool.generation_flushes").value(), flushes_before);
}

TEST(ShardedMetaserverTest, EveryServerDeadSurfacesTransportError) {
  // Both servers stop while the node still caches them as reachable and
  // the client still pools a connection to each: every attempt fails
  // over, and once the shard runs out of candidates the root cause
  // surfaces as a TransportError naming them, never as NotFoundError
  // ("no such entry").
  ShardCluster cluster(1, /*server_count=*/2, /*status_freshness=*/60.0);
  auto client = cluster.makeClient();
  cluster.registerServersFor(client, "ep");
  constexpr std::int64_t kSamples = 64;
  std::vector<double> sums(2, -1.0), q(10);
  auto args = epArgs(sums, q, kSamples);
  CallOptions opts;
  opts.deadline_seconds = kDeadlineSeconds;
  client.dispatch("ep", args, opts);  // polls both into the node's cache
  ASSERT_NEAR(sums[0], numlib::runEp(0, kSamples).sx, 1e-9);
  for (const auto& endpoint : cluster.server_endpoints_) {
    (void)client.dataPool().acquire(endpoint,
                                    [&] { return dialEndpoint(endpoint); });
  }

  for (auto& s : cluster.servers_) s->stop();
  try {
    client.dispatch("ep", args, opts);
    FAIL() << "expected TransportError";
  } catch (const NotFoundError& e) {
    FAIL() << "root cause masked as NotFoundError: " << e.what();
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("server-0"), std::string::npos) << what;
    EXPECT_NE(what.find("server-1"), std::string::npos) << what;
  }
}

TEST(ShardedMetaserverTest, StopNeverWaitsOutTheMonitorInterval) {
  // At a 60 s freshness the monitor loop waits 30 s between rounds; a
  // stop wakes it instead of waiting the interval out, on the primary
  // that polls and on the backup that only ticks.
  ShardCluster cluster(1, /*server_count=*/1, /*status_freshness=*/60.0);
  auto client = cluster.makeClient();
  cluster.registerServersFor(client, "ep");
  for (MetaserverNode* node : {cluster.shards_[0].primary.get(),
                               cluster.shards_[0].backup.get()}) {
    const auto start = std::chrono::steady_clock::now();
    node->stop();
    EXPECT_LT(secondsSince(start), 0.5);
  }
}

TEST(ShardedMetaserverTest, MonitorRoundMarksAStoppedServerUnreachable) {
  // The primary monitors at a 50 ms freshness.  A server stopped while
  // the client pools a connection to it is marked unreachable by a
  // monitor round, with no decision asked in between; from then on no
  // decision names it, and a dispatch lands on the survivor at its
  // first attempt.
  ShardCluster cluster(1, /*server_count=*/2);
  auto client = cluster.makeClient();
  cluster.registerServersFor(client, "ep");
  const auto& dir = cluster.shards_[0].primary->directory();
  auto reachable = [&dir](const std::string& name) {
    for (const auto& rec : dir.livenessDigest()) {
      if (rec.server_name == name) return rec.reachable != 0;
    }
    return false;
  };
  ASSERT_TRUE(eventually(kDeadlineSeconds, [&] {
    return reachable("server-0") && reachable("server-1");
  })) << "no monitor round reached both servers";

  constexpr std::int64_t kSamples = 64;
  const auto expected = numlib::runEp(0, kSamples);
  std::vector<double> sums(2, -1.0), q(10);
  auto args = epArgs(sums, q, kSamples);
  CallOptions opts;
  opts.deadline_seconds = kDeadlineSeconds;
  client.dispatch("ep", args, opts);
  for (const auto& endpoint : cluster.server_endpoints_) {
    (void)client.dataPool().acquire(endpoint,
                                    [&] { return dialEndpoint(endpoint); });
  }

  cluster.servers_[1]->stop();
  ASSERT_TRUE(eventually(kDeadlineSeconds, [&] {
    return !reachable("server-1");
  })) << "no monitor round marked the stopped server";
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(client
                  .route("ep", {},
                         std::chrono::steady_clock::now() +
                             std::chrono::seconds(5))
                  .server_name,
              "server-0");
  }
  obs::Counter& queries = obs::counter("metaserver.shard.queries");
  const double before = queries.value();
  sums.assign(2, -1.0);
  client.dispatch("ep", args, opts);
  EXPECT_EQ(queries.value() - before, 1.0) << "the dispatch failed over";
  EXPECT_NEAR(sums[0], expected.sx, 1e-9);
  EXPECT_NEAR(sums[1], expected.sy, 1e-9);
}

TEST(ShardedMetaserverTest, RegistryChurnDuringDispatchStorm) {
  // Four callers dispatch through one shard while a third live server
  // registers and deregisters in a loop, so decisions race table
  // changes on the node.  Every call returns the right sums or throws a
  // typed error.
  ShardCluster cluster(1, /*server_count=*/3);
  auto client = cluster.makeClient();
  cluster.registerServersFor(client, "ep", 2);

  constexpr std::int64_t kSamples = 64;
  const auto expected = numlib::runEp(0, kSamples);
  std::atomic<bool> stop{false};
  auto churn = std::async(std::launch::async, [&] {
    auto churner = cluster.makeClient();
    protocol::WireServerDesc desc;
    desc.name = "server-2";
    desc.endpoint = cluster.server_endpoints_[2];
    desc.entries = {"ep"};
    std::uint64_t epoch = 1;
    for (; !stop.load(); epoch += 2) {
      churner.registerServer(desc, epoch, kDeadlineSeconds);
      churner.deregisterServer(desc.endpoint, desc.name, desc.entries,
                               epoch + 1, kDeadlineSeconds);
    }
    return epoch / 2;
  });

  std::vector<std::future<std::size_t>> callers;
  for (int t = 0; t < 4; ++t) {
    callers.push_back(std::async(std::launch::async, [&, t] {
      std::size_t served = 0;
      const auto start = std::chrono::steady_clock::now();
      while (secondsSince(start) < 1.0) {
        std::vector<double> sums(2, -1.0), q(10);
        auto args = epArgs(sums, q, kSamples);
        CallOptions opts;
        opts.deadline_seconds = kDeadlineSeconds;
        try {
          client.dispatch("ep", args, opts);
          EXPECT_NEAR(sums[0], expected.sx, 1e-9) << "caller " << t;
          EXPECT_NEAR(sums[1], expected.sy, 1e-9) << "caller " << t;
          ++served;
        } catch (const Error&) {
          // Typed failure is within contract.
        }
      }
      return served;
    }));
  }
  std::size_t served = 0;
  for (auto& c : callers) served += c.get();
  stop.store(true);
  const std::uint64_t cycles = churn.get();
  EXPECT_GT(served, 0u);
  EXPECT_GT(cycles, 1u);
}

/// Seeded kill schedules: a dispatch storm is in flight when the owning
/// shard's primary dies.  Every call must complete correctly or fail
/// with a typed error within its deadline, and dispatch must succeed
/// again once the backup promotes.
class FailoverChaos : public ::testing::TestWithParam<int> {};

TEST_P(FailoverChaos, KillPrimaryMidDispatchStorm) {
  const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(GetParam());
  SplitMix64 rng(seed);

  ShardCluster cluster(2, /*server_count=*/2);
  auto client = cluster.makeClient();
  cluster.registerServersFor(client, "ep");
  const std::uint32_t owner = client.ownerOf("ep");

  constexpr std::int64_t kSamples = 256;
  const auto expected = numlib::runEp(0, kSamples);
  const std::size_t threads = 2 + rng.nextBelow(2);   // 2..3 clients
  const std::size_t calls_per_thread = 4;
  const double kill_after = 0.002 + 0.03 * rng.nextDouble();

  const std::uint64_t promotions_before =
      obs::counter("metaserver.replication.promotions").value();

  std::vector<std::future<void>> storms;
  for (std::size_t t = 0; t < threads; ++t) {
    storms.push_back(std::async(std::launch::async, [&, t] {
      for (std::size_t c = 0; c < calls_per_thread; ++c) {
        std::vector<double> sums(2, -1.0), q(10);
        auto args = epArgs(sums, q, kSamples);
        CallOptions opts;
        opts.deadline_seconds = kDeadlineSeconds;
        opts.retries = 4;
        opts.backoff_seconds = 0.002;
        const auto start = std::chrono::steady_clock::now();
        try {
          client.dispatch("ep", args, opts);
          ASSERT_NEAR(sums[0], expected.sx, 1e-9)
              << "seed " << seed << " thread " << t << " call " << c;
          ASSERT_NEAR(sums[1], expected.sy, 1e-9)
              << "seed " << seed << " thread " << t << " call " << c;
        } catch (const Error&) {
          // Typed failure is within contract; anything else escapes and
          // fails the test.
        }
        ASSERT_LT(secondsSince(start), kHangBound)
            << "seed " << seed << " thread " << t << " call " << c;
      }
    }));
  }

  // Kill the owning shard's primary mid-storm.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kill_after));
  const auto killed = std::chrono::steady_clock::now();
  cluster.shards_[owner].primary->stop();

  ASSERT_TRUE(eventually(kPromotionBound, [&] {
    return cluster.shards_[owner].backup->isPrimary();
  })) << "seed " << seed << ": backup never promoted";
  EXPECT_LT(secondsSince(killed), kPromotionBound) << "seed " << seed;

  for (auto& f : storms) f.get();

  EXPECT_GT(obs::counter("metaserver.replication.promotions").value(),
            promotions_before);

  // Post-promotion the cluster serves again, from the replicated table.
  std::vector<double> sums(2, -1.0), q(10);
  auto args = epArgs(sums, q, kSamples);
  CallOptions opts;
  opts.deadline_seconds = kDeadlineSeconds;
  opts.retries = 4;
  client.dispatch("ep", args, opts);
  EXPECT_NEAR(sums[0], expected.sx, 1e-9) << "seed " << seed;
  EXPECT_NEAR(sums[1], expected.sy, 1e-9) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailoverChaos, ::testing::Range(0, 10));

TEST(MetaserverNodeTest, FinishedConnectionThreadsAreReaped) {
  // Sequential one-call connections, as ring refreshes and redialled
  // pools make them: the node joins each finished connection's thread,
  // so its threads and mapped stacks track its live connections.
  auto listener = std::make_shared<transport::TcpListener>(0);
  const std::string endpoint = endpointOf(listener->port());
  MetaserverNode node(soloNode(endpoint));
  node.serve(listener);
  const int threads_before = processThreadCount();

  // Settle lazy allocations first: the malloc arenas and the cached
  // stacks of a few overlapping connection threads.
  {
    std::vector<std::unique_ptr<NinfClient>> warm;
    for (int i = 0; i < 8; ++i) {
      warm.push_back(dialEndpoint(endpoint));
      warm.back()->ringInfo(2.0);
    }
  }
  dialEndpoint(endpoint)->ringInfo(2.0);
  const double vm_before = procStatusValue("VmSize:") * 1024.0;
  ASSERT_GT(vm_before, 0.0);
  for (int i = 0; i < 300; ++i) {
    const auto ring = dialEndpoint(endpoint)->ringInfo(2.0);
    ASSERT_EQ(ring.shards.size(), 1u);
  }
  EXPECT_TRUE(eventually(kDeadlineSeconds, [&] {
    return processThreadCount() <= threads_before;
  })) << processThreadCount() << " threads, " << threads_before
      << " before";
  // Unjoined, every connection keeps its 8 MiB stack mapped.
  const double rise = procStatusValue("VmSize:") * 1024.0 - vm_before;
  EXPECT_LT(rise, 128.0 * 1024 * 1024) << "VmSize rose by " << rise
                                       << " bytes";
  node.stop();
}

TEST(MetaserverNodeTest, ScheduleQueriesAddNoPollsWhileRoundsKeepUp) {
  // 16 registered servers, every one exporting ep: the node's first
  // monitor round polls each once, and 100 decisions inside the
  // freshness window then schedule from the statuses that round cached,
  // with no poll of their own.  Without the loop each decision would
  // poll all 16.
  constexpr std::size_t kRegistered = 16;
  std::vector<std::unique_ptr<server::Registry>> registries;
  std::vector<std::unique_ptr<server::NinfServer>> servers;
  std::vector<std::string> endpoints;
  for (int i = 0; i < 4; ++i) {
    registries.push_back(std::make_unique<server::Registry>());
    server::registerStandardExecutables(*registries.back());
    servers.push_back(std::make_unique<server::NinfServer>(
        *registries.back(), server::ServerOptions{.workers = 1}));
    auto server_listener = std::make_shared<transport::TcpListener>(0);
    endpoints.push_back(endpointOf(server_listener->port()));
    servers.back()->start(server_listener);
  }
  auto listener = std::make_shared<transport::TcpListener>(0);
  const std::string endpoint = endpointOf(listener->port());
  NodeOptions opts = soloNode(endpoint);
  opts.status_freshness = 60.0;  // a round at serve(), the next in 30 s
  MetaserverNode node(std::move(opts));
  for (std::size_t i = 0; i < kRegistered; ++i) {
    metaserver::ServerEntry entry;
    entry.name = "server-" + std::to_string(i);
    const std::string server = endpoints[i % endpoints.size()];
    entry.factory = [server] { return dialEndpoint(server); };
    entry.entries = {"ep"};
    node.directory().addServer(std::move(entry));
  }

  obs::Counter& polls = obs::counter("metaserver.directory.polls");
  const double before = polls.value();
  node.serve(listener);
  ASSERT_TRUE(eventually(kDeadlineSeconds, [&] {
    const auto digest = node.directory().livenessDigest();
    return std::all_of(digest.begin(), digest.end(),
                       [](const auto& rec) { return rec.reachable != 0; });
  })) << "the first monitor round never reached every server";
  const double round = polls.value();
  EXPECT_EQ(round - before, static_cast<double>(kRegistered));

  auto client = dialEndpoint(endpoint);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(client->scheduleQuery("ep", {}, 2.0).server_name.empty());
  }
  EXPECT_EQ(polls.value() - round, 0.0);
  node.stop();
  for (auto& s : servers) s->stop();
}

TEST(MetaserverNodeTest, HeartbeatAckReportsTheSeqTheBackupApplied) {
  // The primary's replication lag is its log head minus the seq the
  // backup acks, so a heartbeat ack must carry what the backup applied.
  auto listener = std::make_shared<transport::TcpListener>(0);
  const std::string endpoint = endpointOf(listener->port());
  NodeOptions opts = soloNode(endpoint);
  opts.primary = false;
  opts.heartbeat_interval_s = 1.0;  // no promotion while the test runs
  opts.resolver = dialResolver();
  MetaserverNode backup(std::move(opts));
  backup.serve(listener);

  auto primary = dialEndpoint(endpoint);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    protocol::ReplAppendMsg append;
    append.shard_epoch = 1;
    append.op.desc.name = "server-" + std::to_string(seq);
    append.op.desc.endpoint = endpointOf(static_cast<std::uint16_t>(seq));
    append.op.reg_epoch = 1;
    append.op.seq = seq;
    ASSERT_EQ(primary->replAppend(append, 2.0).status,
              protocol::ReplAckMsg::Status::Ok);
  }
  EXPECT_EQ(backup.directory().serverCount(), 3u);

  protocol::ReplHeartbeatMsg heartbeat;
  heartbeat.shard_epoch = 1;
  const protocol::ReplAckMsg ack = primary->replHeartbeat(heartbeat, 2.0);
  EXPECT_EQ(ack.status, protocol::ReplAckMsg::Status::Ok);
  EXPECT_EQ(ack.seq, 3u);

  // A fresh primary, whose log is empty, heartbeats the same backup:
  // the acked 3 lies past its log head, so its lag reads 0, not a
  // wrapped difference.
  obs::Gauge& lag = obs::gauge("metaserver.replication.lag");
  lag.set(-1.0);
  auto fresh_listener = std::make_shared<transport::TcpListener>(0);
  NodeOptions fresh_opts = soloNode(endpointOf(fresh_listener->port()));
  fresh_opts.heartbeat_interval_s = kHeartbeat;
  fresh_opts.backup_factory = [endpoint] { return dialEndpoint(endpoint); };
  MetaserverNode fresh(std::move(fresh_opts));
  fresh.serve(fresh_listener);
  ASSERT_TRUE(eventually(kDeadlineSeconds, [&] { return lag.value() >= 0; }))
      << "no heartbeat ack reached the fresh primary";
  EXPECT_EQ(lag.value(), 0.0);
  fresh.stop();
  backup.stop();
}

TEST(MetaserverNodeTest, ServesAClientThatStillSendsTheRetiredShardingBit) {
  // A client built while feature bit 0x2 licensed the control plane asks
  // for it in Hello and sends its cached ring epoch with RingQuery.  The
  // node ignores both: the bit like any unknown bit, the word because a
  // RingQuery body carries nothing.
  auto listener = std::make_shared<transport::TcpListener>(0);
  const std::string endpoint = endpointOf(listener->port());
  MetaserverNode node(soloNode(endpoint));
  node.serve(listener);
  V1Peer old_client(transport::tcpConnect("127.0.0.1", listener->port()));

  xdr::Encoder hello;
  protocol::Hello{protocol::kVersion2, 0x2}.encode(hello);
  protocol::HelloAck ack;
  old_client.exchange(
      protocol::MessageType::Hello, hello,
      [&](const protocol::FrameHeader& reply, xdr::Source& src) {
        ASSERT_EQ(reply.type, protocol::MessageType::HelloAck);
        ack = protocol::HelloAck::decode(src);
      });
  EXPECT_EQ(ack.version, protocol::kVersion);
  EXPECT_EQ(ack.features, std::optional<std::uint32_t>(0));

  xdr::Encoder ring_query;
  ring_query.putU64(2);
  protocol::RingDescriptor ring;
  old_client.exchange(
      protocol::MessageType::RingQuery, ring_query,
      [&](const protocol::FrameHeader& reply, xdr::Source& src) {
        ASSERT_EQ(reply.type, protocol::MessageType::RingInfo);
        ring = protocol::RingDescriptor::decode(src);
      });
  ASSERT_EQ(ring.shards.size(), 1u);
  EXPECT_EQ(ring.shards[0].primary_endpoint, endpoint);
  old_client.close();
  node.stop();
}

}  // namespace
}  // namespace ninf
