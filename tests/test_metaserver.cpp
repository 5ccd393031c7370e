// Metaserver scheduling: policy selection, monitoring, and transaction
// fan-out across real in-process servers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "client/ninf_api.h"
#include "client/transaction.h"
#include "common/error.h"
#include "metaserver/metaserver.h"
#include "numlib/ep.h"
#include "obs/metrics.h"
#include "protocol/message.h"
#include "server/server.h"
#include "transport/inproc_transport.h"
#include "transport/tcp_transport.h"
#include "xdr/xdr.h"

namespace ninf::metaserver {
namespace {

using client::NinfClient;
using protocol::ArgValue;

TEST(EstimateCompletion, CommPlusComp) {
  // 1 MB at 1 MB/s + 1 Mflop at 1 Mflop/s, empty queue = 2 seconds.
  EXPECT_DOUBLE_EQ(estimateCompletion(1e6, 1e6, 1e6, 1e6, 0), 2.0);
}

TEST(EstimateCompletion, QueueDelaysCompute) {
  const double idle = estimateCompletion(0, 1e6, 1e6, 1e6, 0);
  const double busy = estimateCompletion(0, 1e6, 1e6, 1e6, 3);
  EXPECT_DOUBLE_EQ(busy, 4.0 * idle);
}

TEST(EstimateCompletion, BandwidthDominatesWanShapedJobs) {
  // The paper's WAN conclusion: with slow links, pick by bandwidth.
  const double fast_net = estimateCompletion(1e7, 1e6, 1e6, 1e6, 0);
  const double slow_net = estimateCompletion(1e7, 1e6, 0.17e6, 1e9, 0);
  EXPECT_GT(slow_net, fast_net);
}

ServerEntry entryOf(std::string name, client::ConnectionFactory factory,
                    std::vector<std::string> entries = {}) {
  ServerEntry e;
  e.name = std::move(name);
  e.factory = std::move(factory);
  e.entries = std::move(entries);
  return e;
}

/// Spins up `count` real servers on loopback TCP and registers them.
class MetaserverFixture : public ::testing::Test {
 protected:
  void startServers(std::size_t count, SchedulingPolicy policy) {
    meta_ = std::make_unique<Metaserver>(policy);
    for (std::size_t i = 0; i < count; ++i) {
      auto registry = std::make_unique<server::Registry>();
      server::registerStandardExecutables(*registry);
      auto srv = std::make_unique<server::NinfServer>(
          *registry, server::ServerOptions{.workers = 2});
      auto listener = std::make_shared<transport::TcpListener>(0);
      const auto port = listener->port();
      srv->start(listener);
      meta_->addServer(
          {.name = "server-" + std::to_string(i),
           .factory =
               [port] { return NinfClient::connectTcp("127.0.0.1", port); },
           .bandwidth_bps = 1e6 * static_cast<double>(i + 1),
           .perf_flops = 1e8});
      registries_.push_back(std::move(registry));
      servers_.push_back(std::move(srv));
      ports_.push_back(port);
    }
  }

  void TearDown() override {
    for (auto& s : servers_) s->stop();
  }

  std::vector<std::unique_ptr<server::Registry>> registries_;
  std::vector<std::unique_ptr<server::NinfServer>> servers_;
  std::vector<std::uint16_t> ports_;
  std::unique_ptr<Metaserver> meta_;
};

TEST_F(MetaserverFixture, RoundRobinRotates) {
  startServers(3, SchedulingPolicy::RoundRobin);
  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(16),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  EXPECT_EQ(meta_->chooseServer("ep", args), "server-0");
  EXPECT_EQ(meta_->chooseServer("ep", args), "server-1");
  EXPECT_EQ(meta_->chooseServer("ep", args), "server-2");
  EXPECT_EQ(meta_->chooseServer("ep", args), "server-0");
}

TEST_F(MetaserverFixture, DispatchExecutesSomewhere) {
  startServers(2, SchedulingPolicy::LeastLoad);
  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(512),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  meta_->dispatch("ep", args);
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 512).sx);
}

TEST_F(MetaserverFixture, PollReturnsStatus) {
  startServers(1, SchedulingPolicy::LeastLoad);
  const auto status = meta_->poll("server-0");
  EXPECT_EQ(status.running, 0u);
  EXPECT_THROW(meta_->poll("nope"), NotFoundError);
}

TEST_F(MetaserverFixture, DispatchReusesPooledConnections) {
  startServers(1, SchedulingPolicy::RoundRobin);
  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(64),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  const double hits_before = obs::counter("pool.hits").value();
  meta_->dispatch("ep", args);
  EXPECT_EQ(meta_->pool().idleCount(), 1u);  // connection kept warm
  meta_->dispatch("ep", args);
  EXPECT_GE(obs::counter("pool.hits").value() - hits_before, 1.0);
}

TEST_F(MetaserverFixture, StalledServerPollIsBoundedAndSkipped) {
  // One healthy TCP server plus one whose monitor connection is open but
  // never answers.  With the poll timeout set, the scheduling poll must
  // give up on the mute server within the budget, treat it as
  // unreachable, and route the call to the healthy server.
  startServers(1, SchedulingPolicy::LeastLoad);
  std::vector<std::unique_ptr<transport::Stream>> peers;  // open, mute
  meta_->addServer(
      {.name = "mute",
       .factory =
           [&peers] {
             auto [near_end, far_end] = transport::inprocPair();
             peers.push_back(std::move(far_end));
             return std::make_unique<NinfClient>(std::move(near_end));
           },
       .bandwidth_bps = 1e9,
       .perf_flops = 1e12});
  meta_->setPollTimeout(0.1);
  meta_->setStatusFreshness(0.0);  // force a live poll for this dispatch
  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(64),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  const auto start = std::chrono::steady_clock::now();
  meta_->dispatch("ep", args);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            2.0);  // the mute server cost at most the poll budget
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 64).sx);
}

TEST_F(MetaserverFixture, DecisionPollsOnlyServersExportingTheEntry) {
  // 16 registered servers, 2 of which export ep: a freshness-0 decision
  // costs exactly 2 status polls, and the other 14 are never dialled.
  startServers(2, SchedulingPolicy::LeastLoad);
  meta_->setStatusFreshness(0.0);
  std::atomic<int> dials{0};
  for (int i = 0; i < 14; ++i) {
    meta_->addServer(entryOf(
        "dmmul-only-" + std::to_string(i),
        [port = ports_[0], &dials] {
          dials.fetch_add(1);
          return NinfClient::connectTcp("127.0.0.1", port);
        },
        {"dmmul"}));
  }
  obs::Counter& polls = obs::counter("metaserver.directory.polls");
  const double before = polls.value();
  const std::string picked = meta_->chooseServer("ep", {});
  EXPECT_TRUE(picked == "server-0" || picked == "server-1") << picked;
  EXPECT_EQ(polls.value() - before, 2.0);
  EXPECT_EQ(dials.load(), 0);
}

TEST_F(MetaserverFixture, BandwidthAwarePrefersFasterLink) {
  // Equal compute and load; server-1 declares 2 MB/s vs server-0's 1 MB/s,
  // so a communication-heavy dmmul should go to server-1 (the paper's
  // section 4.2.2 recommendation).
  startServers(2, SchedulingPolicy::BandwidthAware);
  const std::int64_t n = 64;
  std::vector<double> a(n * n), b(n * n), c(n * n);
  std::vector<ArgValue> args = {ArgValue::inInt(n), ArgValue::inArray(a),
                                ArgValue::inArray(b), ArgValue::outArray(c)};
  EXPECT_EQ(meta_->chooseServer("dmmul", args), "server-1");
}

TEST_F(MetaserverFixture, TransactionFansOutAcrossServers) {
  // The paper's metaserver EP pattern (section 4.3): p independent calls
  // inside a transaction, scheduled task-parallel.
  startServers(3, SchedulingPolicy::RoundRobin);
  constexpr std::int64_t kChunk = 512;
  constexpr int kCalls = 6;
  std::vector<std::vector<double>> sums(kCalls, std::vector<double>(2));
  std::vector<std::vector<double>> qs(kCalls, std::vector<double>(10));
  client::Transaction tx;
  for (int i = 0; i < kCalls; ++i) {
    tx.add("ep", {ArgValue::inInt(i * kChunk), ArgValue::inInt(kChunk),
                  ArgValue::outArray(sums[i]), ArgValue::outArray(qs[i])});
  }
  const auto results = meta_->runTransaction(tx);
  EXPECT_EQ(results.size(), static_cast<std::size_t>(kCalls));
  // Merged partials must equal the monolithic kernel run.
  double sx = 0;
  for (const auto& s : sums) sx += s[0];
  const auto whole = numlib::runEp(0, kCalls * kChunk);
  EXPECT_NEAR(sx, whole.sx, 1e-8);
}

TEST_F(MetaserverFixture, FailoverSkipsDeadServer) {
  // Fault tolerance (section 2.4): kill one server; dispatch must retry
  // on the survivor instead of surfacing a transport error.
  startServers(2, SchedulingPolicy::RoundRobin);
  servers_[0]->stop();  // round-robin would pick server-0 first
  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(256),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  EXPECT_NO_THROW(meta_->dispatch("ep", args));
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 256).sx);
}

TEST_F(MetaserverFixture, AllServersDeadEventuallyThrows) {
  startServers(2, SchedulingPolicy::RoundRobin);
  meta_->setMaxFailovers(3);
  servers_[0]->stop();
  servers_[1]->stop();
  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(16),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  EXPECT_THROW(meta_->dispatch("ep", args), Error);
}

TEST_F(MetaserverFixture, LeastLoadSkipsUnreachableServer) {
  startServers(2, SchedulingPolicy::LeastLoad);
  servers_[1]->stop();
  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(128),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  // Status polling of the dead server must not break selection.
  EXPECT_NO_THROW(meta_->dispatch("ep", args));
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 128).sx);
}

TEST_F(MetaserverFixture, BackgroundMonitoringUpdatesStatus) {
  startServers(2, SchedulingPolicy::RoundRobin);
  // Serve a couple of calls so completions are visible.
  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(64),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  meta_->dispatch("ep", args);
  meta_->dispatch("ep", args);
  meta_->startMonitoring(std::chrono::milliseconds(10));
  // Wait for at least one polling round.
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (meta_->lastStatus("server-0").completed +
            meta_->lastStatus("server-1").completed >=
        2) {
      break;
    }
  }
  meta_->stopMonitoring();
  EXPECT_EQ(meta_->lastStatus("server-0").completed +
                meta_->lastStatus("server-1").completed,
            2u);
}

TEST_F(MetaserverFixture, MonitoringSurvivesDeadServer) {
  startServers(2, SchedulingPolicy::RoundRobin);
  servers_[1]->stop();
  meta_->startMonitoring(std::chrono::milliseconds(10));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  meta_->stopMonitoring();  // must not hang or crash
  EXPECT_THROW(meta_->lastStatus("missing"), NotFoundError);
  SUCCEED();
}

/// In-process v2 status peers for the poll-round tests.  Each answers
/// Hello, then answers every ServerStatus after `delay` with its own
/// load, or, when mute, never answers.  Destroy after the metaserver
/// that dialled them: its hang-ups end the peer threads.
class ScriptedStatusPeers {
 public:
  ScriptedStatusPeers() = default;
  ScriptedStatusPeers(const ScriptedStatusPeers&) = delete;
  ScriptedStatusPeers& operator=(const ScriptedStatusPeers&) = delete;
  ~ScriptedStatusPeers() {
    for (auto& t : threads_) t.join();
  }

  client::ConnectionFactory factory(double load,
                                    std::chrono::milliseconds delay,
                                    bool mute = false) {
    return [this, load, delay, mute] {
      auto [near_end, far_end] = transport::inprocPair();
      threads_.emplace_back(
          [far = std::shared_ptr<transport::Stream>(std::move(far_end)), load,
           delay, mute] { serve(*far, load, delay, mute); });
      return std::make_unique<NinfClient>(std::move(near_end));
    };
  }

 private:
  static void serve(transport::Stream& s, double load,
                    std::chrono::milliseconds delay, bool mute) {
    try {
      protocol::recvMessage(s);  // Hello
      xdr::Encoder ack;
      protocol::HelloAck{protocol::kVersion2, std::nullopt}.encode(ack);
      protocol::sendFrame(s, protocol::WireMode::V1,
                          protocol::MessageType::HelloAck, ack);
      for (;;) {
        const auto request = protocol::recvHeader(s, protocol::WireMode::V2);
        protocol::BodyReader(s, request.length).drain();
        if (mute) continue;
        std::this_thread::sleep_for(delay);
        protocol::ServerStatusInfo status;
        status.load_average = load;
        protocol::sendFrame(s, protocol::WireMode::V2,
                            protocol::MessageType::StatusReply,
                            status.toBytes(), request.call_id);
      }
    } catch (const Error&) {
      // The metaserver hung up.
    }
  }

  // Factories run on the deciding thread only.
  std::vector<std::thread> threads_;
};

TEST(MetaserverPollRound, SlowServersCostOneRoundNotOnePerServer) {
  // 8 peers answering each status poll 50 ms late: polled one after
  // another a decision would take 400 ms; as one round it takes ~50.
  ScriptedStatusPeers peers;
  Metaserver meta(SchedulingPolicy::LeastLoad);
  meta.setStatusFreshness(0.0);
  const std::vector<double> loads = {5, 3, 7, 1.5, 6, 0.5, 4, 2};
  for (std::size_t i = 0; i < loads.size(); ++i) {
    meta.addServer(
        entryOf("peer-" + std::to_string(i),
                peers.factory(loads[i], std::chrono::milliseconds(50))));
  }
  EXPECT_EQ(meta.chooseServer("ep", {}), "peer-5");  // dials every peer
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(meta.chooseServer("ep", {}), "peer-5");
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            0.15);
}

TEST(MetaserverPollRound, MuteServersCostOnePollTimeout) {
  // 4 peers that answer Hello and then go mute, each believed reachable
  // (as a replicated digest leaves them): the decision gives up after
  // one poll timeout, not four, and marks every one unreachable.
  ScriptedStatusPeers peers;
  Metaserver meta(SchedulingPolicy::LeastLoad);
  meta.setStatusFreshness(0.0);
  meta.setPollTimeout(0.1);
  std::vector<protocol::LivenessRecord> digest;
  for (int i = 0; i < 4; ++i) {
    const std::string name = "mute-" + std::to_string(i);
    meta.addServer(entryOf(
        name, peers.factory(0.0, std::chrono::milliseconds(0), /*mute=*/true)));
    protocol::LivenessRecord rec;
    rec.server_name = name;
    rec.reachable = 1;
    digest.push_back(rec);
  }
  meta.directory().adoptLiveness(digest);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(meta.chooseServer("ep", {}), NotFoundError);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            0.3);
  for (const auto& rec : meta.directory().livenessDigest()) {
    EXPECT_EQ(rec.reachable, 0u) << rec.server_name;
  }
}

TEST(MetaserverPollRound, CachedDecisionsCountTheirPicksUntilTheNextPoll) {
  // Two idle peers at a 60 s freshness: once one decision has polled
  // both, the next ones score the same cached statuses.  Each pick
  // counts against its server until that server's next poll, so the
  // decisions alternate instead of all taking the first of a tie.
  ScriptedStatusPeers peers;
  Metaserver meta(SchedulingPolicy::LeastLoad);
  meta.setStatusFreshness(60.0);
  for (int i = 0; i < 2; ++i) {
    meta.addServer(entryOf("peer-" + std::to_string(i),
                           peers.factory(0.0, std::chrono::milliseconds(0))));
  }
  obs::Counter& polls = obs::counter("metaserver.directory.polls");
  const double before = polls.value();
  EXPECT_EQ(meta.chooseServer("ep", {}), "peer-0");  // dials and polls both
  ASSERT_EQ(polls.value() - before, 2.0);
  std::map<std::string, int> picked;
  for (int i = 0; i < 8; ++i) ++picked[meta.chooseServer("ep", {})];
  EXPECT_EQ(polls.value() - before, 2.0);  // all from the cache
  EXPECT_EQ(picked["peer-0"], 4);
  EXPECT_EQ(picked["peer-1"], 4);
  // The counts stay out of what the directory reports as polled.
  for (const auto& rec : meta.directory().livenessDigest()) {
    EXPECT_EQ(rec.running + rec.queued, 0u) << rec.server_name;
  }
  // A completed poll clears its server's count: peer-0 (5 picks) now
  // scores 0 against peer-1's 4, and takes the next four decisions.
  meta.poll("peer-0");
  for (int i = 0; i < 4; ++i) EXPECT_EQ(meta.chooseServer("ep", {}), "peer-0");
  EXPECT_EQ(meta.lastStatus("peer-0").queued, 0u);
}

TEST(MetaserverPollRound, UnreachableServersAreNotRedialledWithinTheFreshness) {
  // One live peer and one server whose every dial fails.  The first
  // decision dials it once and marks it unreachable; inside the 60 s
  // freshness window the next decisions settle it from the cache, with
  // no dial and no poll.  At freshness 0 every decision dials it again.
  ScriptedStatusPeers peers;
  Metaserver meta(SchedulingPolicy::LeastLoad);
  meta.setStatusFreshness(60.0);
  meta.addServer(
      entryOf("live", peers.factory(0.0, std::chrono::milliseconds(0))));
  int dials = 0;  // the factory runs on the deciding thread only
  meta.addServer(entryOf("down", [&dials]() -> std::unique_ptr<NinfClient> {
    ++dials;
    throw TransportError("connection refused");
  }));
  EXPECT_EQ(meta.chooseServer("ep", {}), "live");
  EXPECT_EQ(dials, 1);
  obs::Counter& polls = obs::counter("metaserver.directory.polls");
  const double before = polls.value();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(meta.chooseServer("ep", {}), "live");
  EXPECT_EQ(dials, 1);
  EXPECT_EQ(polls.value(), before);
  meta.setStatusFreshness(0.0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(meta.chooseServer("ep", {}), "live");
  EXPECT_EQ(dials, 6);
}

TEST(MetaserverPollRound, ServerDeregisteredDuringTheRoundIsNeverPicked) {
  // The decision waits 200 ms on a's poll; meanwhile a is deregistered.
  // The pick must be the least-loaded server still registered, b — not
  // whichever server slid into a table slot the round started with.
  ScriptedStatusPeers peers;
  Metaserver meta(SchedulingPolicy::LeastLoad);
  meta.setStatusFreshness(0.0);
  const std::vector<std::pair<std::string, double>> servers = {
      {"a", 5}, {"b", 0}, {"c", 2}};
  for (const auto& [name, load] : servers) {
    ServerEntry e = entryOf(
        name, peers.factory(load, std::chrono::milliseconds(
                                      name == "a" ? 200 : 0)));
    e.endpoint = name + ":7000";
    meta.addServer(std::move(e));
  }
  // Dial and negotiate every status channel first, so the next round's
  // polls are all sent before the deregistration lands.
  ASSERT_EQ(meta.chooseServer("ep", {}), "b");

  auto decision = std::async(std::launch::async,
                             [&] { return meta.chooseServer("ep", {}); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  protocol::RegistryOp dereg;
  dereg.kind = protocol::RegistryOp::Kind::Deregister;
  dereg.reg_epoch = 1;
  dereg.desc.name = "a";
  dereg.desc.endpoint = "a:7000";
  EXPECT_EQ(meta.directory().apply(dereg),
            protocol::RegisterResult::Status::Applied);
  EXPECT_EQ(decision.get(), "b");
  EXPECT_EQ(meta.serverCount(), 2u);
}

TEST(Metaserver, StopWithoutStartIsFine) {
  Metaserver meta;
  meta.stopMonitoring();
  SUCCEED();
}

TEST(Metaserver, NoServersThrows) {
  Metaserver meta(SchedulingPolicy::RoundRobin);
  std::vector<ArgValue> args;
  EXPECT_THROW(meta.dispatch("ep", args), std::logic_error);
}

TEST(Metaserver, DuplicateServerNameRejected) {
  Metaserver meta;
  auto factory = [] {
    return std::unique_ptr<NinfClient>{};
  };
  meta.addServer({.name = "s", .factory = factory});
  EXPECT_THROW(meta.addServer({.name = "s", .factory = factory}),
               std::logic_error);
}

TEST(Metaserver, PolicyNames) {
  EXPECT_STREQ(schedulingPolicyName(SchedulingPolicy::RoundRobin),
               "round-robin");
  EXPECT_STREQ(schedulingPolicyName(SchedulingPolicy::LeastLoad),
               "least-load");
  EXPECT_STREQ(schedulingPolicyName(SchedulingPolicy::BandwidthAware),
               "bandwidth-aware");
}

}  // namespace
}  // namespace ninf::metaserver
