// Session layer: call-ID multiplexing on one shared connection, protocol
// negotiation (v1 interop), failure semantics of in-flight calls, and the
// endpoint-keyed connection pool.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/connection_pool.h"
#include "common/error.h"
#include "numlib/ep.h"
#include "obs/metrics.h"
#include "protocol/message.h"
#include "reactor_probe.h"
#include "server/server.h"
#include "transport/fault_injection.h"
#include "transport/inproc_transport.h"
#include "transport/tcp_transport.h"
#include "v1_peer.h"
#include "xdr/xdr.h"

namespace ninf {
namespace {

using client::CallOptions;
using client::ConnectionPool;
using client::NinfClient;
using client::PoolOptions;
using protocol::ArgValue;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// TCP server with the standard executables plus "nap", which just holds
/// a worker for `ms` milliseconds — the clearest probe of whether calls
/// on one connection actually overlap.
class SessionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server::registerStandardExecutables(registry_);
    registry_.add(
        R"IDL(Define nap(mode_in long ms, mode_out double echo[1])
           "hold a worker for ms milliseconds",
           CalcOrder 1,
           Calls "C" nap(ms, echo);)IDL",
        [](server::CallContext& ctx) {
          const auto ms = ctx.intArg("ms");
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
          ctx.arrayOut("echo")[0] = static_cast<double>(ms);
        });
    server_.emplace(registry_, server::ServerOptions{.workers = 4});
    listener_ = std::make_shared<transport::TcpListener>(0);
    port_ = listener_->port();
    server().start(listener_);
  }

  void TearDown() override { server().stop(); }

  double nap(NinfClient& client, std::int64_t ms,
             const CallOptions& opts = {}) {
    std::vector<double> echo(1);
    std::vector<ArgValue> args = {ArgValue::inInt(ms),
                                  ArgValue::outArray(echo)};
    client.call("nap", args, opts);
    return echo[0];
  }

  server::Registry registry_;
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  server::NinfServer& server() { return *server_; }
  std::optional<server::NinfServer> server_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::uint16_t port_ = 0;
};

TEST_F(SessionFixture, NegotiatesProtocolV2) {
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  EXPECT_DOUBLE_EQ(nap(*client, 1), 1.0);
  EXPECT_EQ(client->channel().negotiatedVersion(), protocol::kVersion2);
}

TEST_F(SessionFixture, V1ClientRoundTripsAgainstV2Server) {
  // A pre-negotiation client must keep working against an upgraded
  // server: no Hello, classic lock-step framing.
  V1Peer v1(transport::tcpConnect("127.0.0.1", port_));
  std::vector<double> echo(1);
  const std::vector<ArgValue> args = {ArgValue::inInt(1),
                                      ArgValue::outArray(echo)};
  v1.call("nap", args);
  EXPECT_DOUBLE_EQ(echo[0], 1.0);
  std::uint32_t listed = 0;
  v1.exchange(protocol::MessageType::ListExecutables, xdr::Encoder{},
              [&](const protocol::FrameHeader& reply, xdr::Source& src) {
                EXPECT_EQ(reply.type, protocol::MessageType::ExecutableList);
                listed = src.getU32();
              });
  EXPECT_EQ(listed, registry_.size());
}

TEST_F(SessionFixture, OneConnectionSustainsWorkersConcurrentCalls) {
  // Acceptance: with 4 workers and 4 concurrent 250 ms naps multiplexed
  // on ONE connection, wall time is about one nap — not four.  The old
  // lock-step connection would serialize them (>= 1 s).
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  constexpr int kCalls = 4;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < kCalls; ++i) {
    threads.emplace_back([&] {
      if (nap(*client, 250) == 250.0) ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kCalls);
  EXPECT_LT(secondsSince(start), 0.75);  // serial would take >= 1.0 s
}

TEST_F(SessionFixture, RepliesReturnOutOfOrderWithTimingsIntact) {
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  std::chrono::steady_clock::time_point slow_done, fast_done;
  std::thread slow([&] {
    EXPECT_DOUBLE_EQ(nap(*client, 400), 400.0);
    slow_done = std::chrono::steady_clock::now();
  });
  // Let the slow call reach the server first.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<double> echo(1);
  std::vector<ArgValue> args = {ArgValue::inInt(10),
                                ArgValue::outArray(echo)};
  const auto fast = client->call("nap", args);
  fast_done = std::chrono::steady_clock::now();
  slow.join();
  EXPECT_DOUBLE_EQ(echo[0], 10.0);
  // The fast reply overtook the slow one on the shared connection.
  EXPECT_LT(fast_done + std::chrono::milliseconds(100), slow_done);
  // Per-call accounting survived the demultiplexing.
  EXPECT_GT(fast.elapsed, 0.0);
  EXPECT_LT(fast.elapsed, 0.3);
  EXPECT_GE(fast.server.waitTime(), 0.0);
  EXPECT_GT(fast.bytes_sent, 0);
  EXPECT_GT(fast.bytes_received, 0);
}

TEST_F(SessionFixture, ServerStopFailsEveryInflightCallTyped) {
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  EXPECT_DOUBLE_EQ(nap(*client, 1), 1.0);  // negotiate before the cut
  constexpr int kCalls = 4;
  std::atomic<int> typed{0}, wrong{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kCalls; ++i) {
    threads.emplace_back([&] {
      try {
        nap(*client, 2000);
        wrong.fetch_add(1);  // must not outlive the server
      } catch (const TransportError&) {
        typed.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  server().stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(typed.load(), kCalls);
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(SessionFixture, TimeoutAbandonsOneCallOthersSurvive) {
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  std::thread slow([&] {
    // Long nap, generous deadline: must complete even while a sibling
    // call on the same connection times out.
    CallOptions opts;
    opts.deadline_seconds = 10.0;
    EXPECT_DOUBLE_EQ(nap(*client, 600, opts), 600.0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  CallOptions tight;
  tight.deadline_seconds = 0.1;
  EXPECT_THROW(nap(*client, 5000, tight), TimeoutError);
  slow.join();
  // The channel is still healthy after the abandoned call.
  EXPECT_DOUBLE_EQ(nap(*client, 1), 1.0);
}

TEST_F(SessionFixture, FaultPlanResetMidMultiplexNeverMixesReplies) {
  // Chaos: a seeded fault plan resets sends while several threads share
  // one multiplexed connection.  Invariant: every call either returns
  // the result of ITS OWN arguments or throws a typed error — never a
  // reply belonging to another call, never a hang.
  transport::FaultSpec spec;
  spec.reset = 0.15;
  auto plan = std::make_shared<transport::FaultPlan>(42, spec);
  auto client = std::make_unique<NinfClient>(
      transport::wrapFaulty(transport::tcpConnect("127.0.0.1", port_), plan));
  client->setReconnect([this, plan] {
    transport::checkConnectFault(*plan, "127.0.0.1");
    return transport::wrapFaulty(transport::tcpConnect("127.0.0.1", port_),
                                 plan);
  });
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 6;
  std::atomic<int> correct{0}, failed{0}, corrupt{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const std::int64_t first = (t * kCallsPerThread + i) * 64;
        const std::int64_t count = 64 + t;  // distinct per thread
        std::vector<double> sums(2), q(10);
        std::vector<ArgValue> args = {ArgValue::inInt(first),
                                      ArgValue::inInt(count),
                                      ArgValue::outArray(sums),
                                      ArgValue::outArray(q)};
        CallOptions opts;
        opts.deadline_seconds = 15.0;
        opts.retries = 6;
        opts.backoff_seconds = 0.001;
        try {
          client->call("ep", args, opts);
          const auto expected = numlib::runEp(first, count);
          if (sums[0] == expected.sx && sums[1] == expected.sy) {
            correct.fetch_add(1);
          } else {
            corrupt.fetch_add(1);
          }
        } catch (const Error&) {
          failed.fetch_add(1);  // typed failure is within the contract
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(correct.load() + failed.load(), kThreads * kCallsPerThread);
  EXPECT_GT(correct.load(), 0);  // the plan must not kill everything
}

/// Client stream whose first sendv after hold() runs a scripted action
/// (a sleep, or a wait that ends in a throw) before it forwards: a
/// group-commit flusher stalled, or failing, inside its writev.
class HeldSendStream : public transport::Stream {
 public:
  explicit HeldSendStream(std::unique_ptr<transport::Stream> inner)
      : inner_(std::move(inner)) {}

  void hold(std::function<void()> action) {
    action_ = std::move(action);
    armed_.store(true);
  }
  /// True once a sendv entered the held action.
  bool holding() const { return holding_.load(); }

  void sendv(std::span<const std::span<const std::uint8_t>> buffers) override {
    if (armed_.exchange(false)) {
      holding_.store(true);
      action_();
    }
    inner_->sendv(buffers);
  }
  void recvAll(std::span<std::uint8_t> buffer) override {
    inner_->recvAll(buffer);
  }
  std::size_t recvSome(std::span<std::uint8_t> buffer) override {
    return inner_->recvSome(buffer);
  }
  void setDeadline(std::chrono::steady_clock::time_point deadline) override {
    inner_->setDeadline(deadline);
  }
  void shutdownSend() override { inner_->shutdownSend(); }
  void close() override { inner_->close(); }
  std::string peerName() const override { return inner_->peerName(); }

 private:
  std::unique_ptr<transport::Stream> inner_;
  std::function<void()> action_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> holding_{false};
};

TEST_F(SessionFixture, FollowerDeadlineHoldsWhileAFlushIsStalled) {
  // A caller whose frame joins a group-commit flush already on the wire
  // waits only on its reply, so its deadline holds even while another
  // caller's writev is stuck.
  auto held = std::make_unique<HeldSendStream>(
      transport::tcpConnect("127.0.0.1", port_));
  HeldSendStream& wire = *held;
  NinfClient client(std::move(held));
  EXPECT_DOUBLE_EQ(nap(client, 0), 0.0);  // negotiate, cache the interface
  wire.hold(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(500)); });
  std::thread leader([&] { EXPECT_DOUBLE_EQ(nap(client, 1), 1.0); });
  ASSERT_TRUE(waitFor([&] { return wire.holding(); }));

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(nap(client, 0, CallOptions{.deadline_seconds = 0.05}),
               TimeoutError);
  EXPECT_LT(secondsSince(start), 0.2) << "the follower waited for the wire";
  leader.join();
  // The abandoned call's late reply is drained as an orphan.
  EXPECT_DOUBLE_EQ(nap(client, 2), 2.0);
  EXPECT_FALSE(client.channel().broken());
}

TEST_F(SessionFixture, FailedWaveFailsEveryQueuedCallThenChannelRecovers) {
  // The flusher's writev fails with three followers' frames queued behind
  // it.  Every one of the four calls fails with TransportError inside its
  // deadline, none hangs, and the channel reconnects to serve again.
  auto held = std::make_unique<HeldSendStream>(
      transport::tcpConnect("127.0.0.1", port_));
  HeldSendStream* wire = held.get();  // destroyed by the reconnect
  NinfClient client(std::move(held));
  client.setReconnect(
      [this] { return transport::tcpConnect("127.0.0.1", port_); });
  EXPECT_DOUBLE_EQ(nap(client, 0), 0.0);
  std::atomic<bool> release{false};
  wire->hold([&] {
    waitFor([&] { return release.load(); }, 5.0);
    throw TransportError("scripted wave failure");
  });

  constexpr double kDeadline = 2.0;
  std::atomic<int> failed_in_time{0};
  std::atomic<int> other{0};
  const auto call = [&] {
    const auto start = std::chrono::steady_clock::now();
    try {
      nap(client, 1, CallOptions{.deadline_seconds = kDeadline});
      other.fetch_add(1);
    } catch (const TimeoutError&) {
      other.fetch_add(1);
    } catch (const TransportError&) {
      (secondsSince(start) < kDeadline ? failed_in_time : other).fetch_add(1);
    }
  };
  obs::Gauge& inflight = obs::gauge("channel.inflight");
  const double inflight0 = inflight.value();
  std::thread leader(call);
  ASSERT_TRUE(waitFor([&] { return wire->holding(); }));
  std::vector<std::thread> followers;
  for (int i = 0; i < 3; ++i) followers.emplace_back(call);
  ASSERT_TRUE(waitFor([&] { return inflight.value() >= inflight0 + 4; }));
  // Registered calls enqueue their frames right after; let them land.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release = true;
  leader.join();
  for (auto& f : followers) f.join();
  EXPECT_EQ(failed_in_time.load(), 4);
  EXPECT_EQ(other.load(), 0);

  EXPECT_DOUBLE_EQ(nap(client, 3), 3.0);
  EXPECT_FALSE(client.channel().broken());
}

TEST_F(SessionFixture, PeerClosingOnHelloFailsTheCallAndReconnectsToV2) {
  // A peer that drops the connection on Hello is a failed handshake like
  // any other send failure: the call surfaces TransportError, and the
  // next exchange reconnects through the factory and negotiates v2.  The
  // channel is never downgraded to lock-step v1.
  auto [c1, s1] = transport::inprocPair();
  NinfClient client(std::move(c1));
  client.setReconnect(
      [this] { return transport::tcpConnect("127.0.0.1", port_); });
  std::thread closer([&s1] {
    (void)protocol::recvMessage(*s1);  // the Hello
    s1->close();
  });
  EXPECT_THROW(client.ping(), TransportError);
  closer.join();
  EXPECT_GE(client.ping(), 0.0);
  EXPECT_EQ(client.channel().negotiatedVersion(), protocol::kVersion2);
  EXPECT_DOUBLE_EQ(nap(client, 1), 1.0);
}

TEST(ChannelStall, MidReplyStallBoundsDeadlinedCallAndBreaksChannel) {
  // A v2 peer that sends a reply header (so the call enters the
  // Consuming state) but stalls mid-body must not wedge the caller past
  // its deadline plus the grace window: the channel is declared broken,
  // the stream is closed, and the caller gets TimeoutError.
  auto [c_end, s_end] = transport::inprocPair();
  auto client = std::make_unique<NinfClient>(std::move(c_end));
  client->channel().setMidReplyGrace(0.1);

  std::thread stalling_server([&s_end] {
    const auto hello = protocol::recvMessage(*s_end);
    EXPECT_EQ(hello.type, protocol::MessageType::Hello);
    xdr::Encoder ack;
    protocol::HelloAck{protocol::kVersion2, std::nullopt}.encode(ack);
    protocol::sendFrame(*s_end, protocol::WireMode::V1,
                        protocol::MessageType::HelloAck, ack);
    const auto request = protocol::recvHeader(*s_end, protocol::WireMode::V2);
    protocol::BodyReader body(*s_end, request.length);
    body.drain();
    // Reply header promises 64 body bytes; deliver 8, then go mute.
    const std::array<std::uint8_t, 64> promised{};
    const common::PooledBuffer header = protocol::frameHeaderPooled(
        protocol::WireMode::V2, protocol::MessageType::Pong, request.call_id,
        {}, promised.size());
    const std::span<const std::uint8_t> partial[2] = {
        header.span(), std::span(promised).first(8)};
    s_end->sendv(partial);
    // Hold the connection open until the client abandons the wire.
    try {
      std::uint8_t byte;
      s_end->recvAll(std::span(&byte, 1));
    } catch (const Error&) {
    }
  });

  const auto start = std::chrono::steady_clock::now();
  const double stalls_before =
      obs::counter("channel.mid_reply_stalls").value();
  EXPECT_THROW(client->ping(0, 0.25), TimeoutError);
  EXPECT_LT(secondsSince(start), 2.0);  // deadline + grace, not forever
  EXPECT_TRUE(client->channel().broken());
  EXPECT_GE(obs::counter("channel.mid_reply_stalls").value() - stalls_before,
            1.0);
  // The poisoned channel cannot be reused (no reconnect factory here).
  EXPECT_THROW(client->ping(), TransportError);
  stalling_server.join();
}

TEST(ChannelPending, DroppedWithoutWaitAbandonsTheCallAndChannelLivesOn) {
  // A v2 peer that answers every request 50 ms late.  An exchange that
  // is started and dropped before its reply arrives leaves the in-flight
  // gauge where it was, without counting a timeout; its late reply is
  // drained as an orphan and the next exchange on the channel succeeds.
  auto [c_end, s_end] = transport::inprocPair();
  auto client = std::make_unique<NinfClient>(std::move(c_end));

  std::thread slow_server([&s_end] {
    const auto hello = protocol::recvMessage(*s_end);
    EXPECT_EQ(hello.type, protocol::MessageType::Hello);
    xdr::Encoder ack;
    protocol::HelloAck{protocol::kVersion2, std::nullopt}.encode(ack);
    protocol::sendFrame(*s_end, protocol::WireMode::V1,
                        protocol::MessageType::HelloAck, ack);
    try {
      for (;;) {
        const auto request =
            protocol::recvHeader(*s_end, protocol::WireMode::V2);
        std::vector<std::uint8_t> payload(request.length);
        s_end->recvAll(payload);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        protocol::sendFrame(*s_end, protocol::WireMode::V2,
                            protocol::MessageType::Pong, payload,
                            request.call_id);
      }
    } catch (const Error&) {
      // The client hung up.
    }
  });

  obs::Gauge& inflight = obs::gauge("channel.inflight");
  const double inflight_before = inflight.value();
  const double timeouts_before = obs::counter("channel.call_timeouts").value();
  const double orphans_before = obs::counter("channel.orphan_replies").value();
  bool consumed = false;
  {
    const xdr::Encoder empty;
    client::Channel::Pending dropped = client->channel().start(
        protocol::MessageType::Ping, empty,
        [&consumed](const client::Channel::Reply&, xdr::Source&) {
          consumed = true;
        },
        std::chrono::steady_clock::now() + std::chrono::seconds(5));
    EXPECT_EQ(inflight.value(), inflight_before + 1);
  }
  EXPECT_EQ(inflight.value(), inflight_before);
  EXPECT_EQ(obs::counter("channel.call_timeouts").value(), timeouts_before);

  EXPECT_GE(client->ping(0, 2.0), 0.0);
  EXPECT_FALSE(consumed);
  EXPECT_GE(obs::counter("channel.orphan_replies").value() - orphans_before,
            1.0);
  EXPECT_EQ(inflight.value(), inflight_before);
  client.reset();
  slow_server.join();
}

/// Pool behavior against one live TCP server.
class PoolFixture : public SessionFixture {
 protected:
  ConnectionPool::Factory countingFactory() {
    return [this] {
      created_.fetch_add(1);
      return NinfClient::connectTcp("127.0.0.1", port_);
    };
  }

  std::atomic<int> created_{0};
};

TEST_F(PoolFixture, ReleaseThenAcquireReusesTheConnection) {
  ConnectionPool pool;
  const double hits_before = obs::counter("pool.hits").value();
  const double misses_before = obs::counter("pool.misses").value();
  {
    auto lease = pool.acquire("srv", countingFactory());
    EXPECT_GE(lease->ping(), 0.0);  // connection is usable
    EXPECT_EQ(pool.inUseCount(), 1u);
  }
  EXPECT_EQ(pool.idleCount(), 1u);
  {
    auto lease = pool.acquire("srv", countingFactory());
    EXPECT_EQ(pool.idleCount(), 0u);
  }
  EXPECT_EQ(created_.load(), 1);  // second acquire reused, not rebuilt
  EXPECT_DOUBLE_EQ(obs::counter("pool.hits").value() - hits_before, 1.0);
  EXPECT_DOUBLE_EQ(obs::counter("pool.misses").value() - misses_before, 1.0);
}

TEST_F(PoolFixture, LargePingsOnFourThreadsThroughEveryConnectionMode) {
  // 4 threads send 4 pings of 64 KiB each through a fresh connection per
  // call, one shared v2 channel, and a pool lease per call.  ping()
  // throws on an echo that differs from what it sent.
  constexpr int kThreads = 4;
  constexpr int kPings = 4;
  constexpr std::size_t kBytes = 64 * 1024;
  const auto failuresOf = [&](const std::function<void()>& ping) {
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kPings; ++i) {
          try {
            ping();
          } catch (const Error&) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    return failures.load();
  };

  EXPECT_EQ(failuresOf([&] {
              NinfClient::connectTcp("127.0.0.1", port_)->ping(kBytes);
            }),
            0)
      << "connection per call";

  auto shared = NinfClient::connectTcp("127.0.0.1", port_);
  EXPECT_EQ(failuresOf([&] { shared->ping(kBytes); }), 0) << "shared channel";
  EXPECT_EQ(shared->channel().negotiatedVersion(), protocol::kVersion2);

  ConnectionPool pool(PoolOptions{.max_idle_per_endpoint = 4});
  EXPECT_EQ(failuresOf([&] {
              pool.acquire("srv", countingFactory())->ping(kBytes);
            }),
            0)
      << "pooled";
  EXPECT_LE(pool.idleCount(), 4u);
}

TEST_F(PoolFixture, DistinctEndpointsDoNotShareConnections) {
  ConnectionPool pool;
  { auto lease = pool.acquire("a", countingFactory()); }
  { auto lease = pool.acquire("b", countingFactory()); }
  EXPECT_EQ(created_.load(), 2);
  EXPECT_EQ(pool.idleCount(), 2u);
}

TEST_F(PoolFixture, OverflowBeyondMaxIdleIsEvicted) {
  PoolOptions options;
  options.max_idle_per_endpoint = 1;
  ConnectionPool pool(options);
  {
    auto first = pool.acquire("srv", countingFactory());
    auto second = pool.acquire("srv", countingFactory());
    EXPECT_EQ(pool.inUseCount(), 2u);
  }
  EXPECT_EQ(pool.idleCount(), 1u);  // one kept, one closed on return
}

TEST_F(PoolFixture, TtlEvictsStaleIdleConnections) {
  PoolOptions options;
  options.idle_ttl_seconds = 0.05;
  ConnectionPool pool(options);
  { auto lease = pool.acquire("srv", countingFactory()); }
  EXPECT_EQ(pool.idleCount(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  { auto lease = pool.acquire("srv", countingFactory()); }
  EXPECT_EQ(created_.load(), 2);  // stale idle entry was not reused
}

TEST_F(PoolFixture, BrokenConnectionIsNeverPooled) {
  ConnectionPool pool;
  {
    auto lease = pool.acquire("srv", countingFactory());
    lease->close();  // marks the channel broken
  }
  EXPECT_EQ(pool.idleCount(), 0u);
}

TEST_F(PoolFixture, DiscardedLeaseIsNotReturned) {
  ConnectionPool pool;
  {
    auto lease = pool.acquire("srv", countingFactory());
    lease.discard();
  }
  EXPECT_EQ(pool.idleCount(), 0u);
  EXPECT_EQ(pool.inUseCount(), 0u);
}

TEST(ConnectionPoolHealth, StalledPeerHealthCheckIsBoundedAndEvicted) {
  // A pooled connection whose peer is open but unresponsive must not
  // wedge acquire(): the health-check ping is deadline-bounded, the
  // stalled entry is evicted on timeout, and a fresh connection is built
  // through the factory.
  PoolOptions options;
  options.health_check_after_seconds = 0.0;  // ping on every reuse
  options.health_check_timeout_seconds = 0.1;
  ConnectionPool pool(options);
  std::vector<std::unique_ptr<transport::Stream>> peers;  // open, mute
  int created = 0;
  ConnectionPool::Factory factory = [&] {
    auto [near_end, far_end] = transport::inprocPair();
    peers.push_back(std::move(far_end));
    ++created;
    return std::make_unique<NinfClient>(std::move(near_end));
  };
  { auto lease = pool.acquire("stalled", factory); }  // fresh: no check
  EXPECT_EQ(pool.idleCount(), 1u);
  const double dead_before = obs::counter("pool.dead_evictions").value();
  const auto start = std::chrono::steady_clock::now();
  { auto lease = pool.acquire("stalled", factory); }
  EXPECT_LT(secondsSince(start), 1.0);  // bounded, not wedged
  EXPECT_EQ(created, 2);                // stalled entry evicted, rebuilt
  EXPECT_GE(obs::counter("pool.dead_evictions").value() - dead_before, 1.0);
}

/// Inproc stream that proves it is being destroyed OUTSIDE the pool
/// lock: the destructor queries the pool (self-deadlock under a
/// non-recursive mutex if the lock were held — the lock-order checker
/// flags it first) and then dawdles, so a regression also shows up as
/// acquire() latency on unrelated endpoints.
class EvictionCanaryStream : public transport::Stream {
 public:
  EvictionCanaryStream(std::unique_ptr<transport::Stream> inner,
                       ConnectionPool* pool, std::atomic<int>* probes)
      : inner_(std::move(inner)), pool_(pool), probes_(probes) {}

  ~EvictionCanaryStream() override {
    (void)pool_->idleCount();  // deadlocks if destroyed under the pool lock
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    probes_->fetch_add(1);
  }

  void sendv(std::span<const std::span<const std::uint8_t>> buffers) override {
    inner_->sendv(buffers);
  }
  void recvAll(std::span<std::uint8_t> buffer) override {
    inner_->recvAll(buffer);
  }
  void setDeadline(std::chrono::steady_clock::time_point d) override {
    inner_->setDeadline(d);
  }
  void shutdownSend() override { inner_->shutdownSend(); }
  void close() override { inner_->close(); }
  std::string peerName() const override { return inner_->peerName(); }

 private:
  std::unique_ptr<transport::Stream> inner_;
  ConnectionPool* pool_;
  std::atomic<int>* probes_;
};

TEST(ConnectionPoolEviction, TtlEvictionDestroysConnectionsOutsideTheLock) {
  PoolOptions options;
  options.idle_ttl_seconds = 0.03;
  options.health_check_after_seconds = 1e9;  // never ping (peers are mute)
  ConnectionPool pool(options);

  Mutex peers_mutex{"test.peers"};
  std::vector<std::unique_ptr<transport::Stream>> peers;  // keep ends open
  std::atomic<int> canary_probes{0};
  ConnectionPool::Factory factory = [&] {
    auto [near_end, far_end] = transport::inprocPair();
    {
      LockGuard lock(peers_mutex);
      peers.push_back(std::move(far_end));
    }
    return std::make_unique<NinfClient>(
        std::make_unique<EvictionCanaryStream>(std::move(near_end), &pool,
                                               &canary_probes));
  };

  {
    auto first = pool.acquire("srv", factory);
    auto second = pool.acquire("srv", factory);
  }
  EXPECT_EQ(pool.idleCount(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));  // pass the TTL

  // This acquire sheds both stale entries; their canary destructors (2 x
  // 80 ms + a pool query each) must run with the pool unlocked.
  std::thread evictor([&] { auto lease = pool.acquire("srv", factory); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // mid-eviction

  // Meanwhile the pool stays responsive for everyone else.
  const auto start = std::chrono::steady_clock::now();
  { auto lease = pool.acquire("other", factory); }
  EXPECT_LT(secondsSince(start), 0.05)
      << "slow eviction destructors must not serialize unrelated acquires";

  evictor.join();
  EXPECT_GE(canary_probes.load(), 2);  // both stale canaries fully destroyed
}

TEST_F(PoolFixture, DeadPeerFailsHealthCheckAndIsReplaced) {
  PoolOptions options;
  options.health_check_after_seconds = 0.0;  // ping on every reuse
  ConnectionPool pool(options);
  { auto lease = pool.acquire("srv", countingFactory()); }
  server().stop();  // the pooled connection's peer is now gone
  const double dead_before = obs::counter("pool.dead_evictions").value();
  EXPECT_THROW(
      { auto lease = pool.acquire("srv", countingFactory()); },
      TransportError);  // idle entry evicted, factory can't connect either
  EXPECT_GE(obs::counter("pool.dead_evictions").value() - dead_before, 1.0);
}

}  // namespace
}  // namespace ninf
