// Deadline and retry semantics: a stalled peer trips the recv deadline
// instead of hanging, a retrying call recovers from an injected
// mid-stream reset, and the metaserver's cooldown keeps a flapping
// server from being re-picked attempt after attempt.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "metaserver/metaserver.h"
#include "numlib/ep.h"
#include "numlib/matrix.h"
#include "numlib/mmul.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "stream_send.h"
#include "transport/fault_injection.h"
#include "transport/inproc_transport.h"
#include "transport/tcp_transport.h"

namespace ninf {
namespace {

using client::CallOptions;
using client::NinfClient;
using protocol::ArgValue;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(Deadline, TcpRecvDeadlineFiresOnStalledPeer) {
  transport::TcpListener listener(0);
  auto server_side = std::async(std::launch::async, [&] {
    // Accept and hold the connection open without ever sending: the
    // classic stalled peer.  Returning the stream keeps it alive until
    // the client has timed out (a destructor-close would look like a
    // reset, not a stall).
    return listener.accept();
  });
  auto client = transport::tcpConnect("127.0.0.1", listener.port());
  client->setDeadlineIn(0.1);
  const auto start = std::chrono::steady_clock::now();
  std::uint8_t buf[4];
  EXPECT_THROW(client->recvAll(buf), TimeoutError);
  EXPECT_LT(secondsSince(start), 5.0);
  auto held = server_side.get();
}

TEST(Deadline, InprocRecvDeadlineFires) {
  auto [a, b] = transport::inprocPair();
  b->setDeadlineIn(0.05);
  const auto start = std::chrono::steady_clock::now();
  std::uint8_t buf[1];
  EXPECT_THROW(b->recvAll(buf), TimeoutError);
  EXPECT_LT(secondsSince(start), 5.0);
}

TEST(Deadline, TimeoutErrorIsTransportError) {
  // Failover and retry paths catch TransportError generically; a timeout
  // must flow through them.
  try {
    throw TimeoutError("x");
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("timeout"), std::string::npos);
  }
}

TEST(Deadline, ClearDeadlineDisables) {
  auto [a, b] = transport::inprocPair();
  b->setDeadlineIn(0.02);
  b->clearDeadline();
  auto sender = std::async(std::launch::async, [&a = a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const std::uint8_t one = 7;
    sendBytes(*a, {&one, 1});
  });
  // Data arrives well after the (cleared) deadline would have fired.
  std::uint8_t buf[1];
  b->recvAll(buf);
  EXPECT_EQ(buf[0], 7);
  sender.get();
}

TEST(Deadline, NonPositiveSecondsClears) {
  auto [a, b] = transport::inprocPair();
  b->setDeadlineIn(0.02);
  b->setDeadlineIn(0.0);  // <= 0 disables again
  auto sender = std::async(std::launch::async, [&a = a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const std::uint8_t one = 9;
    sendBytes(*a, {&one, 1});
  });
  std::uint8_t buf[1];
  b->recvAll(buf);
  EXPECT_EQ(buf[0], 9);
  sender.get();
}

TEST(Deadline, DataBeforeDeadlineSucceeds) {
  transport::TcpListener listener(0);
  auto server_side = std::async(std::launch::async, [&] {
    auto stream = listener.accept();
    std::uint8_t buf[3];
    stream->recvAll(buf);
    sendBytes(*stream, buf);
  });
  auto client = transport::tcpConnect("127.0.0.1", listener.port());
  client->setDeadlineIn(5.0);
  const std::uint8_t msg[3] = {1, 2, 3};
  sendBytes(*client, msg);
  std::uint8_t echo[3];
  client->recvAll(echo);
  EXPECT_EQ(echo[2], 3);
  server_side.get();
}

/// One real TCP server plus a fault plan shared by the client's initial
/// connection and its reconnects.
class RetryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server::registerStandardExecutables(registry_);
    server_.emplace(registry_, server::ServerOptions{.workers = 2});
    listener_ = std::make_shared<transport::TcpListener>(0);
    port_ = listener_->port();
    server().start(listener_);
  }

  void TearDown() override { server().stop(); }

  std::unique_ptr<NinfClient> faultyClient(
      std::shared_ptr<transport::FaultPlan> plan) {
    auto client = std::make_unique<NinfClient>(
        transport::wrapFaulty(transport::tcpConnect("127.0.0.1", port_), plan));
    client->setReconnect([this, plan] {
      transport::checkConnectFault(*plan, "127.0.0.1");
      return transport::wrapFaulty(transport::tcpConnect("127.0.0.1", port_),
                                   plan);
    });
    return client;
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

TEST_F(RetryFixture, RetriesRecoverFromInjectedReset) {
  transport::FaultSpec spec;
  // Every attempt opens a fresh connection with a Hello, so both resets
  // land on handshakes: the first two attempts fail and the retry budget
  // of two recovers the call on the third, over a negotiated v2 channel.
  spec.reset_first_sends = 2;
  auto plan = std::make_shared<transport::FaultPlan>(1, spec);
  auto client = faultyClient(plan);

  const std::size_t n = 6;
  const numlib::Matrix a = numlib::randomMatrix(n, 3);
  const numlib::Matrix b = numlib::randomMatrix(n, 4);
  std::vector<double> c(n * n);
  std::vector<ArgValue> args = {ArgValue::inInt(static_cast<std::int64_t>(n)),
                                ArgValue::inArray(a.flat()),
                                ArgValue::inArray(b.flat()),
                                ArgValue::outArray(c)};
  CallOptions opts;
  opts.retries = 2;
  opts.backoff_seconds = 0.001;
  client->call("dmmul", args, opts);

  EXPECT_EQ(plan->injectedCount(), 2u);
  EXPECT_EQ(client->channel().negotiatedVersion(), protocol::kVersion2);
  const numlib::Matrix expected = numlib::dmmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected.flat()[i], 1e-12);
  }
}

TEST_F(RetryFixture, NoRetryBudgetSurfacesTransportError) {
  transport::FaultSpec spec;
  // Send #1 is the Hello handshake: with no retry budget its reset must
  // surface, exactly as a reset on the call path does.
  spec.reset_first_sends = 1;
  auto plan = std::make_shared<transport::FaultPlan>(2, spec);
  auto client = faultyClient(plan);

  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(16),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  EXPECT_THROW(client->call("ep", args), TransportError);
  EXPECT_EQ(plan->injectedCount(), 1u);
  // The same client recovers on the next call: the retry machinery
  // reconnects lazily even when the failed call had no retry budget.
  client->call("ep", args);
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 16).sx);
}

TEST_F(RetryFixture, DeadlineBoundsWholeRetryEnvelope) {
  // Every connect attempt is refused: the call must give up with a typed
  // error once the budget cannot cover another backoff, well before the
  // retry count alone would let it stop.
  transport::FaultSpec spec;
  spec.refuse_first_connects = 1000;
  spec.reset_first_sends = 1;
  auto plan = std::make_shared<transport::FaultPlan>(3, spec);
  auto client = faultyClient(plan);

  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(16),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  CallOptions opts;
  opts.deadline_seconds = 0.5;
  opts.retries = 1000;
  opts.backoff_seconds = 0.01;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client->call("ep", args, opts), TransportError);
  EXPECT_LT(secondsSince(start), 5.0);
}

/// Metaserver over one flaky entry and one healthy TCP server.
class CooldownFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server::registerStandardExecutables(registry_);
    server_.emplace(registry_, server::ServerOptions{.workers = 2});
    listener_ = std::make_shared<transport::TcpListener>(0);
    port_ = listener_->port();
    server().start(listener_);
  }

  void TearDown() override { server().stop(); }

  client::ConnectionFactory goodFactory() {
    const auto port = port_;
    return [port] { return NinfClient::connectTcp("127.0.0.1", port); };
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

TEST_F(CooldownFixture, CooldownSkipsFlappingServer) {
  metaserver::Metaserver meta(metaserver::SchedulingPolicy::RoundRobin);
  meta.setServerCooldown(60.0);
  // server-0 flaps: every connection attempt dies.
  meta.addServer({.name = "server-0",
                  .factory =
                      []() -> std::unique_ptr<NinfClient> {
                        throw TransportError("flapping server");
                      }});
  meta.addServer({.name = "server-1", .factory = goodFactory()});

  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(64),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  client::CallOptions opts;
  opts.backoff_seconds = 0.001;
  // First dispatch: round-robin picks server-0, which fails and enters
  // cooldown; the failover lands on server-1.
  obs::Counter& failovers = obs::counter("metaserver.failovers");
  meta.dispatch("ep", args, opts);
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 64).sx);
  const auto failovers_after_first = failovers.value();
  EXPECT_GE(failovers_after_first, 1u);

  // Subsequent dispatches: server-0 is cooling, so the policy goes
  // straight to server-1 — no new failovers, and the skip is counted.
  obs::Counter& skips = obs::counter("metaserver.cooldown_skips");
  const auto skips_before = skips.value();
  for (int i = 0; i < 3; ++i) {
    sums.assign(2, 0.0);
    meta.dispatch("ep", args, opts);
    EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 64).sx);
  }
  EXPECT_EQ(failovers.value(), failovers_after_first);
  EXPECT_GE(skips.value(), skips_before + 3);
}

TEST_F(CooldownFixture, AllCoolingFallsBackToTryingAnyway) {
  metaserver::Metaserver meta(metaserver::SchedulingPolicy::RoundRobin);
  meta.setServerCooldown(60.0);
  // The only server fails exactly once, then recovers.
  auto flaked = std::make_shared<std::atomic<bool>>(false);
  const auto port = port_;
  meta.addServer({.name = "server-0",
                  .factory = [flaked, port]() -> std::unique_ptr<NinfClient> {
                    if (!flaked->exchange(true)) {
                      throw TransportError("first connect dies");
                    }
                    return NinfClient::connectTcp("127.0.0.1", port);
                  }});

  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(32),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  client::CallOptions opts;
  opts.backoff_seconds = 0.0;
  // First dispatch fails over but has no alternative: typed error.
  EXPECT_THROW(meta.dispatch("ep", args, opts), TransportError);
  // Second dispatch: the server is cooling, but it is the whole pool, so
  // the cooldown must not strand the call.
  meta.dispatch("ep", args, opts);
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 32).sx);
}

TEST_F(CooldownFixture, ExhaustedFailoverRethrowsTransportRootCause) {
  metaserver::Metaserver meta(metaserver::SchedulingPolicy::RoundRobin);
  meta.setMaxFailovers(4);
  meta.setServerCooldown(0.0);
  for (int i = 0; i < 2; ++i) {
    meta.addServer({.name = "server-" + std::to_string(i),
                    .factory = []() -> std::unique_ptr<NinfClient> {
                      throw TransportError("cable cut");
                    }});
  }
  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(16),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  client::CallOptions opts;
  opts.backoff_seconds = 0.0;
  try {
    meta.dispatch("ep", args, opts);
    FAIL() << "expected TransportError";
  } catch (const NotFoundError&) {
    FAIL() << "root-cause transport error masked as NotFoundError";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("server-0"), std::string::npos) << what;
    EXPECT_NE(what.find("server-1"), std::string::npos) << what;
    EXPECT_NE(what.find("cable cut"), std::string::npos) << what;
  }
}

TEST_F(CooldownFixture, DispatchDeadlineTripsOnStalledServer) {
  // A server that accepts and then never replies: the dispatch deadline
  // must surface a typed timeout instead of hanging.
  transport::TcpListener stalled(0);
  const auto stalled_port = stalled.port();
  std::vector<std::unique_ptr<transport::Stream>> held;
  std::mutex held_mutex;
  std::thread holder([&] {
    for (;;) {
      auto s = stalled.accept();
      if (!s) return;
      std::lock_guard<std::mutex> lock(held_mutex);
      held.push_back(std::move(s));
    }
  });

  metaserver::Metaserver meta(metaserver::SchedulingPolicy::RoundRobin);
  meta.setMaxFailovers(0);
  meta.addServer({.name = "stalled",
                  .factory = [stalled_port] {
                    return NinfClient::connectTcp("127.0.0.1", stalled_port);
                  }});
  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(16),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  client::CallOptions opts;
  opts.deadline_seconds = 0.2;
  opts.backoff_seconds = 0.0;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(meta.dispatch("ep", args, opts), TimeoutError);
  EXPECT_LT(secondsSince(start), 5.0);
  stalled.close();
  holder.join();
}

}  // namespace
}  // namespace ninf
