// Chaos suite: hundreds of seeded fault schedules over live RPC.
//
// The robustness invariant, asserted for every schedule: every call
// either returns a correct result or throws a typed ninf::Error within
// its deadline — never hangs, never corrupts.  A schedule is a
// (seed, FaultSpec) pair, so any failure replays bit-identically from
// the seed printed in the test name.
//
// Three scenarios: a client talking to one server through a faulty
// transport (resets, truncations, stalls, stutter, refused reconnects),
// the same faults injected on the server's side of every connection
// (its reactor accepting, reading and writing through the decorator),
// and a metaserver failing over from a faulty server to a healthy one.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "common/rng.h"
#include "metaserver/metaserver.h"
#include "numlib/ep.h"
#include "numlib/matrix.h"
#include "numlib/mmul.h"
#include "reactor_probe.h"
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
using transport::FaultPlan;
using transport::FaultSpec;

constexpr double kDeadlineSeconds = 5.0;
// Generous hang bound: the deadline plus every backoff a retrying call
// could take.  A hang shows up as a test timeout long before this.
constexpr double kHangBound = 30.0;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Derive a fault mix from the seed so the sweep covers mild schedules
/// (everything succeeds after a hiccup) through hostile ones (most
/// attempts die).  Kept low enough that retries usually win.
FaultSpec specForSeed(std::uint64_t seed) {
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  FaultSpec spec;
  spec.reset = 0.06 * rng.nextDouble();
  spec.truncate = 0.06 * rng.nextDouble();
  spec.connect_refusal = 0.10 * rng.nextDouble();
  spec.delay = 0.25 * rng.nextDouble();
  spec.delay_min_ms = 0.05;
  spec.delay_max_ms = 0.8;
  spec.stutter = 0.4 * rng.nextDouble();
  spec.stutter_bytes = 1 + static_cast<std::size_t>(rng.nextBelow(7));
  // Every fourth schedule opens with a scripted burst, exercising the
  // deterministic fault path alongside the probabilistic one.
  if (seed % 4 == 0) spec.reset_first_sends = 1;
  if (seed % 8 == 3) spec.refuse_first_connects = 1;
  return spec;
}

/// 120 seeded schedules: one client, one real TCP server, faults
/// injected on the client's transport (initial stream and reconnects).
class ChaosClientServer : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    server::registerStandardExecutables(registry_);
    server_.emplace(registry_, server::ServerOptions{.workers = 2});
    listener_ = std::make_shared<transport::TcpListener>(0);
    port_ = listener_->port();
    server().start(listener_);
  }

  void TearDown() override { server().stop(); }

  server::Registry registry_;
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  server::NinfServer& server() { return *server_; }
  std::optional<server::NinfServer> server_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::uint16_t port_ = 0;
};

TEST_P(ChaosClientServer, CallReturnsCorrectResultOrTypedErrorInTime) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  auto plan = std::make_shared<FaultPlan>(seed, specForSeed(seed));

  NinfClient client(
      transport::wrapFaulty(transport::tcpConnect("127.0.0.1", port_), plan));
  client.setReconnect([this, plan] {
    transport::checkConnectFault(*plan, "chaos server");
    return transport::wrapFaulty(transport::tcpConnect("127.0.0.1", port_),
                                 plan);
  });

  const std::size_t n = 6;
  const numlib::Matrix a = numlib::randomMatrix(n, seed + 10);
  const numlib::Matrix b = numlib::randomMatrix(n, seed + 11);
  const numlib::Matrix expected = numlib::dmmul(a, b);

  CallOptions opts;
  opts.deadline_seconds = kDeadlineSeconds;
  opts.retries = 6;
  opts.backoff_seconds = 0.002;

  for (int round = 0; round < 3; ++round) {
    std::vector<double> c(n * n, -1.0);
    std::vector<ArgValue> args = {
        ArgValue::inInt(static_cast<std::int64_t>(n)),
        ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
        ArgValue::outArray(c)};
    const auto start = std::chrono::steady_clock::now();
    try {
      client.call("dmmul", args, opts);
      // Success must mean a correct result: injected truncation, resets,
      // and stutter may kill a call but never corrupt one.
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_NEAR(c[i], expected.flat()[i], 1e-12)
            << "seed " << seed << " round " << round << " index " << i;
      }
    } catch (const Error&) {
      // Typed failure is within contract; hangs and foreign exceptions
      // are not (anything else escapes and fails the test).
    }
    EXPECT_LT(secondsSince(start), kHangBound)
        << "seed " << seed << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosClientServer, ::testing::Range(0, 120));

/// 64 seeded schedules with the faults on the server's side: NinfServer
/// starts on wrapFaulty(TcpListener, plan), so its reactor accepts,
/// reads and writes through the decorator's non-blocking ops.  A clean
/// client drives it with a deadline and retries.
class ChaosServerSide : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    const std::uint64_t seed = 2000 + static_cast<std::uint64_t>(GetParam());
    plan_ = std::make_shared<FaultPlan>(seed, specForSeed(seed));
    server::registerStandardExecutables(registry_);
    server_.emplace(registry_, server::ServerOptions{.workers = 2});
    auto inner = std::make_unique<transport::TcpListener>(0);
    port_ = inner->port();
    server().start(transport::wrapFaulty(
        std::unique_ptr<transport::Listener>(std::move(inner)), plan_));
  }

  void TearDown() override { server().stop(); }

  server::Registry registry_;
  std::shared_ptr<FaultPlan> plan_;
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  server::NinfServer& server() { return *server_; }
  std::optional<server::NinfServer> server_;
  std::uint16_t port_ = 0;
};

TEST_P(ChaosServerSide, CallReturnsCorrectResultOrTypedErrorInTime) {
  const std::uint64_t seed = 2000 + static_cast<std::uint64_t>(GetParam());

  // 32 parked connections cost no threads, faults or not.  An idle
  // connection draws only the accept-time fault, so each one is either
  // parked in the reactor or refused by the plan.
  constexpr int kParked = 32;
  const int threads_before = processThreadCount();
  ASSERT_GT(threads_before, 0);
  {
    std::vector<std::unique_ptr<transport::Stream>> parked;
    for (int i = 0; i < kParked; ++i) {
      parked.push_back(transport::tcpConnect("127.0.0.1", port_));
    }
    ASSERT_TRUE(waitFor([&] {
      return reactorFds() + static_cast<double>(plan_->injectedCount()) >=
             kParked;
    })) << "seed " << seed << ": fds gauge " << reactorFds();
    EXPECT_LE(processThreadCount(), threads_before + 2)
        << "seed " << seed << ": server spawned threads per connection";
  }
  ASSERT_TRUE(waitFor([] { return reactorFds() == 0.0; }))
      << "seed " << seed << ": fds gauge " << reactorFds();

  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  const std::size_t n = 6;
  const numlib::Matrix a = numlib::randomMatrix(n, seed + 10);
  const numlib::Matrix b = numlib::randomMatrix(n, seed + 11);
  const numlib::Matrix expected = numlib::dmmul(a, b);

  CallOptions opts;
  opts.deadline_seconds = kDeadlineSeconds;
  opts.retries = 6;
  opts.backoff_seconds = 0.002;

  for (int round = 0; round < 3; ++round) {
    std::vector<double> c(n * n, -1.0);
    std::vector<ArgValue> args = {
        ArgValue::inInt(static_cast<std::int64_t>(n)),
        ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
        ArgValue::outArray(c)};
    const auto start = std::chrono::steady_clock::now();
    try {
      client->call("dmmul", args, opts);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_NEAR(c[i], expected.flat()[i], 1e-12)
            << "seed " << seed << " round " << round << " index " << i;
      }
      // The connection that carried the reply is still parked in the
      // reactor: nothing reads from or writes to an idle peer.
      EXPECT_GT(reactorFds(), 0.0) << "seed " << seed << " round " << round;
    } catch (const Error&) {
      // Typed failure is within contract.
    }
    EXPECT_LT(secondsSince(start), kHangBound)
        << "seed " << seed << " round " << round;
  }
  client->close();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosServerSide, ::testing::Range(0, 64));

/// 100 seeded schedules: metaserver with a faulty server-0 and a clean
/// server-1 — failover, cooldown, and per-attempt deadlines together.
class ChaosMetaserver : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    for (int i = 0; i < 2; ++i) {
      auto registry = std::make_unique<server::Registry>();
      server::registerStandardExecutables(*registry);
      auto srv = std::make_unique<server::NinfServer>(
          *registry, server::ServerOptions{.workers = 2});
      auto listener = std::make_shared<transport::TcpListener>(0);
      ports_.push_back(listener->port());
      srv->start(listener);
      registries_.push_back(std::move(registry));
      servers_.push_back(std::move(srv));
    }
  }

  void TearDown() override {
    for (auto& s : servers_) s->stop();
  }

  std::vector<std::unique_ptr<server::Registry>> registries_;
  std::vector<std::unique_ptr<server::NinfServer>> servers_;
  std::vector<std::uint16_t> ports_;
};

TEST_P(ChaosMetaserver, DispatchReturnsCorrectResultOrTypedErrorInTime) {
  const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(GetParam());
  auto plan = std::make_shared<FaultPlan>(seed, specForSeed(seed));

  metaserver::Metaserver meta(metaserver::SchedulingPolicy::RoundRobin);
  meta.setServerCooldown(0.05);
  const auto faulty_port = ports_[0];
  meta.addServer({.name = "faulty",
                  .factory = [faulty_port, plan] {
                    transport::checkConnectFault(*plan, "faulty server");
                    return std::make_unique<NinfClient>(transport::wrapFaulty(
                        transport::tcpConnect("127.0.0.1", faulty_port),
                        plan));
                  }});
  const auto clean_port = ports_[1];
  meta.addServer({.name = "clean", .factory = [clean_port] {
                    return NinfClient::connectTcp("127.0.0.1", clean_port);
                  }});

  CallOptions opts;
  opts.deadline_seconds = kDeadlineSeconds;
  opts.retries = 4;
  opts.backoff_seconds = 0.001;

  constexpr std::int64_t kSamples = 256;
  const auto expected = numlib::runEp(0, kSamples);
  for (int round = 0; round < 2; ++round) {
    std::vector<double> sums(2, -1.0), q(10);
    std::vector<ArgValue> args = {ArgValue::inInt(0),
                                  ArgValue::inInt(kSamples),
                                  ArgValue::outArray(sums),
                                  ArgValue::outArray(q)};
    const auto start = std::chrono::steady_clock::now();
    try {
      meta.dispatch("ep", args, opts);
      ASSERT_NEAR(sums[0], expected.sx, 1e-9)
          << "seed " << seed << " round " << round;
      ASSERT_NEAR(sums[1], expected.sy, 1e-9)
          << "seed " << seed << " round " << round;
    } catch (const Error&) {
      // Typed failure within contract.
    }
    EXPECT_LT(secondsSince(start), kHangBound)
        << "seed " << seed << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosMetaserver, ::testing::Range(0, 100));

// --- Deterministic fault-injection mechanics -----------------------------

TEST(FaultInjection, NullPlanIsNotWrapped) {
  auto [a, b] = transport::inprocPair();
  transport::Stream* raw = a.get();
  auto wrapped = transport::wrapFaulty(std::move(a), nullptr);
  EXPECT_EQ(wrapped.get(), raw);  // zero overhead when injection is off
}

TEST(FaultInjection, NoFaultPlanPassesBytesThroughIdentically) {
  auto plan = std::make_shared<FaultPlan>();
  EXPECT_FALSE(plan->enabled());
  auto [a, b] = transport::inprocPair();
  auto wrapped = transport::wrapFaulty(std::move(a), plan);
  std::vector<std::uint8_t> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  sendBytes(*wrapped, payload);
  const std::span<const std::uint8_t> half[] = {
      std::span(payload).first(1000), std::span(payload).subspan(1000)};
  wrapped->sendv(half);
  std::vector<std::uint8_t> got(2 * payload.size());
  b->recvAll(got);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), got.begin()));
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         got.begin() + static_cast<std::ptrdiff_t>(
                                           payload.size())));
  EXPECT_EQ(plan->injectedCount(), 0u);
}

TEST(FaultInjection, ScriptedResetFiresExactlyOnce) {
  FaultSpec spec;
  spec.reset_first_sends = 1;
  auto plan = std::make_shared<FaultPlan>(7, spec);
  auto [a, b] = transport::inprocPair();
  auto wrapped = transport::wrapFaulty(std::move(a), plan);
  const std::uint8_t byte = 1;
  EXPECT_THROW(sendBytes(*wrapped, {&byte, 1}), TransportError);
  EXPECT_EQ(plan->injectedCount(), 1u);
}

TEST(FaultInjection, TruncatedSendDeliversOnlyAPrefix) {
  FaultSpec spec;
  spec.truncate = 1.0;
  auto plan = std::make_shared<FaultPlan>(42, spec);
  auto [a, b] = transport::inprocPair();
  auto wrapped = transport::wrapFaulty(std::move(a), plan);
  std::vector<std::uint8_t> payload(64, 0xAB);
  EXPECT_THROW(sendBytes(*wrapped, payload), TransportError);
  EXPECT_GE(plan->injectedCount(), 1u);
  // Whatever arrived is a strict prefix; the connection then died.
  std::vector<std::uint8_t> got(payload.size());
  std::size_t received = 0;
  try {
    for (;;) {
      received += b->recvSome(std::span(got).subspan(received));
    }
  } catch (const TransportError&) {
  }
  EXPECT_LT(received, payload.size());
  for (std::size_t i = 0; i < received; ++i) EXPECT_EQ(got[i], 0xAB);
}

TEST(FaultInjection, StutteredRecvPreservesByteOrder) {
  FaultSpec spec;
  spec.stutter = 1.0;
  spec.stutter_bytes = 2;
  auto plan = std::make_shared<FaultPlan>(5, spec);
  auto [a, b] = transport::inprocPair();
  auto wrapped = transport::wrapFaulty(std::move(b), plan);
  std::vector<std::uint8_t> payload(128);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  sendBytes(*a, payload);
  std::vector<std::uint8_t> got(payload.size());
  wrapped->recvAll(got);
  EXPECT_EQ(got, payload);
}

TEST(FaultInjection, ListenerRefusalDropsFirstConnection) {
  FaultSpec spec;
  spec.refuse_first_connects = 1;
  auto plan = std::make_shared<FaultPlan>(11, spec);
  auto inner = std::make_unique<transport::TcpListener>(0);
  const auto port = inner->port();
  auto listener = transport::wrapFaulty(
      std::unique_ptr<transport::Listener>(std::move(inner)), plan);

  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept();  // swallows the refused first connection
  });
  auto victim = transport::tcpConnect("127.0.0.1", port);
  // Let the listener refuse the first connection before the second
  // arrives, so accept order is unambiguous.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto survivor = transport::tcpConnect("127.0.0.1", port);
  auto stream = accepted.get();
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(plan->injectedCount(), 1u);
  // The surviving pair still carries data faithfully.
  const std::uint8_t msg = 0x5A;
  sendBytes(*survivor, {&msg, 1});
  std::uint8_t got = 0;
  stream->recvAll({&got, 1});
  EXPECT_EQ(got, 0x5A);
}

// --- Non-blocking fault injection (what the reactor sees) ----------------

/// One end of a fresh inproc pair wrapped with `plan` and switched to
/// non-blocking mode, as the reactor does with every accepted stream.
struct NonBlockingPair {
  std::unique_ptr<transport::Stream> faulty;
  std::unique_ptr<transport::Stream> peer;  // clean far end
};

NonBlockingPair nonBlockingPair(std::shared_ptr<FaultPlan> plan) {
  auto [a, b] = transport::inprocPair();
  NonBlockingPair p{transport::wrapFaulty(std::move(a), std::move(plan)),
                    std::move(b)};
  EXPECT_TRUE(p.faulty->setNonBlocking(true));
  p.peer->setDeadlineIn(2.0);  // a broken decorator fails, never hangs
  return p;
}

TEST(FaultInjection, NonBlockingDelayIsOneSpuriousWouldBlock) {
  FaultSpec spec;
  spec.delay = 1.0;
  spec.delay_min_ms = 200;
  spec.delay_max_ms = 400;
  auto plan = std::make_shared<FaultPlan>(3, spec);
  auto p = nonBlockingPair(plan);
  const std::vector<std::uint8_t> payload(32, 0x11);
  const std::span<const std::uint8_t> iov[] = {payload};
  std::vector<std::uint8_t> got(payload.size());

  // Each stall surfaces as one would-block instead of a sleep; the retry
  // skips the delay draw and goes through.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(p.faulty->sendvNowait(iov), 0u);
  EXPECT_EQ(p.faulty->sendvNowait(iov), payload.size());
  sendBytes(*p.peer, payload);
  EXPECT_EQ(p.faulty->recvNowait(got), 0u);
  EXPECT_EQ(p.faulty->recvNowait(got), payload.size());
  EXPECT_LT(secondsSince(start), 0.1);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(plan->injectedCount(), 2u);
}

TEST(FaultInjection, NonBlockingResetThrowsTransportError) {
  FaultSpec spec;
  spec.reset = 1.0;
  auto plan = std::make_shared<FaultPlan>(4, spec);
  auto reader = nonBlockingPair(plan);
  std::uint8_t buf[8];
  EXPECT_THROW(reader.faulty->recvNowait(buf), TransportError);
  auto writer = nonBlockingPair(plan);
  const std::vector<std::uint8_t> payload(8, 0x22);
  const std::span<const std::uint8_t> iov[] = {payload};
  EXPECT_THROW(writer.faulty->sendvNowait(iov), TransportError);
  EXPECT_EQ(plan->injectedCount(), 2u);
}

TEST(FaultInjection, NonBlockingTruncateDeliversStrictPrefix) {
  FaultSpec spec;
  spec.truncate = 1.0;
  auto plan = std::make_shared<FaultPlan>(42, spec);
  auto p = nonBlockingPair(plan);
  const std::vector<std::uint8_t> payload(64, 0xAB);
  const std::span<const std::uint8_t> iov[] = {
      std::span(payload).first(10), std::span(payload).subspan(10)};
  EXPECT_THROW(p.faulty->sendvNowait(iov), TransportError);
  EXPECT_EQ(plan->injectedCount(), 1u);
  // Whatever arrived is a strict prefix; the connection then died.
  std::vector<std::uint8_t> got(payload.size());
  std::size_t received = 0;
  try {
    while (received < got.size()) {
      received += p.peer->recvSome(std::span(got).subspan(received));
    }
  } catch (const TransportError&) {
  }
  EXPECT_LT(received, payload.size());
  for (std::size_t i = 0; i < received; ++i) EXPECT_EQ(got[i], 0xAB);
}

TEST(FaultInjection, NonBlockingStutterCapsEachRead) {
  FaultSpec spec;
  spec.stutter = 1.0;
  spec.stutter_bytes = 2;
  auto plan = std::make_shared<FaultPlan>(5, spec);
  auto p = nonBlockingPair(plan);
  std::vector<std::uint8_t> payload(128);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  sendBytes(*p.peer, payload);
  std::vector<std::uint8_t> got(payload.size());
  std::size_t received = 0;
  while (received < got.size()) {
    const std::size_t n =
        p.faulty->recvNowait(std::span(got).subspan(received));
    ASSERT_GT(n, 0u);  // every byte is already buffered
    ASSERT_LE(n, spec.stutter_bytes);
    received += n;
  }
  EXPECT_EQ(got, payload);
}

TEST(FaultInjection, TryAcceptDropsScriptedRefusal) {
  FaultSpec spec;
  spec.refuse_first_connects = 1;
  auto plan = std::make_shared<FaultPlan>(11, spec);
  auto inner = std::make_unique<transport::TcpListener>(0);
  const auto port = inner->port();
  auto listener = transport::wrapFaulty(
      std::unique_ptr<transport::Listener>(std::move(inner)), plan);
  ASSERT_GE(listener->nativeHandle(), 0);

  auto victim = transport::tcpConnect("127.0.0.1", port);
  auto survivor = transport::tcpConnect("127.0.0.1", port);
  // Accept order is connect order: the refusal drops the victim and the
  // survivor comes back, within one call or the next.
  transport::AcceptStatus status{};
  std::unique_ptr<transport::Stream> stream;
  ASSERT_TRUE(waitFor([&] {
    stream = listener->tryAccept(status);
    return stream != nullptr;
  }));
  EXPECT_EQ(status, transport::AcceptStatus::Accepted);
  EXPECT_EQ(plan->injectedCount(), 1u);
  const std::uint8_t msg = 0x5A;
  sendBytes(*survivor, {&msg, 1});
  std::uint8_t got = 0;
  stream->recvAll({&got, 1});
  EXPECT_EQ(got, 0x5A);
}

}  // namespace
}  // namespace ninf
