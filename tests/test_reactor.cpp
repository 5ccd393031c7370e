// Event-driven server core: the epoll reactor and its staged pipeline.
//
// What thread-per-connection could never show: thousands of parked
// connections with a flat thread count, slow-loris peers that dribble a
// frame one byte at a time without stalling anyone, and mid-body
// disconnects that clean up instead of leaking a blocked reader thread.
#include <gtest/gtest.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/ninf_api.h"
#include "common/batch.h"
#include "common/error.h"
#include "common/sync.h"
#include "numlib/ep.h"
#include "numlib/matrix.h"
#include "numlib/mmul.h"
#include "protocol/message.h"
#include "reactor_probe.h"
#include "server/server.h"
#include "stream_send.h"
#include "transport/fault_injection.h"
#include "transport/inproc_transport.h"
#include "transport/tcp_transport.h"
#include "v1_peer.h"
#include "xdr/xdr.h"

namespace ninf {
namespace {

using client::NinfClient;
using client::ninfCall;
using protocol::ArgValue;
using server::NinfServer;
using server::Registry;

/// Reactor-served TCP server fixture.
class ReactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server::registerStandardExecutables(registry_, 2);
    server_.emplace(registry_, options_);
    listener_ = std::make_shared<transport::TcpListener>(0);
    port_ = listener_->port();
    server().start(listener_);
    ASSERT_TRUE(waitFor([] { return reactorFds() == 0.0; }));
  }

  void TearDown() override {
    if (server_) server().stop();
  }

  Registry registry_;
  server::ServerOptions options_{.workers = 2};
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  NinfServer& server() { return *server_; }
  std::optional<NinfServer> server_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::uint16_t port_ = 0;
};

TEST_F(ReactorTest, ServesCallsAndControlMessages) {
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  EXPECT_GE(client->ping(512), 0.0);
  std::vector<double> sums(2), q(10);
  ninfCall(*client, "ep", std::int64_t{0}, std::int64_t{512}, sums, q);
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 512).sx);
  client->close();
}

/// Raise this process's soft fd limit to at least `want`, up to the hard
/// limit.  False when even the hard limit is lower.
bool raiseFdLimit(rlim_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return false;
  if (lim.rlim_cur >= want) return true;
  if (lim.rlim_max != RLIM_INFINITY && lim.rlim_max < want) return false;
  lim.rlim_cur = want;
  return ::setrlimit(RLIMIT_NOFILE, &lim) == 0;
}

TEST_F(ReactorTest, IdleConnectionsParkWithoutThreads) {
  constexpr int kIdle = 1000;
  // Each parked connection holds two of this process's fds, the client
  // end and the server end.
  ASSERT_TRUE(raiseFdLimit(2 * kIdle + 256))
      << "the hard RLIMIT_NOFILE cannot hold " << 2 * kIdle + 256
      << " fds; raise it (ulimit -Hn) to run this test";
  // Let one call settle the lazy thread creation (client side included).
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  client->ping();

  const int before = processThreadCount();
  ASSERT_GT(before, 0);
  // Each idle connection negotiates v2, so the server holds real
  // multiplexed sessions rather than raw sockets, then goes silent.
  std::vector<std::unique_ptr<transport::Stream>> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    idle.push_back(transport::tcpConnect("127.0.0.1", port_));
    xdr::Encoder hello;
    protocol::Hello{}.encode(hello);
    protocol::sendFrame(*idle.back(), protocol::WireMode::V1,
                        protocol::MessageType::Hello, hello);
    const protocol::Message ack = protocol::recvMessage(*idle.back());
    ASSERT_EQ(ack.type, protocol::MessageType::HelloAck) << "connection " << i;
    xdr::Decoder dec(ack.payload);
    ASSERT_GE(protocol::HelloAck::decode(dec).version, protocol::kVersion2);
  }
  ASSERT_TRUE(waitFor([&] { return reactorFds() >= kIdle + 1; }))
      << "fds gauge " << reactorFds();

  // Thread-per-connection would sit at before + kIdle here.  The reactor
  // parks every idle connection in one epoll set.  Read before any load
  // thread starts.
  const int after = processThreadCount();
  EXPECT_LE(after, before + 2) << "server spawned threads per connection";

  // The server still serves load while the herd is parked: 64 callers
  // over 8 shared channels.
  constexpr int kChannels = 8;
  constexpr int kCallers = 64;
  constexpr int kPings = 16;
  std::vector<std::unique_ptr<NinfClient>> channels;
  for (int c = 0; c < kChannels; ++c) {
    channels.push_back(NinfClient::connectTcp("127.0.0.1", port_));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < kPings; ++i) {
        try {
          channels[t % kChannels]->ping(1024);
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(failures.load(), 0) << "of " << kCallers * kPings << " pings";

  for (auto& ch : channels) ch->close();
  idle.clear();
  EXPECT_TRUE(waitFor([&] { return reactorFds() <= 1.0; }))
      << "fds gauge " << reactorFds();
  client->close();
}

TEST_F(ReactorTest, SlowLorisDoesNotStallOtherClients) {
  // Dribble half a v1 Ping header, one byte at a time, and stop.
  auto loris = transport::tcpConnect("127.0.0.1", port_);
  xdr::Encoder header;
  header.putU32(protocol::kMagic);
  header.putU32(protocol::kVersion);
  header.putU32(static_cast<std::uint32_t>(protocol::MessageType::Ping));
  header.putU32(4);  // body: 4 bytes, never fully sent
  const auto bytes = header.bytes();
  for (std::size_t i = 0; i < protocol::kHeaderBytes / 2; ++i) {
    sendBytes(*loris, std::span<const std::uint8_t>(&bytes[i], 1));
  }

  // A well-behaved client gets full service meanwhile.
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  std::vector<double> sums(2), q(10);
  ninfCall(*client, "ep", std::int64_t{0}, std::int64_t{256}, sums, q);
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 256).sx);

  // The loris completes its frame eventually and still gets its Pong.
  for (std::size_t i = protocol::kHeaderBytes / 2; i < bytes.size(); ++i) {
    sendBytes(*loris, std::span<const std::uint8_t>(&bytes[i], 1));
  }
  const std::array<std::uint8_t, 4> body = {1, 2, 3, 4};
  sendBytes(*loris, body);
  const protocol::Message pong = protocol::recvMessage(*loris);
  EXPECT_EQ(pong.type, protocol::MessageType::Pong);
  ASSERT_EQ(pong.payload.size(), 4u);
  EXPECT_EQ(pong.payload[2], 3);
  client->close();
}

TEST_F(ReactorTest, MidBodyDisconnectCleansUp) {
  const double baseline = reactorFds();
  {
    auto doomed = transport::tcpConnect("127.0.0.1", port_);
    xdr::Encoder header;
    header.putU32(protocol::kMagic);
    header.putU32(protocol::kVersion);
    header.putU32(
        static_cast<std::uint32_t>(protocol::MessageType::CallRequest));
    header.putU32(100000);  // declares a body it will never finish
    sendBytes(*doomed, header.bytes());
    const std::vector<std::uint8_t> partial(512, 0xAB);
    sendBytes(*doomed, partial);
    ASSERT_TRUE(waitFor([&] { return reactorFds() > baseline; }));
  }  // disconnect mid-body
  EXPECT_TRUE(waitFor([&] { return reactorFds() <= baseline; }))
      << "fds gauge " << reactorFds();

  // No half-read state leaked into anyone else's service.
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  EXPECT_GE(client->ping(), 0.0);
  client->close();
}

TEST_F(ReactorTest, DeclaredHugeBodyCostsOnlyTheBytesThatArrive) {
  // The body's slab is allocated when the header arrives and received in
  // place; memory must follow the bytes that came, not the declared size.
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  std::vector<double> sums(2), q(10);
  ninfCall(*client, "ep", std::int64_t{0}, std::int64_t{64}, sums, q);
  const double rss_before = processRssBytes();
  ASSERT_GT(rss_before, 0.0);

  auto stalled = transport::tcpConnect("127.0.0.1", port_);
  xdr::Encoder header;
  header.putU32(protocol::kMagic);
  header.putU32(protocol::kVersion);
  header.putU32(
      static_cast<std::uint32_t>(protocol::MessageType::CallRequest));
  header.putU32(64u << 20);  // declares 64 MiB, sends 4 KiB, stalls
  sendBytes(*stalled, header.bytes());
  sendBytes(*stalled, std::vector<std::uint8_t>(4096, 0x5A));
  ASSERT_TRUE(waitFor([&] { return reactorFds() >= 2.0; }));

  // A second client is served in full meanwhile.
  for (std::int64_t first = 1; first <= 20; ++first) {
    ninfCall(*client, "ep", first * 64, std::int64_t{64}, sums, q);
    EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(first * 64, 64).sx);
  }
  const double rise = processRssBytes() - rss_before;
  EXPECT_LT(rise, 16.0 * (1 << 20)) << "VmRSS rose by " << rise << " bytes";
  stalled->close();
  client->close();
}

TEST_F(ReactorTest, StalledHugeDeclarationsCommitAtMostTheInPlaceBudget) {
  // Peers that send a header and stall must not commit the memory they
  // declare: bodies held in place are bounded by kInPlaceBodyBudget and
  // the rest gather only the bytes that arrive.  Meanwhile a client's
  // large calls complete.
  constexpr std::size_t kN = 128;
  const numlib::Matrix a = numlib::randomMatrix(kN, 7);
  const numlib::Matrix b = numlib::randomMatrix(kN, 8);
  const numlib::Matrix want = numlib::dmmul(a, b);
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  const auto dmmul = [&] {
    std::vector<double> c(kN * kN, 0.0);
    std::vector<ArgValue> args = {
        ArgValue::inInt(static_cast<std::int64_t>(kN)),
        ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
        ArgValue::outArray(c)};
    client->call("dmmul", args);
    double worst = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      worst = std::max(worst, std::abs(c[i] - want.flat()[i]));
    }
    EXPECT_LT(worst, 1e-9);
  };
  for (int i = 0; i < 4; ++i) dmmul();  // settle lazy allocations
  const std::size_t claimed_before =
      protocol::FrameAssembler::inPlaceClaimedBytes();
  const double vm_before = procStatusValue("VmSize:") * 1024.0;
  ASSERT_GT(vm_before, 0.0);

  // Four declarations past the whole budget, then two of three quarters
  // of it: one of those fits, the other does not.
  const std::size_t three_quarters = protocol::kInPlaceBodyBudget / 4 * 3;
  std::vector<std::uint32_t> declared(4, protocol::kMaxPayload);
  declared.push_back(static_cast<std::uint32_t>(three_quarters));
  declared.push_back(static_cast<std::uint32_t>(three_quarters));
  std::vector<std::unique_ptr<transport::Stream>> stalled;
  for (const std::uint32_t length : declared) {
    stalled.push_back(transport::tcpConnect("127.0.0.1", port_));
    xdr::Encoder header;
    header.putU32(protocol::kMagic);
    header.putU32(protocol::kVersion);
    header.putU32(
        static_cast<std::uint32_t>(protocol::MessageType::CallRequest));
    header.putU32(length);
    sendBytes(*stalled.back(), header.bytes());
    sendBytes(*stalled.back(), std::vector<std::uint8_t>(4096, 0x5A));
  }
  ASSERT_TRUE(waitFor([&] {
    return protocol::FrameAssembler::inPlaceClaimedBytes() >=
           claimed_before + three_quarters;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(protocol::FrameAssembler::inPlaceClaimedBytes(),
            protocol::kInPlaceBodyBudget);
  // The budget, plus room for one malloc arena reservation; without the
  // budget this rises by every declared byte, over 1 GiB.
  const double rise = procStatusValue("VmSize:") * 1024.0 - vm_before;
  EXPECT_LT(rise, 2.0 * static_cast<double>(protocol::kInPlaceBodyBudget))
      << "VmSize rose by " << rise << " bytes";

  for (int i = 0; i < 8; ++i) dmmul();
  for (auto& s : stalled) s->close();
  EXPECT_TRUE(waitFor([&] {
    return protocol::FrameAssembler::inPlaceClaimedBytes() == claimed_before;
  }));
  client->close();
}

TEST_F(ReactorTest, V1ClientInterop) {
  // Raw v1 wire, no Hello: lock-step framing against the reactor.
  auto stream = transport::tcpConnect("127.0.0.1", port_);
  const std::vector<std::uint8_t> echo = {9, 8, 7};
  protocol::sendFrame(*stream, protocol::WireMode::V1,
                      protocol::MessageType::Ping, echo);
  protocol::Message pong = protocol::recvMessage(*stream);
  EXPECT_EQ(pong.type, protocol::MessageType::Pong);
  EXPECT_EQ(pong.payload, echo);

  protocol::sendFrame(*stream, protocol::WireMode::V1,
                      protocol::MessageType::ListExecutables,
                      std::span<const std::uint8_t>{});
  const protocol::Message list = protocol::recvMessage(*stream);
  EXPECT_EQ(list.type, protocol::MessageType::ExecutableList);
  xdr::Decoder dec(list.payload);
  EXPECT_GT(dec.getU32(), 0u);
  stream->close();

  // A whole v1 call, interface query included: the staged pipeline
  // serves it through the per-connection lock-step hold.
  V1Peer v1(transport::tcpConnect("127.0.0.1", port_));
  std::vector<double> sums(2), q(10);
  const std::vector<ArgValue> args = {ArgValue::inInt(7), ArgValue::inInt(128),
                                      ArgValue::outArray(sums),
                                      ArgValue::outArray(q)};
  v1.call("ep", args);
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(7, 128).sx);
  v1.close();
}

TEST(ReactorAdmission, TinyBudgetStillCompletesEveryCall) {
  Registry registry;
  server::registerStandardExecutables(registry, 2);
  NinfServer server(registry, {.workers = 2, .max_inflight_calls = 2});
  auto listener = std::make_shared<transport::TcpListener>(0);
  const auto port = listener->port();
  server.start(listener);

  // 4 clients × 8 pipelined-ish calls against a budget of 2: admission
  // pauses reads under pressure and resumes them as replies drain.
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        auto client = NinfClient::connectTcp("127.0.0.1", port);
        for (int i = 0; i < 8; ++i) {
          std::vector<double> sums(2), q(10);
          const std::int64_t first = t * 100 + i;
          ninfCall(*client, "ep", first, std::int64_t{64}, sums, q);
          if (sums[0] != numlib::runEp(first, 64).sx) ++failures;
        }
        client->close();
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.metrics().completed(), kClients * 8u);
  server.stop();
}

TEST(ReactorBacklog, ExplicitBacklogAcceptsConnections) {
  Registry registry;
  server::registerStandardExecutables(registry);
  NinfServer server(registry, {.workers = 1});
  auto listener = std::make_shared<transport::TcpListener>(0, /*backlog=*/8);
  const auto port = listener->port();
  server.start(listener);
  auto client = NinfClient::connectTcp("127.0.0.1", port);
  EXPECT_GE(client->ping(128), 0.0);
  client->close();
  server.stop();
}

/// First seed whose plan lets one server-side recv through and resets
/// the next (each recv draws once when only `reset` is set).
std::uint64_t seedResettingSecondRecv(const transport::FaultSpec& spec) {
  for (std::uint64_t seed = 1;; ++seed) {
    transport::FaultPlan probe(seed, spec);
    if (!probe.onRecv(1).reset && probe.onRecv(1).reset) return seed;
  }
}

TEST(ReactorHangup, LocallyAbortedConnectionIsClosedNotPolled) {
  // A fault-injected recv reset shuts the server's socket down in both
  // directions while a staged call still computes.  epoll then reports
  // EPOLLHUP on every wait; the reactor must close the connection, not
  // spin on it until the call finishes.
  Registry registry;
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  registry.add(R"IDL(Define nap(mode_in long ms) Calls "C" nap(ms);)IDL",
               [&](server::CallContext& ctx) {
                 started = true;
                 std::this_thread::sleep_for(
                     std::chrono::milliseconds(ctx.intArg("ms")));
                 finished = true;
               });
  NinfServer server(registry, {.workers = 1});
  transport::FaultSpec spec;
  spec.reset = 0.5;
  auto plan = std::make_shared<transport::FaultPlan>(
      seedResettingSecondRecv(spec), spec);
  auto inner = std::make_unique<transport::TcpListener>(0);
  const auto port = inner->port();
  server.start(transport::wrapFaulty(
      std::unique_ptr<transport::Listener>(std::move(inner)), plan));

  auto stream = transport::tcpConnect("127.0.0.1", port);
  xdr::Encoder call;
  call.putString("nap");
  call.putI64(300);
  protocol::sendFrame(*stream, protocol::WireMode::V1,
                      protocol::MessageType::CallRequest,
                      call.bytes());  // first recv: the call is staged
  ASSERT_TRUE(waitFor([&] { return started.load(); }));
  const std::uint8_t poke = 0;
  sendBytes(*stream, {&poke, 1});  // second recv: injected reset
  ASSERT_TRUE(waitFor([&] { return plan->injectedCount() >= 1; }));

  const double cpu_before = processCpuSeconds();
  ASSERT_TRUE(waitFor([&] { return finished.load(); }));
  const double cpu = processCpuSeconds() - cpu_before;
  EXPECT_LT(cpu, 0.1) << "reactor busy-polled a hung-up connection";
  EXPECT_TRUE(waitFor([] { return reactorFds() == 0.0; }))
      << "fds gauge " << reactorFds();
  server.stop();
}

/// A pollable listener that hands the reactor the streams a test offers,
/// such as one end of an inprocPair(): an eventfd is readable while one
/// waits.
class OfferListener final : public transport::Listener {
 public:
  OfferListener() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {}
  ~OfferListener() override { close(); }

  void offer(std::unique_ptr<transport::Stream> stream) {
    LockGuard lock(mutex_);
    offered_.push_back(std::move(stream));
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof(one));
  }

  /// The reactor accepts through tryAccept() only.
  std::unique_ptr<transport::Stream> accept() override { return nullptr; }
  void close() override {
    LockGuard lock(mutex_);
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int nativeHandle() const override {
    LockGuard lock(mutex_);
    return fd_;
  }
  std::unique_ptr<transport::Stream> tryAccept(
      transport::AcceptStatus& status) override {
    LockGuard lock(mutex_);
    if (fd_ < 0) {
      status = transport::AcceptStatus::Closed;
      return nullptr;
    }
    if (offered_.empty()) {
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t n = ::read(fd_, &count, sizeof(count));
      status = transport::AcceptStatus::WouldBlock;
      return nullptr;
    }
    status = transport::AcceptStatus::Accepted;
    auto stream = std::move(offered_.front());
    offered_.pop_front();
    return stream;
  }

 private:
  mutable Mutex mutex_{"test.offer_listener"};
  int fd_ NINF_GUARDED_BY(mutex_);
  std::deque<std::unique_ptr<transport::Stream>> offered_
      NINF_GUARDED_BY(mutex_);
};

TEST(ReactorHangup, PausedConnectionIsClosedNotPolled) {
  // A v1 peer on an AF_UNIX pair stages nap(300) and pipelines a Ping
  // behind it, so the lock-step hold pauses reads with the Ping
  // buffered.  Then the peer closes: epoll reports EPOLLHUP on every
  // wait, and a paused connection reads nothing, so the reactor must
  // close it rather than spin on it until the call finishes.
  Registry registry;
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  registry.add(R"IDL(Define nap(mode_in long ms) Calls "C" nap(ms);)IDL",
               [&](server::CallContext& ctx) {
                 started = true;
                 std::this_thread::sleep_for(
                     std::chrono::milliseconds(ctx.intArg("ms")));
                 finished = true;
               });
  NinfServer server(registry, {.workers = 1});
  auto listener = std::make_shared<OfferListener>();
  server.start(listener);
  auto [peer, served] = transport::inprocPair();
  listener->offer(std::move(served));

  xdr::Encoder call;
  call.putString("nap");
  call.putI64(300);
  protocol::sendFrame(*peer, protocol::WireMode::V1,
                      protocol::MessageType::CallRequest, call);
  ASSERT_TRUE(waitFor([&] { return started.load(); }));
  const std::vector<std::uint8_t> echo = {1, 2, 3, 4};
  protocol::sendFrame(*peer, protocol::WireMode::V1,
                      protocol::MessageType::Ping, echo);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  peer->close();

  const double cpu_before = processCpuSeconds();
  ASSERT_TRUE(waitFor([&] { return finished.load(); }));
  const double cpu = processCpuSeconds() - cpu_before;
  EXPECT_LT(cpu, 0.1) << "reactor busy-polled a paused, hung-up connection";
  EXPECT_TRUE(waitFor([] { return reactorFds() == 0.0; }))
      << "fds gauge " << reactorFds();
  server.stop();
}

TEST(ReactorV1Hold, PipelinedFramesWaitInTheKernelNotTheServer) {
  // A raw v1 peer stages nap(500) on a 1-worker server, then pipelines
  // 1,024 Pings of 64 KiB behind it.  The lock-step hold parses none of
  // them until the call replies; a server that kept reading meanwhile
  // would hold all 64 MiB in the connection's reassembly buffer.
  Registry registry;
  std::atomic<bool> napping{false};
  registry.add(R"IDL(Define nap(mode_in long ms) Calls "C" nap(ms);)IDL",
               [&](server::CallContext& ctx) {
                 napping = true;
                 std::this_thread::sleep_for(
                     std::chrono::milliseconds(ctx.intArg("ms")));
               });
  NinfServer server(registry, {.workers = 1});
  auto listener = std::make_shared<transport::TcpListener>(0);
  const auto port = listener->port();
  server.start(listener);

  auto stream = transport::tcpConnect("127.0.0.1", port);
  xdr::Encoder call;
  call.putString("nap");
  call.putI64(500);
  protocol::sendFrame(*stream, protocol::WireMode::V1,
                      protocol::MessageType::CallRequest, call.bytes());
  ASSERT_TRUE(waitFor([&] { return napping.load(); }));
  const double rss_before = processRssBytes();
  ASSERT_GT(rss_before, 0.0);

  // Each Ping carries its index, so the Pongs' order is checkable.
  constexpr std::uint32_t kPings = 1024;
  constexpr std::size_t kPingBytes = 64 * 1024;
  const auto pingBody = [](std::uint32_t i) {
    std::vector<std::uint8_t> body(kPingBytes, 0x3C);
    std::memcpy(body.data(), &i, sizeof(i));
    return body;
  };
  std::thread sender([&] {
    try {
      for (std::uint32_t i = 0; i < kPings; ++i) {
        protocol::sendFrame(*stream, protocol::WireMode::V1,
                            protocol::MessageType::Ping, pingBody(i));
      }
    } catch (const Error&) {
      // The test closed the stream after a failed check.
    }
  });
  std::atomic<bool> replied{false};
  double rss_peak = rss_before;
  std::thread sampler([&] {
    while (!replied.load()) {
      rss_peak = std::max(rss_peak, processRssBytes());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // The call reply first, then every Pong in Ping order.
  std::uint32_t pongs = 0;
  try {
    const protocol::Message reply = protocol::recvMessage(*stream);
    replied = true;
    EXPECT_EQ(reply.type, protocol::MessageType::CallReply);
    EXPECT_EQ(xdr::Decoder(reply.payload).getU32(), 0u) << "call failed";
    for (; pongs < kPings; ++pongs) {
      const protocol::Message pong = protocol::recvMessage(*stream);
      if (pong.type != protocol::MessageType::Pong ||
          pong.payload != pingBody(pongs)) {
        break;
      }
    }
  } catch (const Error& e) {
    ADD_FAILURE() << "after " << pongs << " Pongs: " << e.what();
  }
  replied = true;
  sampler.join();
  EXPECT_EQ(pongs, kPings) << "Pong " << pongs << " missing or out of order";
  const double rise = rss_peak - rss_before;
  EXPECT_LT(rise, 16.0 * (1 << 20))
      << "VmRSS rose by " << rise << " bytes during the hold";
  stream->close();
  sender.join();
  server.stop();
}

TEST(ReactorCachedReplies, QueuedHitsOfOneEntryShareItsPayload) {
  // A raw v2 peer pipelines 128 identical dos(2, 0, 1, 131072) calls,
  // 40 bytes each with a 1 MiB reply, and reads nothing.  The first owns
  // the cache entry; the other 127 are single-flight waiters or hits,
  // and all 128 replies back up in the connection's write queue.  Each
  // is a header of its own plus the cache's one payload, so the queue
  // holds one copy of the bytes, not 128.
  Registry registry;
  server::registerStandardExecutables(registry, 2);
  NinfServer server(registry, {.workers = 2});
  auto listener = std::make_shared<transport::TcpListener>(0);
  server.start(listener);

  auto stream = transport::tcpConnect("127.0.0.1", listener->port());
  xdr::Encoder hello;
  protocol::Hello{}.encode(hello);
  protocol::sendFrame(*stream, protocol::WireMode::V1,
                      protocol::MessageType::Hello, hello);
  const protocol::Message ack = protocol::recvMessage(*stream);
  ASSERT_EQ(ack.type, protocol::MessageType::HelloAck);
  xdr::Decoder ack_dec(ack.payload);
  const protocol::HelloAck agreed = protocol::HelloAck::decode(ack_dec);
  const protocol::WireMode mode =
      protocol::wireModeFor(agreed.version, agreed.features.value_or(0));
  ASSERT_NE(mode, protocol::WireMode::V1);

  const auto dosCall = [](std::int64_t first) {
    xdr::Encoder call;
    call.putString("dos");
    for (const std::int64_t v : {std::int64_t{2}, first, std::int64_t{1},
                                 std::int64_t{131072}}) {
      call.putI64(v);
    }
    return call;
  };
  const auto recvReply = [&](protocol::FrameHeader& header) {
    header = protocol::recvHeader(*stream, mode);
    std::vector<std::uint8_t> body(header.length);
    stream->recvAll(body);
    return body;
  };

  // Warm the compute and reply path with a call of other arguments, so
  // the rise below is what the queued replies hold, not first touches.
  protocol::FrameHeader header;
  protocol::sendFrame(*stream, mode, protocol::MessageType::CallRequest,
                      dosCall(1), /*call_id=*/1000);
  const std::vector<std::uint8_t> warm = recvReply(header);
  ASSERT_EQ(header.call_id, 1000u);
  ASSERT_EQ(xdr::Decoder(warm).getU32(), 0u) << "warm-up call failed";

  obs::Counter& hits = obs::counter("server.cache.hits");
  obs::Counter& merges = obs::counter("server.cache.inflight_merges");
  const double served0 = hits.value() + merges.value();
  const double rss_before = processRssBytes();
  ASSERT_GT(rss_before, 0.0);

  constexpr std::uint64_t kCalls = 128;
  const xdr::Encoder call = dosCall(0);
  for (std::uint64_t id = 1; id <= kCalls; ++id) {
    protocol::sendFrame(*stream, mode, protocol::MessageType::CallRequest,
                        call, id);
  }
  ASSERT_TRUE(waitFor(
      [&] { return hits.value() + merges.value() - served0 >= kCalls - 1; },
      20.0))
      << "cache served " << hits.value() + merges.value() - served0;
  // The last lookups' replies reach the write queue within a loop
  // iteration of their counts.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double rise = processRssBytes() - rss_before;
  EXPECT_LT(rise, 16.0 * (1 << 20))
      << "VmRSS rose by " << rise << " bytes with " << kCalls
      << " 1 MiB replies queued";

  // Every reply carries its own call id, in whatever order the owner
  // and its waiters finished, and the owner's body byte for byte.
  std::vector<bool> seen(kCalls + 1, false);
  std::vector<std::uint8_t> first;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    std::vector<std::uint8_t> body = recvReply(header);
    ASSERT_EQ(header.type, protocol::MessageType::CallReply);
    ASSERT_GE(header.call_id, 1u);
    ASSERT_LE(header.call_id, kCalls);
    EXPECT_FALSE(seen[header.call_id]) << "call id " << header.call_id;
    seen[header.call_id] = true;
    if (i == 0) {
      EXPECT_EQ(xdr::Decoder(body).getU32(), 0u) << "call failed";
      EXPECT_GT(body.size(), std::size_t{1} << 20);
      first = std::move(body);
    } else {
      ASSERT_EQ(body, first) << "reply " << i << ", call id "
                             << header.call_id;
    }
  }
  stream->close();
  server.stop();
}

TEST_F(ReactorTest, SmallCallWakesTheReactorOncePerCall) {
  // A small call's prologue runs on the reactor thread and enqueues the
  // compute job itself, so the reply is the only worker -> reactor
  // hand-off.
  auto client = NinfClient::connectTcp("127.0.0.1", port_);
  client->queryInterface("ep");
  obs::Counter& wakeups = obs::counter("server.reactor.wakeups");
  const double before = wakeups.value();
  constexpr int kCalls = 32;
  for (int i = 0; i < kCalls; ++i) {
    std::vector<double> sums(2), q(10);
    ninfCall(*client, "ep", std::int64_t{i}, std::int64_t{64}, sums, q);
    EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(i, 64).sx);
  }
  // A worker counts its wakeup just after the eventfd write, so the last
  // call's count may trail its reply.
  ASSERT_TRUE(waitFor([&] { return wakeups.value() - before >= kCalls; }))
      << "wakeups " << wakeups.value() - before;
  EXPECT_EQ(wakeups.value() - before, kCalls);
  client->close();
}

/// ReactorTest plus `vsum` (s = sum of x[n]) and `vsum_idem`, the same
/// under the Idempotent clause, so a test picks its request size.
class ReactorPrologueTest : public ReactorTest {
 protected:
  void SetUp() override {
    registry_.add(
        R"IDL(Define vsum(mode_in long n, mode_in double x[n],
                          mode_out double s[1])
              Calls "C" vsum(n, x, s);)IDL",
        [](server::CallContext& ctx) { sumInto(ctx); });
    registry_.add(
        R"IDL(Define vsum_idem(mode_in long n, mode_in double x[n],
                               mode_out double s[1])
              Idempotent,
              Calls "C" vsum(n, x, s);)IDL",
        [this](server::CallContext& ctx) {
          idem_runs_.fetch_add(1);
          sumInto(ctx);
        });
    ReactorTest::SetUp();
  }

  static void sumInto(server::CallContext& ctx) {
    double sum = 0.0;
    for (const double v : ctx.arrayIn("x")) sum += v;
    ctx.arrayOut("s")[0] = sum;
  }

  /// A vsum request body as the client marshals it, plus `trailing`
  /// stray bytes (any makes the server's decode fail).
  static xdr::Encoder requestBody(const std::string& name,
                                  const std::vector<double>& x,
                                  std::size_t trailing = 0) {
    xdr::Encoder enc;
    enc.putString(name);
    enc.putI64(static_cast<std::int64_t>(x.size()));
    enc.putDoubleArray(x);
    for (std::size_t i = 0; i < trailing; i += 4) enc.putU32(0);
    return enc;
  }

  std::atomic<int> idem_runs_{0};
};

TEST_F(ReactorPrologueTest, CallsEitherSideOfTheSmallFrameBoundGetEveryReply) {
  // 2000 doubles make a frame just under common::kSmallFrameBytes, whose
  // prologue runs on the reactor thread; 2080 make one just over it,
  // whose prologue is a worker job.  Both placements must produce every
  // reply kind: computed, cached replay, decode error, SubmitAck and its
  // fetched result, over v1 and v2.
  constexpr std::size_t kBelow = 2000;
  constexpr std::size_t kAbove = 2080;
  for (const protocol::WireMode mode :
       {protocol::WireMode::V1, protocol::WireMode::V2Traced}) {
    const auto frame = [&](std::size_t n, std::size_t trailing) {
      return protocol::headerBytes(mode) +
             requestBody("vsum_idem", std::vector<double>(n), trailing)
                 .size();
    };
    ASSERT_LE(frame(kBelow, 4), common::kSmallFrameBytes);
    ASSERT_GT(frame(kAbove, 0), common::kSmallFrameBytes);
  }

  double salt = 0.0;
  for (const bool v1 : {false, true}) {
    // The v2 session layer, or a scripted v1 client in lock-step.
    std::unique_ptr<NinfClient> client;
    std::unique_ptr<V1Peer> peer;
    if (v1) {
      peer = std::make_unique<V1Peer>(
          transport::tcpConnect("127.0.0.1", port_));
    } else {
      client = NinfClient::connectTcp("127.0.0.1", port_);
    }
    const auto call = [&](const char* name, std::span<const ArgValue> args) {
      if (peer) {
        peer->call(name, args);
      } else {
        client->call(name, args);
      }
    };
    for (const std::size_t n : {kBelow, kAbove}) {
      SCOPED_TRACE((v1 ? "v1, n=" : "v2, n=") + std::to_string(n));
      // Fresh values per round, so no round replays another's cache entry.
      salt += 1.0;
      std::vector<double> x(n);
      double want = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = salt + static_cast<double>(i % 7);
        want += x[i];
      }
      std::vector<double> s(1, 0.0);
      const std::vector<ArgValue> args = {
          ArgValue::inInt(static_cast<std::int64_t>(n)), ArgValue::inArray(x),
          ArgValue::outArray(s)};

      call("vsum", args);
      EXPECT_DOUBLE_EQ(s[0], want);

      // The second identical idempotent call is a cached replay.
      const int runs = idem_runs_.load();
      for (int rep = 0; rep < 2; ++rep) {
        s[0] = 0.0;
        call("vsum_idem", args);
        EXPECT_DOUBLE_EQ(s[0], want);
      }
      EXPECT_EQ(idem_runs_.load() - runs, 1);

      s[0] = 0.0;
      if (peer) {
        const std::uint64_t job = peer->submit("vsum", args);
        ASSERT_TRUE(waitFor([&] { return peer->fetch(job, "vsum", args); }));
      } else {
        const client::JobHandle job = client->submit("vsum", args);
        ASSERT_TRUE(
            waitFor([&] { return client->fetch(job, args).has_value(); }));
      }
      EXPECT_DOUBLE_EQ(s[0], want);

      // A body that fails to decode gets an error reply, whether or not
      // it owned a cache entry, and the connection keeps serving.
      for (const char* name : {"vsum", "vsum_idem"}) {
        std::uint32_t status = 0;
        std::string message;
        const auto consume = [&](const auto&, xdr::Source& src) {
          status = src.getU32();
          message = src.getString();
        };
        if (peer) {
          peer->exchange(protocol::MessageType::CallRequest,
                         requestBody(name, x, 4), consume);
        } else {
          client->channel().transact(protocol::MessageType::CallRequest,
                                     requestBody(name, x, 4), consume);
        }
        EXPECT_EQ(status, 1u) << name;
        EXPECT_NE(message.find("trailing"), std::string::npos) << message;
      }
      s[0] = 0.0;
      call("vsum", args);
      EXPECT_DOUBLE_EQ(s[0], want);
    }
    if (peer) {
      peer->close();
    } else {
      client->close();
    }
  }
}

TEST(ReactorSjf, LargeCallIsDecodedAheadOfQueuedCompute) {
  // Under SJF a large call's prologue job must not wait behind hinted
  // compute jobs: until it is decoded its own hint is unknown.  The one
  // worker naps (hint 1) while `tiny` (hint 10) has its compute job
  // queued; then `bulk` (hint 1e6, over kSmallFrameBytes) arrives.  Its
  // decode, and with it its enqueue, must come before tiny's dequeue.
  Registry registry;
  std::atomic<int> naps{0};
  registry.add(R"IDL(Define nap(mode_in long ms) CalcOrder 1,
                     Calls "C" nap(ms);)IDL",
               [&](server::CallContext& ctx) {
                 naps.fetch_add(1);
                 std::this_thread::sleep_for(
                     std::chrono::milliseconds(ctx.intArg("ms")));
               });
  registry.add(R"IDL(Define tiny(mode_in long n, mode_out double s[1])
                     CalcOrder 10,
                     Calls "C" tiny(n, s);)IDL",
               [](server::CallContext& ctx) {
                 ctx.arrayOut("s")[0] = static_cast<double>(ctx.intArg("n"));
               });
  registry.add(R"IDL(Define bulk(mode_in long n, mode_in double x[n],
                                 mode_out double s[1])
                     CalcOrder 1000000,
                     Calls "C" bulk(n, x, s);)IDL",
               [](server::CallContext& ctx) {
                 ctx.arrayOut("s")[0] = ctx.arrayIn("x").back();
               });
  NinfServer server(registry, {.workers = 1,
                               .policy = server::QueuePolicy::Sjf,
                               .name = "sjf-prologue"});
  auto listener = std::make_shared<transport::TcpListener>(0);
  const auto port = listener->port();
  server.start(listener);
  obs::Gauge& depth = obs::gauge("server.queue.depth.sjf-prologue");

  std::vector<std::unique_ptr<NinfClient>> clients;
  for (const char* name : {"nap", "nap", "tiny", "bulk"}) {
    clients.push_back(NinfClient::connectTcp("127.0.0.1", port));
    clients.back()->queryInterface(name);
  }
  const auto nap = [&](NinfClient& c) {
    c.call("nap", std::vector<ArgValue>{ArgValue::inInt(200)});
  };
  // The second nap (hint 1) overtakes tiny (hint 10), so tiny's compute
  // job sits queued behind a busy worker however the prologues ran.
  std::thread nap1([&] { nap(*clients[0]); });
  ASSERT_TRUE(waitFor([&] { return naps.load() == 1; }));
  client::CallResult tiny_result;
  std::vector<double> tiny_s(1);
  std::thread tiny([&] {
    tiny_result = clients[2]->call(
        "tiny", std::vector<ArgValue>{ArgValue::inInt(7),
                                      ArgValue::outArray(tiny_s)});
  });
  ASSERT_TRUE(waitFor([&] { return depth.value() >= 1.0; }));
  std::thread nap2([&] { nap(*clients[1]); });
  ASSERT_TRUE(waitFor([&] { return depth.value() >= 2.0; }));
  ASSERT_TRUE(waitFor([&] { return naps.load() == 2; }));

  client::CallResult bulk_result;
  std::vector<double> x(4096, 1.0);
  x.back() = 42.0;
  std::vector<double> bulk_s(1);
  std::thread bulk([&] {
    bulk_result = clients[3]->call(
        "bulk", std::vector<ArgValue>{
                    ArgValue::inInt(static_cast<std::int64_t>(x.size())),
                    ArgValue::inArray(x), ArgValue::outArray(bulk_s)});
  });
  ASSERT_TRUE(waitFor([&] { return depth.value() >= 2.0; }));

  for (std::thread* t : {&nap1, &nap2, &tiny, &bulk}) t->join();
  EXPECT_DOUBLE_EQ(tiny_s[0], 7.0);
  EXPECT_DOUBLE_EQ(bulk_s[0], 42.0);
  EXPECT_LT(bulk_result.server.enqueue, tiny_result.server.dequeue)
      << "bulk enqueued at " << bulk_result.server.enqueue
      << ", tiny dequeued at " << tiny_result.server.dequeue;
  for (auto& c : clients) c->close();
  server.stop();
}

/// A listener without a native handle (the Listener defaults).
class UnpollableListener : public transport::Listener {
 public:
  std::unique_ptr<transport::Stream> accept() override { return nullptr; }
  void close() override {}
};

TEST(ReactorPrecondition, UnpollableListenerIsRejected) {
  Registry registry;
  server::registerStandardExecutables(registry);
  NinfServer server(registry, {.workers = 1});
  const int before = processThreadCount();
  // One serving core: no pollable handle means no server, not a
  // thread-per-connection fallback.
  EXPECT_THROW(server.start(std::make_shared<UnpollableListener>()),
               std::logic_error);
  EXPECT_EQ(processThreadCount(), before);
  server.stop();
}

}  // namespace
}  // namespace ninf
