// End-to-end Ninf RPC: client API against a live reactor-served server
// over loopback TCP, including the two-stage interface query, the
// two-phase call protocol (section 5.1), and multi-client concurrency.
#include <gtest/gtest.h>

#include <thread>

#include "client/client.h"
#include "client/ninf_api.h"
#include "common/error.h"
#include "numlib/ep.h"
#include "numlib/matrix.h"
#include "numlib/mmul.h"
#include "server/server.h"
#include "transport/tcp_transport.h"

namespace ninf {
namespace {

using client::NinfClient;
using client::ninfCall;
using protocol::ArgValue;
using server::NinfServer;
using server::Registry;

/// Server + one connected client, both in this process.  The server runs
/// its production core (the reactor), so the client reaches it over a
/// loopback TCP listener.
class InprocRpc : public ::testing::Test {
 protected:
  void SetUp() override {
    server::registerStandardExecutables(registry_, 2);
    server_.emplace(registry_, server::ServerOptions{.workers = 2});
    auto listener = std::make_shared<transport::TcpListener>(0);
    server().start(listener);
    client_.emplace(transport::tcpConnect("127.0.0.1", listener->port()));
  }

  void TearDown() override {
    client().close();
    server().stop();
  }

  // Engaged in SetUp() for the whole test lifetime; the accessors keep
  // the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  NinfServer& server() { return *server_; }
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  NinfClient& client() { return *client_; }

  Registry registry_;
  std::optional<NinfServer> server_;
  std::optional<NinfClient> client_;
};

TEST_F(InprocRpc, QueryInterfaceReturnsCompiledIdl) {
  const auto& info = client().queryInterface("dmmul");
  EXPECT_EQ(info.name, "dmmul");
  EXPECT_EQ(info.params.size(), 4u);
  // Cached: second query must not hit the wire (same object back).
  EXPECT_EQ(&client().queryInterface("dmmul"), &info);
}

TEST_F(InprocRpc, UnknownExecutableThrowsNotFound) {
  EXPECT_THROW(client().queryInterface("nonexistent"), NotFoundError);
}

TEST_F(InprocRpc, DmmulOverRpc) {
  const std::size_t n = 8;
  const numlib::Matrix a = numlib::randomMatrix(n, 1);
  const numlib::Matrix b = numlib::randomMatrix(n, 2);
  std::vector<double> c(n * n);
  std::vector<ArgValue> args = {
      ArgValue::inInt(static_cast<std::int64_t>(n)),
      ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
      ArgValue::outArray(c)};
  const auto result = client().call("dmmul", args);
  const numlib::Matrix expected = numlib::dmmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected.flat()[i], 1e-12);
  }
  EXPECT_GT(result.bytes_sent, static_cast<std::int64_t>(n * n * 8 * 2));
  EXPECT_GE(result.server.waitTime(), 0.0);
}

TEST_F(InprocRpc, NinfCallSugarMatchesPaperExample) {
  // double A[n][n], B[n][n], C[n][n]; Ninf_call("dmmul", n, A, B, C);
  const std::int64_t n = 4;
  std::vector<double> a = {2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2};
  std::vector<double> b(16);
  for (std::size_t i = 0; i < 16; ++i) b[i] = static_cast<double>(i);
  std::vector<double> c(16);
  ninfCall(client(), "dmmul", n, a, b, c);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(c[i], 2.0 * b[i]);
}

TEST_F(InprocRpc, LinpackOverRpcSolves) {
  const std::size_t n = 16;
  numlib::Matrix a = numlib::randomMatrix(n, 9);
  std::vector<double> b = numlib::onesRhs(a);
  std::vector<double> x(n);
  ninfCall(client(), "linpack", static_cast<std::int64_t>(n),
           std::int64_t{1}, a.flat(), b, x);
  for (double xi : x) EXPECT_NEAR(xi, 1.0, 1e-6);
}

TEST_F(InprocRpc, ServerSideErrorSurfacesAsRemoteError) {
  const std::size_t n = 4;
  std::vector<double> a(n * n, 0.0);  // singular
  std::vector<double> b(n, 1.0);
  std::vector<double> x(n);
  EXPECT_THROW(ninfCall(client(), "linpack", static_cast<std::int64_t>(n),
                        std::int64_t{0}, a, b, x),
               RemoteError);
  // The connection must survive the failed call.
  EXPECT_NO_THROW(client().ping());
}

TEST_F(InprocRpc, WrongArityReportedBeforeWire) {
  EXPECT_THROW(ninfCall(client(), "dmmul", std::int64_t{4}), ProtocolError);
}

TEST_F(InprocRpc, ListExecutables) {
  const auto names = client().listExecutables();
  EXPECT_EQ(names.size(), 4u);
}

TEST_F(InprocRpc, ServerStatusCountsCompletions) {
  std::vector<double> sums(2), q(10);
  ninfCall(client(), "ep", std::int64_t{0}, std::int64_t{256}, sums, q);
  ninfCall(client(), "ep", std::int64_t{256}, std::int64_t{256}, sums, q);
  const auto status = client().serverStatus();
  EXPECT_EQ(status.completed, 2u);
  EXPECT_EQ(status.running, 0u);
}

TEST_F(InprocRpc, PingEchoes) { EXPECT_GE(client().ping(1024), 0.0); }

TEST_F(InprocRpc, TwoPhaseSubmitFetch) {
  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(2048),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  const auto handle = client().submit("ep", args);
  EXPECT_GT(handle.id, 0u);
  // Poll until ready.
  std::optional<client::CallResult> result;
  for (int attempt = 0; attempt < 200 && !result; ++attempt) {
    result = client().fetch(handle, args);
    if (!result) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(result.has_value());
  const auto direct = numlib::runEp(0, 2048);
  EXPECT_DOUBLE_EQ(sums[0], direct.sx);
}

TEST_F(InprocRpc, FetchUnknownJobIsRemoteError) {
  std::vector<double> sums(2), q(10);
  std::vector<ArgValue> args = {ArgValue::inInt(0), ArgValue::inInt(16),
                                ArgValue::outArray(sums),
                                ArgValue::outArray(q)};
  client().queryInterface("ep");
  EXPECT_THROW(client().fetch({999999, "ep"}, args), RemoteError);
}

TEST(TcpRpc, FullStackOverRealSockets) {
  Registry registry;
  server::registerStandardExecutables(registry);
  NinfServer server(registry, {.workers = 2});
  auto listener = std::make_shared<transport::TcpListener>(0);
  const auto port = listener->port();
  server.start(listener);

  auto client = NinfClient::connectTcp("127.0.0.1", port);
  const std::int64_t n = 6;
  std::vector<double> a(36), b(36), c(36);
  for (std::size_t i = 0; i < 36; ++i) {
    a[i] = (i % 7 == 0) ? 1.0 : 0.1;
    b[i] = static_cast<double>(i);
  }
  ninfCall(*client, "dmmul", n, a, b, c);
  std::vector<double> expected(36);
  numlib::dmmul(6, a, b, expected);
  for (std::size_t i = 0; i < 36; ++i) EXPECT_NEAR(c[i], expected[i], 1e-12);

  client->close();
  server.stop();
}

TEST(TcpRpc, MultipleConcurrentClients) {
  Registry registry;
  server::registerStandardExecutables(registry);
  NinfServer server(registry, {.workers = 4});
  auto listener = std::make_shared<transport::TcpListener>(0);
  const auto port = listener->port();
  server.start(listener);

  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        auto client = NinfClient::connectTcp("127.0.0.1", port);
        std::vector<double> sums(2), q(10);
        const std::int64_t first = t * 1000;
        ninfCall(*client, "ep", first, std::int64_t{1000}, sums, q);
        const auto direct = numlib::runEp(first, 1000);
        if (sums[0] != direct.sx) ++failures;
        client->close();
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.metrics().completed(), kClients);
  server.stop();
}

TEST(TcpRpc, SjfServerStillServesCorrectly) {
  Registry registry;
  server::registerStandardExecutables(registry);
  NinfServer server(registry,
                    {.workers = 1, .policy = server::QueuePolicy::Sjf});
  auto listener = std::make_shared<transport::TcpListener>(0);
  const auto port = listener->port();
  server.start(listener);
  auto client = NinfClient::connectTcp("127.0.0.1", port);
  std::vector<double> sums(2), q(10);
  ninfCall(*client, "ep", std::int64_t{0}, std::int64_t{512}, sums, q);
  EXPECT_DOUBLE_EQ(sums[0], numlib::runEp(0, 512).sx);
  client->close();
  server.stop();
}

}  // namespace
}  // namespace ninf
