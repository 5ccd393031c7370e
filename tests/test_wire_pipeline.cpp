// Streaming wire pipeline acceptance: large-array calls must flow
// end-to-end with at most one contiguous copy of the request body.  The
// client's scatter-gather path byteswaps through a bounded scratch and
// receives OUT arrays straight into the caller's memory; the server's
// reactor reassembles each request frame into exactly one slab.
#include <gtest/gtest.h>

#include <thread>

#include "client/client.h"
#include "common/error.h"
#include "numlib/matrix.h"
#include "numlib/mmul.h"
#include "obs/metrics.h"
#include "protocol/call_marshal.h"
#include "server/server.h"
#include "transport/tcp_transport.h"
#include "xdr/xdr.h"

namespace ninf {
namespace {

using client::NinfClient;
using protocol::ArgValue;
using server::NinfServer;
using server::Registry;

class WirePipeline : public ::testing::Test {
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

  /// Wire size of the dmmul CallRequest body for `args`: entry name,
  /// scalars, and both IN arrays.
  double requestBody(std::span<const ArgValue> args) {
    return static_cast<double>(
        protocol::buildCallRequest(client().queryInterface("dmmul"), args)
            .size());
  }

  Registry registry_;
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  NinfServer& server() { return *server_; }
  std::optional<NinfServer> server_;
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  NinfClient& client() { return *client_; }
  std::optional<NinfClient> client_;
};

/// Allowance over one request body for the peak gauge: the 64 KiB
/// byteswap scratch plus the scalar sections, headers, and the body
/// reader's 4 KiB buffer, with generous slack.  Any second recorded
/// buffer the size of a 1.125 MiB array overshoots it.
constexpr double kPeakBudget = 256.0 * 1024.0;

TEST_F(WirePipeline, LargeCallNeverMaterializesArrayPayload) {
  const std::size_t n = 384;  // three n*n arrays of 1.125 MiB each
  const numlib::Matrix a = numlib::randomMatrix(n, 11);
  const numlib::Matrix b = numlib::randomMatrix(n, 12);
  std::vector<double> c(n * n);
  std::vector<ArgValue> args = {
      ArgValue::inInt(static_cast<std::int64_t>(n)),
      ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
      ArgValue::outArray(c)};
  // Warm the interface cache, then measure only the data path.
  client().queryInterface("dmmul");
  obs::MetricsRegistry::instance().reset();

  const auto result = client().call("dmmul", args);

  // One copy of the request, never two: the reactor's reassembly slab.
  const double peak = obs::gauge("wire.peak_buffer_bytes").value();
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, requestBody(args) + kPeakBudget)
      << "more than one request body of contiguous wire buffering";
  EXPECT_GT(result.bytes_sent,
            static_cast<std::int64_t>(2 * n * n * sizeof(double)));

  // And the math still has to be right.
  const numlib::Matrix expected = numlib::dmmul(a, b);
  for (std::size_t i = 0; i < c.size(); i += 997) {
    EXPECT_NEAR(c[i], expected.flat()[i], 1e-9);
  }
}

TEST_F(WirePipeline, TwoPhaseLargeArraysStayStreamed) {
  const std::size_t n = 384;
  const numlib::Matrix a = numlib::randomMatrix(n, 21);
  const numlib::Matrix b = numlib::randomMatrix(n, 22);
  std::vector<double> c(n * n);
  std::vector<ArgValue> args = {
      ArgValue::inInt(static_cast<std::int64_t>(n)),
      ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
      ArgValue::outArray(c)};
  client().queryInterface("dmmul");
  obs::MetricsRegistry::instance().reset();

  const auto handle = client().submit("dmmul", args);
  std::optional<client::CallResult> result;
  for (int attempt = 0; attempt < 2000 && !result; ++attempt) {
    result = client().fetch(handle, args);
    if (!result) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(result.has_value());

  const double peak = obs::gauge("wire.peak_buffer_bytes").value();
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, requestBody(args) + kPeakBudget);

  const numlib::Matrix expected = numlib::dmmul(a, b);
  for (std::size_t i = 0; i < c.size(); i += 997) {
    EXPECT_NEAR(c[i], expected.flat()[i], 1e-9);
  }
}

TEST_F(WirePipeline, SmallCallsStillInlineBelowThreshold) {
  // Arrays below kArrayRefThresholdElems ship inline: the call works and
  // the peak buffer stays tiny (single contiguous frame).
  const std::size_t n = 8;
  const numlib::Matrix a = numlib::randomMatrix(n, 5);
  const numlib::Matrix b = numlib::randomMatrix(n, 6);
  std::vector<double> c(n * n);
  std::vector<ArgValue> args = {
      ArgValue::inInt(static_cast<std::int64_t>(n)),
      ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
      ArgValue::outArray(c)};
  client().call("dmmul", args);
  const numlib::Matrix expected = numlib::dmmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected.flat()[i], 1e-12);
  }
}

TEST(ClientConnect, FailureNamesHostAndPort) {
  try {
    NinfClient::connectTcp("127.0.0.1", 1, 2.0);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("127.0.0.1:1"), std::string::npos) << what;
    EXPECT_NE(what.find("unreachable"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace ninf
