// Transports: in-process socketpair semantics and real TCP loopback.
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "common/error.h"
#include "obs/metrics.h"
#include "stream_send.h"
#include "transport/inproc_transport.h"
#include "transport/tcp_transport.h"

namespace ninf::transport {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

TEST(Inproc, BytesFlowBothDirections) {
  auto [a, b] = inprocPair();
  sendBytes(*a, bytes({1, 2, 3}));
  std::uint8_t buf[3];
  b->recvAll(buf);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[2], 3);
  sendBytes(*b, bytes({9}));
  std::uint8_t one;
  a->recvAll({&one, 1});
  EXPECT_EQ(one, 9);
}

TEST(Inproc, RecvAssemblesMultipleSends) {
  auto [a, b] = inprocPair();
  sendBytes(*a, bytes({1, 2}));
  sendBytes(*a, bytes({3, 4}));
  std::uint8_t buf[4];
  b->recvAll(buf);
  EXPECT_EQ(buf[3], 4);
}

TEST(Inproc, CloseWakesBlockedReceiver) {
  auto [a, b] = inprocPair();
  auto fut = std::async(std::launch::async, [&] {
    std::uint8_t buf[1];
    EXPECT_THROW(b->recvAll(buf), TransportError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  a->close();
  fut.get();
}

TEST(Inproc, DrainsBufferedBytesBeforeEof) {
  auto [a, b] = inprocPair();
  sendBytes(*a, bytes({7, 8}));
  a->shutdownSend();
  std::uint8_t buf[2];
  b->recvAll(buf);
  EXPECT_EQ(buf[0], 7);
  std::uint8_t extra;
  EXPECT_THROW(b->recvAll({&extra, 1}), TransportError);
}

TEST(Inproc, SendAfterCloseThrows) {
  auto [a, b] = inprocPair();
  a->close();
  EXPECT_THROW(sendBytes(*a, bytes({1})), TransportError);
}

TEST(Inproc, SendvDeliversBuffersInOrder) {
  auto [a, b] = inprocPair();
  const auto b1 = bytes({1, 2, 3});
  const auto b2 = bytes({});
  const auto b3 = bytes({4, 5});
  const std::span<const std::uint8_t> bufs[] = {b1, b2, b3};
  a->sendv(bufs);
  std::uint8_t out[5];
  b->recvAll(out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[2], 3);
  EXPECT_EQ(out[3], 4);
  EXPECT_EQ(out[4], 5);
}

TEST(Inproc, RecvSomeReturnsAvailablePrefix) {
  auto [a, b] = inprocPair();
  sendBytes(*a, bytes({1, 2, 3}));
  std::uint8_t buf[8] = {};
  const std::size_t got = b->recvSome(buf);
  ASSERT_GE(got, 1u);
  ASSERT_LE(got, 3u);
  EXPECT_EQ(buf[0], 1);
}

TEST(Inproc, RecvSomeThrowsOnceClosedAndDrained) {
  auto [a, b] = inprocPair();
  sendBytes(*a, bytes({9}));
  a->close();
  std::uint8_t buf[4];
  EXPECT_EQ(b->recvSome(buf), 1u);
  EXPECT_EQ(buf[0], 9);
  EXPECT_THROW(b->recvSome(buf), TransportError);
}

TEST(Inproc, PairIsPollable) {
  auto [a, b] = inprocPair();
  EXPECT_GE(a->nativeHandle(), 0);
  ASSERT_TRUE(a->setNonBlocking(true));
  std::uint8_t buf[4];
  EXPECT_EQ(a->recvNowait(buf), 0u);  // empty: would block
  sendBytes(*b, bytes({6}));
  EXPECT_EQ(a->recvNowait(buf), 1u);
  EXPECT_EQ(buf[0], 6);
}

TEST(Tcp, LoopbackEcho) {
  TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);
  auto server_side = std::async(std::launch::async, [&] {
    auto stream = listener.accept();
    ASSERT_NE(stream, nullptr);
    std::uint8_t buf[5];
    stream->recvAll(buf);
    sendBytes(*stream, buf);
  });
  auto client = tcpConnect("127.0.0.1", listener.port());
  sendBytes(*client, bytes({10, 20, 30, 40, 50}));
  std::uint8_t echo[5];
  client->recvAll(echo);
  EXPECT_EQ(echo[4], 50);
  server_side.get();
}

TEST(Tcp, LargeTransferIntegrity) {
  TcpListener listener(0);
  std::vector<std::uint8_t> big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  auto server_side = std::async(std::launch::async, [&] {
    auto stream = listener.accept();
    std::vector<std::uint8_t> got(big.size());
    stream->recvAll(got);
    EXPECT_EQ(got, big);
  });
  auto client = tcpConnect("127.0.0.1", listener.port());
  sendBytes(*client, big);
  server_side.get();
}

TEST(Tcp, SendvManyBuffersIntegrity) {
  // More buffers than one sendmsg iovec batch (64) to exercise batching
  // and the partial-advance bookkeeping.
  constexpr std::size_t kBufs = 100;
  std::vector<std::vector<std::uint8_t>> chunks(kBufs);
  std::vector<std::uint8_t> expected;
  for (std::size_t i = 0; i < kBufs; ++i) {
    chunks[i].resize(1 + (i * 37) % 5000);
    for (std::size_t j = 0; j < chunks[i].size(); ++j) {
      chunks[i][j] = static_cast<std::uint8_t>(i * 131 + j);
    }
    expected.insert(expected.end(), chunks[i].begin(), chunks[i].end());
  }
  std::vector<std::span<const std::uint8_t>> bufs(chunks.begin(),
                                                  chunks.end());
  bufs.insert(bufs.begin() + 5, std::span<const std::uint8_t>{});  // empty

  TcpListener listener(0);
  auto server_side = std::async(std::launch::async, [&] {
    auto stream = listener.accept();
    std::vector<std::uint8_t> got(expected.size());
    stream->recvAll(got);
    EXPECT_EQ(got, expected);
  });
  auto client = tcpConnect("127.0.0.1", listener.port());
  client->sendv(bufs);
  server_side.get();
}

TEST(Tcp, RecvSomeReturnsPartialData) {
  TcpListener listener(0);
  auto server_side = std::async(std::launch::async, [&] {
    auto stream = listener.accept();
    sendBytes(*stream, bytes({1, 2, 3}));
    std::uint8_t ack;
    stream->recvAll({&ack, 1});
  });
  auto client = tcpConnect("127.0.0.1", listener.port());
  std::uint8_t buf[16] = {};
  std::size_t got = 0;
  while (got < 3) got += client->recvSome(std::span(buf).subspan(got));
  EXPECT_EQ(got, 3u);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[2], 3);
  sendBytes(*client, bytes({0}));
  server_side.get();
}

TEST(Tcp, TimedConnectSucceedsAgainstLiveListener) {
  TcpListener listener(0);
  auto server_side = std::async(std::launch::async, [&] {
    auto stream = listener.accept();
    std::uint8_t b;
    stream->recvAll({&b, 1});
    sendBytes(*stream, {&b, 1});
  });
  // Exercises the non-blocking connect + poll path end to end; the
  // stream must come back in blocking mode for recvAll to work.
  auto client = tcpConnect("127.0.0.1", listener.port(), 5.0);
  sendBytes(*client, bytes({42}));
  std::uint8_t echo;
  client->recvAll({&echo, 1});
  EXPECT_EQ(echo, 42);
  server_side.get();
}

TEST(Tcp, ConnectErrorNamesEndpoint) {
  try {
    tcpConnect("127.0.0.1", 1);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("127.0.0.1:1"), std::string::npos);
  }
}

TEST(Tcp, ConnectRefusedThrows) {
  // Port 1 on loopback is essentially never listening.
  EXPECT_THROW(tcpConnect("127.0.0.1", 1), TransportError);
}

TEST(Tcp, BadAddressThrows) {
  EXPECT_THROW(tcpConnect("not-an-ip", 80), TransportError);
}

TEST(Tcp, CloseUnblocksAccept) {
  TcpListener listener(0);
  auto fut = std::async(std::launch::async, [&] { return listener.accept(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.close();
  EXPECT_EQ(fut.get(), nullptr);
}

TEST(Tcp, ByteCountersMatchTransferredBytesExactly) {
  obs::Counter& sent = obs::counter("transport.tcp.bytes_sent");
  obs::Counter& received = obs::counter("transport.tcp.bytes_received");
  const auto sent0 = sent.value();
  const auto received0 = received.value();
  TcpListener listener(0);
  auto server_side = std::async(std::launch::async, [&] {
    auto stream = listener.accept();
    std::uint8_t buf[5];
    stream->recvAll(buf);
    sendBytes(*stream, buf);
  });
  auto client = tcpConnect("127.0.0.1", listener.port());
  sendBytes(*client, bytes({1, 2, 3, 4, 5}));
  std::uint8_t echo[5];
  client->recvAll(echo);
  server_side.get();
  // Both endpoints live in this process: 5 bytes sent and received on
  // each side of the echo.
  EXPECT_EQ(sent.value() - sent0, 10u);
  EXPECT_EQ(received.value() - received0, 10u);
}

TEST(Tcp, RecvCounterOmitsBytesNeverReceived) {
  // The peer delivers 3 of the 8 bytes we ask for, then disconnects.
  // recvAll throws — and the counter must reflect the 3 bytes that
  // actually arrived, not the 8 we hoped for.
  obs::Counter& received = obs::counter("transport.tcp.bytes_received");
  TcpListener listener(0);
  auto server_side = std::async(std::launch::async, [&] {
    auto stream = listener.accept();
    sendBytes(*stream, bytes({7, 8, 9}));
    stream->close();
  });
  auto client = tcpConnect("127.0.0.1", listener.port());
  server_side.get();
  const auto received0 = received.value();
  std::uint8_t buf[8];
  EXPECT_THROW(client->recvAll(buf), TransportError);
  EXPECT_EQ(received.value() - received0, 3u);
}

TEST(Tcp, PeerDisconnectSurfacesOnRecv) {
  TcpListener listener(0);
  auto server_side = std::async(std::launch::async, [&] {
    auto stream = listener.accept();
    stream->close();
  });
  auto client = tcpConnect("127.0.0.1", listener.port());
  server_side.get();
  std::uint8_t buf[1];
  EXPECT_THROW(client->recvAll(buf), TransportError);
}

}  // namespace
}  // namespace ninf::transport
