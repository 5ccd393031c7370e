// Hot-path regression tests (PR 8): steady-state allocation-freedom of
// the v2 frame path, FrameAssembler compaction linearity, slow-reader
// byte-exactness through the reactor's batched write queue, and
// end-to-end idempotent-cache correctness under fault injection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "client/channel.h"
#include "client/client.h"
#include "common/buffer_pool.h"
#include "common/error.h"
#include "numlib/matrix.h"
#include "numlib/mmul.h"
#include "obs/metrics.h"
#include "protocol/call_marshal.h"
#include "protocol/message.h"
#include "server/server.h"
#include "transport/fault_injection.h"
#include "transport/tcp_transport.h"
#include "transport/transport.h"
#include "xdr/xdr.h"

// ---- counting allocator ---------------------------------------------------
//
// Replacing the global operator new/delete in this binary lets the tests
// below prove a code path performs no heap traffic at all — the pool and
// the assembler are DESIGNED to be allocation-free in steady state, and
// "low" would silently regress back to per-call malloc.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// The compiler cannot see that the replaced operator new IS malloc-based
// and warns about free() in the matching deletes; the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace ninf {
namespace {

using client::CallOptions;
using client::NinfClient;
using protocol::ArgValue;
using server::NinfServer;
using server::Registry;
using transport::FaultPlan;
using transport::FaultSpec;

std::uint64_t heapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

// ---- satellite: FrameAssembler compaction stays amortized-linear ----------

TEST(HotPath, FrameAssemblerCompactionIsAmortizedLinear) {
  // Dribble thousands of small v2 frames through the assembler in
  // 7-byte reads.  Offset-tracked consumption moves each retained byte
  // at most once per buffer halving, so total memmove traffic is
  // bounded by a small multiple of the bytes fed; the historical
  // erase-per-frame scheme would move O(frames * frame_size) bytes.
  protocol::FrameAssembler assembler("test");
  assembler.setMode(protocol::WireMode::V2);

  xdr::Encoder body;
  for (int i = 0; i < 10; ++i) body.putU32(static_cast<std::uint32_t>(i));
  std::vector<std::uint8_t> wire;
  constexpr int kFrames = 4000;
  for (int i = 0; i < kFrames; ++i) {
    const auto frame = protocol::flattenFramePooled(
        protocol::WireMode::V2, protocol::MessageType::Ping,
        static_cast<std::uint64_t>(i), {}, body);
    const auto bytes = frame.span();
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }

  std::size_t frames_out = 0;
  for (std::size_t off = 0; off < wire.size(); off += 7) {
    const std::size_t n = std::min<std::size_t>(7, wire.size() - off);
    assembler.feed({wire.data() + off, n});
    while (auto f = assembler.next()) {
      EXPECT_EQ(f->header.call_id, frames_out);
      ++frames_out;
    }
  }
  EXPECT_EQ(frames_out, static_cast<std::size_t>(kFrames));
  // Linear bound with generous slack (measured ~0x of bytes fed, since
  // the buffer is drained completely between most reads).
  EXPECT_LE(assembler.movedBytes(), 2 * wire.size());
}

// ---- tentpole: steady-state frame path is allocation-free -----------------

TEST(HotPath, SteadyStateFramePathIsAllocationFree) {
  // flattenFramePooled -> FrameAssembler::feed -> next() is the per-call
  // wire path of the v2 server (epilogue flatten, reactor reassembly).
  // After warm-up every buffer comes from the slab pool and the
  // assembler's scratch vector has reached its high-water capacity, so
  // the loop must perform ZERO heap allocations.
  xdr::Encoder body;
  std::vector<double> payload(256, 1.5);  // 2 KiB scalar payload
  body.putU32(static_cast<std::uint32_t>(payload.size()));
  for (const double v : payload) body.putDouble(v);

  protocol::FrameAssembler assembler("test");
  assembler.setMode(protocol::WireMode::V2);
  const protocol::WireTraceContext ctx{};

  auto pump = [&](std::uint64_t id) {
    common::PooledBuffer wire =
        protocol::flattenFramePooled(protocol::WireMode::V2,
                                     protocol::MessageType::CallReply, id,
                                     ctx, body);
    assembler.feed(wire.span());
    auto frame = assembler.next();
    return frame.has_value() && frame->header.call_id == id;
  };

  for (std::uint64_t i = 0; i < 64; ++i) ASSERT_TRUE(pump(i));  // warm up

  const double misses0 = obs::counter("pool.buffers.misses").value();
  const std::uint64_t allocs0 = heapAllocs();
  int bad = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    if (!pump(i)) ++bad;
  }
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(heapAllocs() - allocs0, 0u)
      << "the steady-state frame path must not touch the heap";
  EXPECT_DOUBLE_EQ(obs::counter("pool.buffers.misses").value() - misses0,
                   0.0);
}

// ---- live-server fixtures -------------------------------------------------

/// Reactor-served TCP server with the standard executables plus two
/// purpose-built entries: `idem` (Idempotent, counts executions) and
/// `impure` (NOT idempotent, output depends on execution count).
class HotPathRpc : public ::testing::Test {
 protected:
  void SetUp() override {
    server::registerStandardExecutables(registry_, 2);
    registry_.add(
        R"IDL(Define idem(mode_in long n,
                          mode_in double A[n],
                          mode_out double B[n])
              Idempotent,
              Calls "C" idem(n, A, B);)IDL",
        [this](server::CallContext& ctx) {
          idem_runs_.fetch_add(1);
          const auto n = static_cast<std::size_t>(ctx.intArg("n"));
          const auto in = ctx.arrayIn("A");
          auto out = ctx.arrayOut("B");
          for (std::size_t i = 0; i < n; ++i) out[i] = 2.0 * in[i] + 1.0;
        });
    registry_.add(
        R"IDL(Define impure(mode_in long n,
                            mode_out double B[n])
              Calls "C" impure(n, B);)IDL",
        [this](server::CallContext& ctx) {
          const auto gen = static_cast<double>(impure_runs_.fetch_add(1));
          auto out = ctx.arrayOut("B");
          for (auto& v : out) v = gen;
        });
    server_.emplace(registry_, server::ServerOptions{.workers = 4});
    listener_ = std::make_shared<transport::TcpListener>(0);
    server().start(listener_);
  }

  void TearDown() override { server().stop(); }

  std::unique_ptr<transport::Stream> connect() {
    return transport::tcpConnect("127.0.0.1", listener_->port());
  }

  Registry registry_;
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  NinfServer& server() { return *server_; }
  std::optional<NinfServer> server_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::atomic<int> idem_runs_{0};
  std::atomic<int> impure_runs_{0};
};

// ---- satellite: cache correctness end-to-end ------------------------------

TEST_F(HotPathRpc, ConcurrentIdenticalIdempotentCallsComputeOnce) {
  // A thundering herd of byte-identical idempotent calls over one
  // multiplexed connection: single-flight coalescing must run the
  // handler exactly once and hand every caller the same reply bytes.
  NinfClient client(connect());
  constexpr std::size_t kN = 64;
  constexpr int kThreads = 16;
  std::vector<double> in(kN);
  for (std::size_t i = 0; i < kN; ++i) in[i] = 0.25 * static_cast<double>(i);

  std::vector<std::vector<double>> outs(kThreads,
                                        std::vector<double>(kN, -1.0));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<ArgValue> args = {
          ArgValue::inInt(static_cast<std::int64_t>(kN)),
          ArgValue::inArray(in), ArgValue::outArray(outs[t])};
      try {
        client.call("idem", args);
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  client.close();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(idem_runs_.load(), 1) << "cache must coalesce identical calls";
  for (const auto& out : outs) {
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_DOUBLE_EQ(out[i], 2.0 * in[i] + 1.0);
    }
  }
}

TEST_F(HotPathRpc, NonIdempotentCallsAreNeverCached) {
  NinfClient client(connect());
  constexpr std::size_t kN = 8;
  std::vector<double> first(kN, -1.0);
  std::vector<double> second(kN, -1.0);
  {
    std::vector<ArgValue> args = {
        ArgValue::inInt(static_cast<std::int64_t>(kN)),
        ArgValue::outArray(first)};
    client.call("impure", args);
  }
  {
    std::vector<ArgValue> args = {
        ArgValue::inInt(static_cast<std::int64_t>(kN)),
        ArgValue::outArray(second)};
    client.call("impure", args);
  }
  client.close();
  // Byte-identical requests, but the entry lacks the Idempotent clause:
  // both must execute, and the generation-stamped outputs must differ.
  EXPECT_EQ(impure_runs_.load(), 2);
  EXPECT_DOUBLE_EQ(first[0], 0.0);
  EXPECT_DOUBLE_EQ(second[0], 1.0);
}

TEST_F(HotPathRpc, CacheServesByteIdenticalRepliesUnderChaos) {
  // Seeded fault injection (resets, delays) on the client side while
  // byte-identical idempotent calls retry: however the wire misbehaves,
  // the handler runs exactly once server-side and every successful
  // caller sees the owner's reply, byte for byte.
  FaultSpec spec;
  spec.reset = 0.12;
  spec.delay = 0.2;
  spec.delay_min_ms = 0.05;
  spec.delay_max_ms = 0.5;
  auto plan = std::make_shared<FaultPlan>(1234, spec);

  NinfClient client(transport::wrapFaulty(connect(), plan));
  client.setReconnect([this, plan] {
    transport::checkConnectFault(*plan, "hotpath chaos server");
    return transport::wrapFaulty(connect(), plan);
  });

  constexpr std::size_t kN = 32;
  std::vector<double> in(kN);
  for (std::size_t i = 0; i < kN; ++i) in[i] = 1.0 / (1.0 + static_cast<double>(i));

  CallOptions opts;
  opts.deadline_seconds = 5.0;
  opts.retries = 8;
  opts.backoff_seconds = 0.002;

  int succeeded = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<double> out(kN, -1.0);
    std::vector<ArgValue> args = {
        ArgValue::inInt(static_cast<std::int64_t>(kN)),
        ArgValue::inArray(in), ArgValue::outArray(out)};
    try {
      client.call("idem", args);
    } catch (const Error&) {
      continue;  // a round may die to chaos; correctness holds for the rest
    }
    ++succeeded;
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_DOUBLE_EQ(out[i], 2.0 * in[i] + 1.0) << "round " << round;
    }
  }
  client.close();

  EXPECT_GT(succeeded, 0);
  // Every request was byte-identical, so no matter how many times chaos
  // forced a resend, the kernel ran exactly once.
  EXPECT_EQ(idem_runs_.load(), 1);
}

// ---- satellite: slow reader never sees duplicated/interleaved bytes -------

/// Decorator that drains the wire in tiny sips with pauses, so the
/// server's reply stream backs up and its reactor write queue goes
/// through many partial sendvNowait rounds.
class ThrottledStream : public transport::Stream {
 public:
  explicit ThrottledStream(std::unique_ptr<transport::Stream> inner)
      : inner_(std::move(inner)) {}

  void sendv(
      std::span<const std::span<const std::uint8_t>> buffers) override {
    inner_->sendv(buffers);
  }
  void recvAll(std::span<std::uint8_t> buffer) override {
    std::size_t off = 0;
    while (off < buffer.size()) {
      const std::size_t n = std::min<std::size_t>(kSip, buffer.size() - off);
      inner_->recvAll(buffer.subspan(off, n));
      off += n;
      maybePause();
    }
  }
  std::size_t recvSome(std::span<std::uint8_t> buffer) override {
    const std::size_t n = inner_->recvSome(
        buffer.subspan(0, std::min<std::size_t>(kSip, buffer.size())));
    maybePause();
    return n;
  }
  void setDeadline(std::chrono::steady_clock::time_point d) override {
    inner_->setDeadline(d);
  }
  void shutdownSend() override { inner_->shutdownSend(); }
  void close() override { inner_->close(); }
  std::string peerName() const override { return inner_->peerName(); }

 private:
  static constexpr std::size_t kSip = 512;

  void maybePause() {
    if (++sips_ % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::unique_ptr<transport::Stream> inner_;
  std::uint64_t sips_ = 0;
};

TEST_F(HotPathRpc, SlowReaderGetsExactBytesThroughBatchedWriteQueue) {
  // 8 threads x 8 DISTINCT dmmul calls multiplexed over one channel
  // whose reader drains slowly: the server queues multiple replies per
  // connection and flushes them through coalesced, partially-accepted
  // writev rounds.  Every thread also pipelines 8 repeats of one larger
  // call, identical across threads, so cache hits (a header of their own
  // plus the cache's shared payload) queue among the owners' replies.
  // Their 8 MiB outgrow what the kernel's socket buffers absorb, so
  // rounds stop and resume inside headers and payloads alike.  Any
  // duplicated, dropped, or interleaved byte desynchronizes v2 framing
  // or corrupts a result — every call must come back correct.
  NinfClient client(std::make_unique<ThrottledStream>(connect()));
  const idl::InterfaceInfo& dmmul = client.queryInterface("dmmul");

  obs::Counter& batched = obs::counter("server.reactor.batch.frames");
  const double batched0 = batched.value();
  const auto cacheServed = [] {
    return obs::counter("server.cache.hits").value() +
           obs::counter("server.cache.inflight_merges").value();
  };
  const double served0 = cacheServed();

  constexpr std::size_t kDistinctN = 48;  // 18 KiB replies
  constexpr std::size_t kSharedN = 128;   // 128 KiB replies
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 8;
  const numlib::Matrix shared_a = numlib::randomMatrix(kSharedN, 7);
  const numlib::Matrix shared_b = numlib::randomMatrix(kSharedN, 8);
  const numlib::Matrix shared_c = numlib::dmmul(shared_a, shared_b);
  std::atomic<int> failures{0};
  const auto check = [&](std::span<const double> c,
                         const numlib::Matrix& expected) {
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (std::abs(c[i] - expected.flat()[i]) > 1e-9) {
        failures.fetch_add(1);
        return;
      }
    }
  };
  /// One pipelined call: its OUT array, arguments and reply in flight.
  struct Repeat {
    std::vector<double> c;
    std::vector<ArgValue> args;
    client::Channel::Pending pending;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Repeat> repeats(kCallsPerThread);
      for (Repeat& r : repeats) {
        r.c.assign(kSharedN * kSharedN, 0.0);
        r.args = {ArgValue::inInt(static_cast<std::int64_t>(kSharedN)),
                  ArgValue::inArray(shared_a.flat()),
                  ArgValue::inArray(shared_b.flat()), ArgValue::outArray(r.c)};
        r.pending = client.channel().start(
            protocol::MessageType::CallRequest,
            protocol::buildCallRequest(dmmul, r.args),
            [&dmmul, &r](const client::Channel::Reply&, xdr::Source& src) {
              protocol::decodeCallReply(dmmul, src, r.args);
            });
      }
      for (int k = 0; k < kCallsPerThread; ++k) {
        const int salt = t * kCallsPerThread + k;
        const numlib::Matrix a =
            numlib::randomMatrix(kDistinctN, 100 + 2 * salt);
        const numlib::Matrix b =
            numlib::randomMatrix(kDistinctN, 101 + 2 * salt);
        std::vector<double> c(kDistinctN * kDistinctN, 0.0);
        std::vector<ArgValue> args = {
            ArgValue::inInt(static_cast<std::int64_t>(kDistinctN)),
            ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
            ArgValue::outArray(c)};
        try {
          client.call("dmmul", args);
        } catch (const Error&) {
          failures.fetch_add(1);
          continue;
        }
        check(c, numlib::dmmul(a, b));
      }
      for (Repeat& r : repeats) {
        try {
          r.pending.wait();
        } catch (const Error&) {
          failures.fetch_add(1);
          continue;
        }
        check(r.c, shared_c);
      }
    });
  }
  for (auto& th : threads) th.join();
  client.close();
  server().stop();  // joins the reactor: its counters are final

  EXPECT_EQ(failures.load(), 0);
  // The write queue counts each frame once, when its last byte goes out,
  // however many short sends it took: exactly the 128 replies received.
  EXPECT_EQ(batched.value() - batched0, 2 * kThreads * kCallsPerThread);
  // One of the repeated calls owned the cache entry; every other one was
  // replayed from it.
  EXPECT_EQ(cacheServed() - served0, kThreads * kCallsPerThread - 1);
}

}  // namespace
}  // namespace ninf
