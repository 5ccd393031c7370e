// Marshal-path microbenchmark: legacy contiguous encode-then-send versus
// the streaming scatter-gather pipeline, measured end to end over an
// in-process socketpair (encode + frame + transfer + decode into
// server-side argument storage).  The transfer itself is the same kernel
// copy either way, so the deltas isolate the marshal layer: the extra
// full-payload copies and allocations of the legacy path against the
// chunked byteswap of the streamed path.
//
//   bench_micro_marshal [--warmup N] [--repeat N] [--sizes n1,n2,...]
//                       [--faulty]
//
// Sizes are dmmul matrix orders; the CallRequest body carries two n*n
// double arrays (n=512 -> 4 MiB of array payload, n=1024 -> 16 MiB).
// Reports min and median MB/s per path and the streamed/legacy speedup.
//
// --faulty wraps both pipe ends in the fault-injection decorator with a
// no-fault plan: comparing a --faulty run against a plain one verifies
// that a disabled FaultPlan costs nothing (within run-to-run noise).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "idl/parser.h"
#include "protocol/call_marshal.h"
#include "protocol/message.h"
#include "transport/fault_injection.h"
#include "transport/inproc_transport.h"
#include "xdr/xdr.h"

namespace {

using namespace ninf;
using protocol::ArgValue;
using protocol::MessageType;

const idl::InterfaceInfo& dmmulInfo() {
  static const idl::InterfaceInfo info = idl::parseSingle(R"(
    Define dmmul(mode_in long n,
                 mode_in double A[n][n],
                 mode_in double B[n][n],
                 mode_out double C[n][n])
    Calls "C" mmul(n, A, B, C);)");
  return info;
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed request: encode + send + server-side decode, bounded by a
/// one-byte ack from the consumer thread so the clock covers the whole
/// marshal round.
struct Harness {
  std::unique_ptr<transport::Stream> client;
  std::unique_ptr<transport::Stream> server;
  std::thread consumer;

  explicit Harness(bool streamed, bool faulty) {
    auto [a, b] = transport::inprocPair();
    client = std::move(a);
    server = std::move(b);
    if (faulty) {
      // Enabled decorator, empty fault plan: the overhead being measured
      // is one virtual hop plus an enabled() check per operation.
      auto plan = std::make_shared<transport::FaultPlan>();
      client = transport::wrapFaulty(std::move(client), plan);
      server = transport::wrapFaulty(std::move(server), plan);
    }
    consumer = std::thread([this, streamed] {
      try {
        for (;;) {
          const protocol::FrameHeader header =
              protocol::recvHeader(*server, protocol::WireMode::V1);
          protocol::ServerCallData data;
          if (streamed) {
            protocol::BodyReader body(*server, header.length);
            body.getString();  // entry name
            data = protocol::decodeCallArgs(dmmulInfo(), body);
          } else {
            std::vector<std::uint8_t> payload(header.length);
            server->recvAll(payload);
            xdr::Decoder dec(payload);
            dec.getString();
            data = protocol::decodeCallArgs(dmmulInfo(), dec);
          }
          const std::uint8_t ack = static_cast<std::uint8_t>(
              data.arrays[1].empty() ? 0 : 1);  // defeat dead-code elim
          const std::span<const std::uint8_t> ack_buf[1] = {{&ack, 1}};
          server->sendv(ack_buf);
        }
      } catch (const Error&) {
        // Client closed the pipe: benchmark over.
      }
    });
  }

  ~Harness() {
    client->close();
    consumer.join();
  }
};

double oneRound(Harness& h, bool streamed,
                std::span<const ArgValue> args) {
  const double t0 = nowSeconds();
  if (streamed) {
    const xdr::Encoder body = protocol::buildCallRequest(dmmulInfo(), args);
    protocol::sendFrame(*h.client, protocol::WireMode::V1,
                        MessageType::CallRequest, body);
  } else {
    const std::vector<std::uint8_t> payload =
        protocol::encodeCallRequest(dmmulInfo(), args);
    protocol::sendFrame(*h.client, protocol::WireMode::V1,
                        MessageType::CallRequest,
                        std::span<const std::uint8_t>(payload));
  }
  std::uint8_t ack;
  h.client->recvAll({&ack, 1});
  return nowSeconds() - t0;
}

struct Stats {
  double min_mbps = 0.0;
  double median_mbps = 0.0;
};

Stats runPath(bool streamed, bool faulty, std::size_t n, int warmup,
              int repeat) {
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<double>(i % 1000) * 0.5;
    b[i] = static_cast<double>(i % 997) * -0.25;
  }
  const std::vector<ArgValue> args = {
      ArgValue::inInt(static_cast<std::int64_t>(n)), ArgValue::inArray(a),
      ArgValue::inArray(b), ArgValue::outArray(c)};
  const double body_mb =
      static_cast<double>(2 * n * n * sizeof(double)) / 1e6;

  Harness h(streamed, faulty);
  for (int i = 0; i < warmup; ++i) oneRound(h, streamed, args);
  Stats s;
  std::vector<double> mbps;
  mbps.reserve(static_cast<std::size_t>(repeat));
  for (int i = 0; i < repeat; ++i) {
    mbps.push_back(body_mb / oneRound(h, streamed, args));
  }
  std::sort(mbps.begin(), mbps.end());
  s.min_mbps = mbps.front();
  s.median_mbps = mbps[mbps.size() / 2];
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  int warmup = 2;
  int repeat = 9;
  bool faulty = false;
  std::vector<std::size_t> sizes = {256, 512, 1024};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--warmup") {
      warmup = std::atoi(need("--warmup"));
    } else if (arg == "--repeat") {
      repeat = std::atoi(need("--repeat"));
    } else if (arg == "--sizes") {
      sizes.clear();
      std::string list = need("--sizes");
      for (char* tok = std::strtok(list.data(), ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        sizes.push_back(static_cast<std::size_t>(std::atoll(tok)));
      }
    } else if (arg == "--faulty") {
      faulty = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--warmup N] [--repeat N] [--sizes n1,n2,...]"
                   " [--faulty]\n",
                   argv[0]);
      return 2;
    }
  }
  if (repeat < 1 || sizes.empty()) {
    std::fprintf(stderr, "need --repeat >= 1 and at least one size\n");
    return 2;
  }

  std::printf("# marshal path benchmark: warmup=%d repeat=%d faulty=%d\n",
              warmup, repeat, faulty ? 1 : 0);
  std::printf("%8s %12s %14s %14s %14s %14s %9s\n", "n", "body_MB",
              "legacy_min", "legacy_med", "stream_min", "stream_med",
              "speedup");
  for (const std::size_t n : sizes) {
    const Stats legacy = runPath(/*streamed=*/false, faulty, n, warmup,
                                 repeat);
    const Stats streamed = runPath(/*streamed=*/true, faulty, n, warmup,
                                   repeat);
    const double body_mb =
        static_cast<double>(2 * n * n * sizeof(double)) / 1e6;
    std::printf("%8zu %12.2f %11.0f MB/s %11.0f MB/s %11.0f MB/s %11.0f MB/s %8.2fx\n",
                n, body_mb, legacy.min_mbps, legacy.median_mbps,
                streamed.min_mbps, streamed.median_mbps,
                streamed.median_mbps / legacy.median_mbps);
  }
  return 0;
}
