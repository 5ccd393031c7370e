// Adversarial wire inputs: truncated, over-padded, length-lying, and
// randomly mutated CallRequest/CallReply bodies must surface as typed
// errors (ProtocolError / RemoteError), never out-of-bounds access or
// unbounded allocation.  Run under the NINF_SANITIZE=address preset this
// doubles as a memory-safety fuzz pass over both decode front ends: the
// contiguous xdr::Decoder and the streamed protocol::BodyReader.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.h"
#include "idl/parser.h"
#include "protocol/call_marshal.h"
#include "protocol/message.h"
#include "stream_send.h"
#include "transport/inproc_transport.h"
#include "xdr/xdr.h"

namespace ninf::protocol {
namespace {

const idl::InterfaceInfo& dmmulInfo() {
  static const idl::InterfaceInfo info = idl::parseSingle(R"(
    Define dmmul(mode_in long n,
                 mode_in double A[n][n],
                 mode_in double B[n][n],
                 mode_out double C[n][n])
    Calls "C" mmul(n, A, B, C);)");
  return info;
}

/// Deterministic 64-bit PRNG (splitmix64) so failures reproduce exactly.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

std::vector<std::uint8_t> validRequest(std::size_t n,
                                       std::vector<double>& a,
                                       std::vector<double>& b,
                                       std::vector<double>& c) {
  a.assign(n * n, 1.25);
  b.assign(n * n, -2.5);
  c.assign(n * n, 0.0);
  const std::vector<ArgValue> args = {
      ArgValue::inInt(static_cast<std::int64_t>(n)), ArgValue::inArray(a),
      ArgValue::inArray(b), ArgValue::outArray(c)};
  return encodeCallRequest(dmmulInfo(), args);
}

/// Decode a CallRequest body from a contiguous buffer the way the server
/// does (entry name, then arguments); must throw a ninf::Error on any
/// malformed input and never crash.
void decodeRequest(std::span<const std::uint8_t> payload) {
  xdr::Decoder dec(payload);
  if (dec.getString() != "dmmul") throw ProtocolError("wrong entry");
  decodeCallArgs(dmmulInfo(), dec);
}

/// Same decode driven through the streamed BodyReader over an inproc
/// pipe, with the frame length set to the (possibly lying) body size.
void decodeRequestStreamed(std::span<const std::uint8_t> payload,
                           std::size_t declared_length) {
  auto [a, b] = transport::inprocPair();
  std::thread sender([&, stream = a.get()] {
    try {
      sendBytes(*stream, payload);
      stream->shutdownSend();
    } catch (const Error&) {
      // Receiver bailed early; fine.
    }
  });
  try {
    BodyReader body(*b, declared_length);
    xdr::Source& src = body;
    if (src.getString() != "dmmul") throw ProtocolError("wrong entry");
    decodeCallArgs(dmmulInfo(), src);
    if (!body.atEnd()) throw ProtocolError("trailing bytes");
  } catch (...) {
    b->close();
    sender.join();
    throw;
  }
  b->close();
  sender.join();
}

TEST(WireFuzz, EveryTruncationOfRequestThrowsTyped) {
  std::vector<double> a, b, c;
  const auto payload = validRequest(4, a, b, c);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(decodeRequest(std::span(payload).first(len)), ProtocolError)
        << "prefix length " << len;
  }
}

TEST(WireFuzz, TruncatedStreamedBodyThrowsTyped) {
  std::vector<double> a, b, c;
  const auto payload = validRequest(6, a, b, c);
  // Sample prefix lengths (full scan over inproc threads would be slow).
  for (std::size_t len = 0; len < payload.size(); len += 41) {
    EXPECT_THROW(
        decodeRequestStreamed(std::span(payload).first(len), len),
        ProtocolError)
        << "declared/streamed length " << len;
  }
}

TEST(WireFuzz, OverPaddedRequestRejectedBothPaths) {
  std::vector<double> a, b, c;
  auto payload = validRequest(4, a, b, c);
  for (int i = 0; i < 8; ++i) payload.push_back(0);
  EXPECT_THROW(decodeRequest(payload), ProtocolError);
  EXPECT_THROW(decodeRequestStreamed(payload, payload.size()), ProtocolError);
}

TEST(WireFuzz, LengthLyingArrayCountRejectedBeforeAllocation) {
  // An array header claiming ~8 GB of doubles backed by 16 bytes must be
  // rejected by the remaining-bytes guard, not attempted as an allocation.
  xdr::Encoder enc;
  enc.putString("dmmul");
  enc.putI64(4);
  enc.putU32(0x3FFFFFFFu);  // count field of A, lying
  enc.putU64(0);            // a few bytes of "payload"
  enc.putU64(0);
  const auto payload = enc.take();
  EXPECT_THROW(decodeRequest(payload), ProtocolError);
  EXPECT_THROW(decodeRequestStreamed(payload, payload.size()), ProtocolError);
}

TEST(WireFuzz, LengthLyingStringRejectedBeforeAllocation) {
  xdr::Encoder enc;
  enc.putU32(0x7FFFFFF0u);  // string length far past the buffer
  enc.putU64(0);
  const auto payload = enc.take();
  xdr::Decoder dec(payload);
  EXPECT_THROW(dec.getString(), ProtocolError);
  EXPECT_THROW(decodeRequestStreamed(payload, payload.size()), ProtocolError);
}

TEST(WireFuzz, DeclaredFrameLongerThanContentUnderflows) {
  // Header length says 64 KiB more than the peer ever sends: the reader
  // must fail cleanly when the pipe drains (no hang once the sender
  // shuts down its side, no fabricated bytes).
  std::vector<double> a, b, c;
  const auto payload = validRequest(4, a, b, c);
  EXPECT_THROW(decodeRequestStreamed(payload, payload.size() + 65536), Error);
}

TEST(WireFuzz, MutatedRequestsNeverEscapeTypedErrors) {
  std::vector<double> a, b, c;
  const auto pristine = validRequest(8, a, b, c);
  Rng rng(0x5EED0001);
  int decoded_ok = 0;
  for (int iter = 0; iter < 300; ++iter) {
    auto payload = pristine;
    // 1-4 random byte mutations.
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
      payload[rng.below(payload.size())] =
          static_cast<std::uint8_t>(rng.next());
    }
    try {
      decodeRequest(payload);
      ++decoded_ok;  // mutation hit a don't-care byte (array payload)
    } catch (const Error&) {
      // Typed failure: the property holds.
    }
  }
  // Most mutations land in the 1.5 KB of array payload and still decode;
  // the point of the loop is that nothing escapes the Error hierarchy.
  EXPECT_GT(decoded_ok, 0);
}

TEST(WireFuzz, MutatedStreamedRequestsNeverEscapeTypedErrors) {
  std::vector<double> a, b, c;
  const auto pristine = validRequest(6, a, b, c);
  Rng rng(0x5EED0002);
  for (int iter = 0; iter < 60; ++iter) {
    auto payload = pristine;
    const std::size_t pos = rng.below(payload.size());
    payload[pos] = static_cast<std::uint8_t>(rng.next());
    // Also lie about the frame length within +/- 8 bytes occasionally.
    std::size_t declared = payload.size();
    if (iter % 3 == 0) {
      declared = declared - 8 + rng.below(16);
    }
    try {
      decodeRequestStreamed(std::span(payload).first(
                                std::min(declared, payload.size())),
                            declared);
    } catch (const Error&) {
    }
  }
}

TEST(WireFuzz, MutatedRepliesNeverEscapeTypedErrors) {
  // Build a valid CallReply, then mutate: the client decode must either
  // succeed, report RemoteError (status flipped), or ProtocolError.
  std::vector<double> a, b, c;
  const auto request = validRequest(8, a, b, c);
  xdr::Decoder dec(request);
  dec.getString();
  ServerCallData data = decodeCallArgs(dmmulInfo(), dec);
  for (auto& v : data.arrays[3]) v = 3.75;
  const auto pristine = encodeCallReply(dmmulInfo(), data, {});

  const std::vector<ArgValue> args = {
      ArgValue::inInt(8), ArgValue::inArray(a), ArgValue::inArray(b),
      ArgValue::outArray(c)};
  Rng rng(0x5EED0003);
  for (int iter = 0; iter < 300; ++iter) {
    auto payload = pristine;
    payload[rng.below(payload.size())] =
        static_cast<std::uint8_t>(rng.next());
    try {
      decodeCallReply(dmmulInfo(), payload, args);
    } catch (const Error&) {
      // RemoteError or ProtocolError — both are in-contract.
    }
  }
}

TEST(WireFuzz, TruncatedRepliesThrowTyped) {
  std::vector<double> a, b, c;
  const auto request = validRequest(4, a, b, c);
  xdr::Decoder dec(request);
  dec.getString();
  ServerCallData data = decodeCallArgs(dmmulInfo(), dec);
  const auto reply = encodeCallReply(dmmulInfo(), data, {});
  const std::vector<ArgValue> args = {
      ArgValue::inInt(4), ArgValue::inArray(a), ArgValue::inArray(b),
      ArgValue::outArray(c)};
  for (std::size_t len = 0; len < reply.size(); ++len) {
    EXPECT_THROW(decodeCallReply(dmmulInfo(), std::span(reply).first(len),
                                 args),
                 ProtocolError)
        << "prefix length " << len;
  }
}

}  // namespace
}  // namespace ninf::protocol
