// Protocol framing over an in-process transport, incremental frame
// reassembly (FrameAssembler) with in-place body reception, and payload
// codecs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.h"
#include "protocol/message.h"
#include "protocol/meta_wire.h"
#include "stream_send.h"
#include "transport/inproc_transport.h"
#include "xdr/xdr.h"

namespace ninf::protocol {
namespace {

TEST(Message, RoundTripOverInproc) {
  auto [a, b] = transport::inprocPair();
  xdr::Encoder enc;
  enc.putString("dmmul");
  sendFrame(*a, WireMode::V1, MessageType::QueryInterface, enc.bytes());

  const Message msg = recvMessage(*b);
  EXPECT_EQ(msg.type, MessageType::QueryInterface);
  xdr::Decoder dec(msg.payload);
  EXPECT_EQ(dec.getString(), "dmmul");
}

TEST(Message, EmptyPayload) {
  auto [a, b] = transport::inprocPair();
  sendFrame(*a, WireMode::V1, MessageType::ListExecutables,
              std::span<const std::uint8_t>{});
  const Message msg = recvMessage(*b);
  EXPECT_EQ(msg.type, MessageType::ListExecutables);
  EXPECT_TRUE(msg.payload.empty());
}

// ---- every wire mode through the one sender --------------------------------

constexpr WireMode kModes[] = {WireMode::V1, WireMode::V2, WireMode::V2Traced};

const char* modeName(WireMode mode) {
  return mode == WireMode::V1   ? "V1"
         : mode == WireMode::V2 ? "V2"
                                : "V2Traced";
}

/// A call ID and trace context for the layouts whose header carries them.
constexpr std::uint64_t kCallId = 0x0102030405060708ULL;
constexpr WireTraceContext kTrace{0x1112131415161718ULL,
                                  0x2122232425262728ULL};

/// Append one frame's wire bytes to `wire` as the reactor sends a cached
/// reply: the header encoder's bytes, then the flat body.
void appendFrame(std::vector<std::uint8_t>& wire, WireMode mode,
                 MessageType type, std::uint64_t call_id,
                 std::span<const std::uint8_t> body,
                 const WireTraceContext& ctx = {}) {
  const common::PooledBuffer header =
      frameHeaderPooled(mode, type, call_id, ctx, body.size());
  EXPECT_EQ(header.size(), headerBytes(mode));
  wire.insert(wire.end(), header.span().begin(), header.span().end());
  wire.insert(wire.end(), body.begin(), body.end());
}

TEST(Message, StreamedSendMatchesContiguousWireFormat) {
  // In every mode, the streamed sender (the client's large-request path)
  // must put the bytes of flattenFramePooled (the reactor's reply path)
  // on the wire, borrowed double arrays included, and its body must be
  // byte-identical to the contiguous encoding.  The flat-body overload
  // must match frameHeaderPooled followed by the body (the reactor's
  // cached-reply path) the same way.
  std::vector<double> big(5000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<double>(i) * 0.25 - 7.0;
  }
  xdr::Encoder streamed;
  streamed.putString("payload");
  streamed.putDoubleArrayRef(big);  // borrowed
  streamed.putU32(0xCAFEF00D);

  xdr::Encoder contiguous;
  contiguous.putString("payload");
  contiguous.putDoubleArray(big);  // copied
  contiguous.putU32(0xCAFEF00D);

  for (const WireMode mode : kModes) {
    SCOPED_TRACE(modeName(mode));
    auto [a, b] = transport::inprocPair();
    const auto receivedEquals =
        [&b = b](std::span<const std::uint8_t> frame) {
          std::vector<std::uint8_t> wire(frame.size());
          b->recvAll(wire);
          return std::ranges::equal(wire, frame);
        };
    sendFrame(*a, mode, MessageType::Ping, streamed, kCallId, kTrace);
    const common::PooledBuffer flat =
        flattenFramePooled(mode, MessageType::Ping, kCallId, kTrace, streamed);
    EXPECT_TRUE(receivedEquals(flat.span()));
    EXPECT_TRUE(std::ranges::equal(flat.span().subspan(headerBytes(mode)),
                                   contiguous.bytes()));

    sendFrame(*a, mode, MessageType::Ping, contiguous.bytes(), kCallId,
              kTrace);
    std::vector<std::uint8_t> cached;
    appendFrame(cached, mode, MessageType::Ping, kCallId, contiguous.bytes(),
                kTrace);
    EXPECT_TRUE(receivedEquals(cached));
  }
}

TEST(Message, HeaderPlusBodyReaderRoundTrip) {
  std::vector<double> values(3000, 1.5);
  xdr::Encoder enc;
  enc.putU32(42);
  enc.putDoubleArrayRef(values);
  for (const WireMode mode : kModes) {
    SCOPED_TRACE(modeName(mode));
    auto [a, b] = transport::inprocPair();
    sendFrame(*a, mode, MessageType::CallRequest, enc, kCallId, kTrace);

    const FrameHeader header = recvHeader(*b, mode);
    EXPECT_EQ(header.type, MessageType::CallRequest);
    EXPECT_EQ(header.length, enc.size());
    // A field the layout does not carry reads back as zero.
    const bool v2 = mode != WireMode::V1;
    const bool traced = mode == WireMode::V2Traced;
    EXPECT_EQ(header.call_id, v2 ? kCallId : 0u);
    EXPECT_EQ(header.trace.trace_id, traced ? kTrace.trace_id : 0u);
    EXPECT_EQ(header.trace.parent_span, traced ? kTrace.parent_span : 0u);
    BodyReader body(*b, header.length);
    EXPECT_EQ(body.getU32(), 42u);
    std::vector<double> out(values.size());
    body.getDoubleArrayInto(out);
    EXPECT_TRUE(body.atEnd());
    EXPECT_EQ(out, values);
  }
}

TEST(Message, BodyReaderDrainKeepsFramingAligned) {
  auto [a, b] = transport::inprocPair();
  std::vector<double> values(2000, 3.25);
  xdr::Encoder enc;
  enc.putDoubleArrayRef(values);
  sendFrame(*a, WireMode::V1, MessageType::CallRequest, enc);
  xdr::Encoder follow;
  follow.putU32(7);
  sendFrame(*a, WireMode::V1, MessageType::Ping, follow.bytes());

  FrameHeader header = recvHeader(*b, WireMode::V1);
  BodyReader body(*b, header.length);
  body.drain();  // skip the whole call body
  const Message next = recvMessage(*b);
  EXPECT_EQ(next.type, MessageType::Ping);
  xdr::Decoder dec(next.payload);
  EXPECT_EQ(dec.getU32(), 7u);
}

TEST(Message, BodyReaderUnderflowThrowsProtocolError) {
  auto [a, b] = transport::inprocPair();
  xdr::Encoder enc;
  enc.putU32(1);
  sendFrame(*a, WireMode::V1, MessageType::CallRequest, enc.bytes());
  FrameHeader header = recvHeader(*b, WireMode::V1);
  BodyReader body(*b, header.length);
  EXPECT_EQ(body.getU32(), 1u);
  EXPECT_THROW(body.getU32(), ProtocolError);  // past the declared body
}

TEST(Message, SequencedMessagesArriveInOrder) {
  auto [a, b] = transport::inprocPair();
  for (std::uint32_t i = 0; i < 10; ++i) {
    xdr::Encoder enc;
    enc.putU32(i);
    sendFrame(*a, WireMode::V1, MessageType::Ping, enc.bytes());
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    const Message msg = recvMessage(*b);
    xdr::Decoder dec(msg.payload);
    EXPECT_EQ(dec.getU32(), i);
  }
}

TEST(Message, BadMagicRejected) {
  auto [a, b] = transport::inprocPair();
  const std::uint8_t junk[16] = {1, 2, 3, 4};
  sendBytes(*a, junk);
  EXPECT_THROW(recvMessage(*b), ProtocolError);
}

TEST(Message, BadVersionRejected) {
  auto [a, b] = transport::inprocPair();
  xdr::Encoder header;
  header.putU32(kMagic);
  header.putU32(kVersion + 1);
  header.putU32(static_cast<std::uint32_t>(MessageType::Ping));
  header.putU32(0);
  sendBytes(*a, header.bytes());
  EXPECT_THROW(recvMessage(*b), ProtocolError);
}

TEST(Message, UnknownTypeRejected) {
  auto [a, b] = transport::inprocPair();
  xdr::Encoder header;
  header.putU32(kMagic);
  header.putU32(kVersion);
  header.putU32(9999);
  header.putU32(0);
  sendBytes(*a, header.bytes());
  EXPECT_THROW(recvMessage(*b), ProtocolError);
}

TEST(Message, OversizedLengthRejected) {
  auto [a, b] = transport::inprocPair();
  xdr::Encoder header;
  header.putU32(kMagic);
  header.putU32(kVersion);
  header.putU32(static_cast<std::uint32_t>(MessageType::Ping));
  header.putU32(kMaxPayload + 1);
  sendBytes(*a, header.bytes());
  EXPECT_THROW(recvMessage(*b), ProtocolError);
}

TEST(Message, PeerCloseSurfacesAsTransportError) {
  auto [a, b] = transport::inprocPair();
  a->close();
  EXPECT_THROW(recvMessage(*b), TransportError);
}

// ---- FrameAssembler: in-place body reception ------------------------------

std::vector<std::uint8_t> patternBytes(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9) ^ salt);
  }
  return out;
}

struct Pumped {
  std::vector<Frame> frames;
  std::size_t max_capacity = 0;
};

/// Deliver `wire` in reads of `chunk` bytes, popping frames after each
/// read as the reactor does.  With `in_place`, a read that fits inside
/// the body still missing is written straight into bodySpace() and
/// committed (what recv does there); otherwise it is fed.
Pumped pump(FrameAssembler& assembler, std::span<const std::uint8_t> wire,
            std::size_t chunk, bool in_place) {
  Pumped out;
  for (std::size_t off = 0; off < wire.size();) {
    const std::span<std::uint8_t> space = assembler.bodySpace();
    if (in_place && space.size() > chunk) {
      const std::size_t n = std::min(chunk, wire.size() - off);
      std::copy_n(wire.begin() + static_cast<std::ptrdiff_t>(off), n,
                  space.begin());
      assembler.commitBody(n);
      off += n;
    } else {
      const std::size_t n = std::min(chunk, wire.size() - off);
      assembler.feed(wire.subspan(off, n));
      off += n;
    }
    while (auto frame = assembler.next()) {
      out.frames.push_back(std::move(*frame));
    }
    out.max_capacity =
        std::max(out.max_capacity, assembler.reassemblyCapacity());
  }
  return out;
}

bool bodyIs(const Frame& frame, std::span<const std::uint8_t> want) {
  return std::equal(frame.body.span().begin(), frame.body.span().end(),
                    want.begin(), want.end());
}

TEST(FrameAssembler, MiBBodyArrivesWholeAtEveryReadSize) {
  const auto big = patternBytes(1u << 20, 1);
  const auto small = patternBytes(300, 2);
  std::vector<std::uint8_t> wire;
  appendFrame(wire, WireMode::V2, MessageType::CallRequest, 1, big);
  appendFrame(wire, WireMode::V2, MessageType::Ping, 2, small);
  for (const std::size_t chunk : {1, 7, 4096, 65536}) {
    for (const bool in_place : {false, true}) {
      FrameAssembler assembler("test");
      assembler.setMode(WireMode::V2);
      const Pumped got = pump(assembler, wire, chunk, in_place);
      ASSERT_EQ(got.frames.size(), 2u) << chunk << " " << in_place;
      EXPECT_EQ(got.frames[0].header.call_id, 1u);
      EXPECT_TRUE(bodyIs(got.frames[0], big)) << chunk << " " << in_place;
      EXPECT_EQ(got.frames[1].header.call_id, 2u);
      EXPECT_TRUE(bodyIs(got.frames[1], small)) << chunk << " " << in_place;
      EXPECT_EQ(assembler.buffered(), 0u);
      EXPECT_FALSE(assembler.midFrame());
    }
  }
}

TEST(FrameAssembler, ReassemblyBufferStaysUnderOneReadWhileAMiBBodyArrives) {
  // A small frame first puts the reads out of phase with the frames, as
  // on a busy connection.  The 1 MiB body must never pass through the
  // reassembly vector: it holds at most one 64 KiB read plus a header.
  const auto big = patternBytes(1u << 20, 3);
  std::vector<std::uint8_t> wire;
  appendFrame(wire, WireMode::V2, MessageType::Ping, 1, patternBytes(1000, 4));
  appendFrame(wire, WireMode::V2, MessageType::CallRequest, 2, big);
  appendFrame(wire, WireMode::V2, MessageType::Ping, 3, patternBytes(10, 5));
  constexpr std::size_t kRead = 64 * 1024;
  for (const bool in_place : {false, true}) {
    FrameAssembler assembler("test");
    assembler.setMode(WireMode::V2);
    const Pumped got = pump(assembler, wire, kRead, in_place);
    ASSERT_EQ(got.frames.size(), 3u);
    EXPECT_TRUE(bodyIs(got.frames[1], big));
    EXPECT_LE(got.max_capacity, kRead + kHeaderBytesV2) << in_place;
  }
}

TEST(FrameAssembler, OneReadEndsABodyAndStartsTheNextFrame) {
  const auto a = patternBytes(200000, 6);
  const auto b = patternBytes(3000, 7);
  const auto c = patternBytes(100, 8);
  std::vector<std::uint8_t> wire;
  appendFrame(wire, WireMode::V1, MessageType::CallRequest, 0, a);
  const std::size_t b_start = wire.size();
  appendFrame(wire, WireMode::V1, MessageType::CallRequest, 0, b);
  appendFrame(wire, WireMode::V1, MessageType::Ping, 0, c);

  FrameAssembler assembler("test");
  const std::span<const std::uint8_t> all(wire);
  // Read 1: a's header and a little of its body.
  assembler.feed(all.first(kHeaderBytes + 1000));
  EXPECT_FALSE(assembler.next().has_value());
  EXPECT_EQ(assembler.bodySpace().size(), a.size() - 1000);
  // Read 2: the rest of a, b's header and half of b's body.
  const std::size_t cut = b_start + kHeaderBytes + b.size() / 2;
  assembler.feed(all.subspan(kHeaderBytes + 1000, cut - kHeaderBytes - 1000));
  auto first = assembler.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(bodyIs(*first, a));
  EXPECT_FALSE(assembler.next().has_value());
  EXPECT_TRUE(assembler.midFrame());
  EXPECT_EQ(assembler.buffered(), b.size() / 2);
  EXPECT_EQ(assembler.bodySpace().size(), b.size() - b.size() / 2);
  // Read 3: everything else.
  assembler.feed(all.subspan(cut));
  auto second = assembler.next();
  auto third = assembler.next();
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(third.has_value());
  EXPECT_TRUE(bodyIs(*second, b));
  EXPECT_EQ(third->header.type, MessageType::Ping);
  EXPECT_TRUE(bodyIs(*third, c));
  EXPECT_FALSE(assembler.next().has_value());
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(FrameAssembler, ZeroLengthBodiesPopWithoutBodyBytes) {
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    appendFrame(wire, WireMode::V2, MessageType::ListExecutables, id, {});
  }
  appendFrame(wire, WireMode::V2, MessageType::Ping, 4, patternBytes(5, 9));
  appendFrame(wire, WireMode::V2, MessageType::ServerStatus, 5, {});
  for (const std::size_t chunk : {std::size_t{1}, wire.size()}) {
    FrameAssembler assembler("test");
    assembler.setMode(WireMode::V2);
    const Pumped got = pump(assembler, wire, chunk, /*in_place=*/true);
    ASSERT_EQ(got.frames.size(), 5u) << chunk;
    for (std::size_t i = 0; i < got.frames.size(); ++i) {
      EXPECT_EQ(got.frames[i].header.call_id, i + 1);
      EXPECT_EQ(got.frames[i].body.size(), i == 3 ? 5u : 0u);
    }
    EXPECT_TRUE(assembler.bodySpace().empty());
  }
}

TEST(FrameAssembler, SwitchesToV2AfterHelloWithTheNextFramesBuffered) {
  // One read carries the v1 Hello and the first v2 frames behind it,
  // including a large body: none of them may be parsed as v1.
  const auto big = patternBytes(300000, 10);
  std::vector<std::uint8_t> wire;
  xdr::Encoder hello;
  Hello{kVersion2, std::nullopt}.encode(hello);
  appendFrame(wire, WireMode::V1, MessageType::Hello, 0, hello.bytes());
  appendFrame(wire, WireMode::V2, MessageType::CallRequest, 41, big);
  appendFrame(wire, WireMode::V2, MessageType::Ping, 42, patternBytes(8, 11));

  FrameAssembler assembler("test");
  assembler.feed(std::span<const std::uint8_t>(wire).first(100000));
  auto first = assembler.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.type, MessageType::Hello);
  assembler.setMode(WireMode::V2);
  EXPECT_FALSE(assembler.next().has_value());
  assembler.feed(std::span<const std::uint8_t>(wire).subspan(100000));
  auto call = assembler.next();
  auto ping = assembler.next();
  ASSERT_TRUE(call.has_value());
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(call->header.call_id, 41u);
  EXPECT_TRUE(bodyIs(*call, big));
  EXPECT_EQ(ping->header.call_id, 42u);
}

TEST(FrameAssembler, CommitOutsideTheMissingBodyIsRejected) {
  FrameAssembler assembler("test");
  EXPECT_THROW(assembler.commitBody(1), std::logic_error);  // no header
  std::vector<std::uint8_t> wire;
  appendFrame(wire, WireMode::V1, MessageType::Ping, 0, patternBytes(10, 12));
  assembler.feed(std::span<const std::uint8_t>(wire).first(kHeaderBytes));
  EXPECT_FALSE(assembler.next().has_value());
  ASSERT_EQ(assembler.bodySpace().size(), 10u);
  EXPECT_THROW(assembler.commitBody(11), std::logic_error);
  EXPECT_NO_THROW(assembler.commitBody(10));
  EXPECT_TRUE(assembler.next().has_value());
}

/// A v1 header declaring a `length`-byte CallRequest body.
std::vector<std::uint8_t> declareBody(std::uint32_t length) {
  xdr::Encoder header;
  header.putU32(kMagic);
  header.putU32(kVersion);
  header.putU32(static_cast<std::uint32_t>(MessageType::CallRequest));
  header.putU32(length);
  return header.bytes();
}

TEST(FrameAssembler, BodiesPastTheInPlaceBudgetGatherAsTheyArrive) {
  const std::size_t base = FrameAssembler::inPlaceClaimedBytes();
  const std::size_t room = kInPlaceBodyBudget - base;
  ASSERT_GT(room, std::size_t{1} << 20);

  // A stalled peer's declaration takes all but 100 KiB of the budget.
  auto stalled = std::make_unique<FrameAssembler>("stalled");
  const auto hog = static_cast<std::uint32_t>(room - 100 * 1024);
  stalled->feed(declareBody(hog));
  EXPECT_FALSE(stalled->next().has_value());
  EXPECT_EQ(stalled->bodySpace().size(), hog);
  EXPECT_EQ(FrameAssembler::inPlaceClaimedBytes(), base + hog);

  // A 200 KiB body no longer fits: nothing is held for it up front, its
  // bytes gather as they arrive, and it still pops whole.
  const auto body = patternBytes(200 * 1024, 13);
  std::vector<std::uint8_t> wire;
  appendFrame(wire, WireMode::V1, MessageType::CallRequest, 0, body);
  FrameAssembler late("late");
  const std::span<const std::uint8_t> all(wire);
  late.feed(all.first(kHeaderBytes + 4096));
  EXPECT_FALSE(late.next().has_value());
  EXPECT_TRUE(late.bodySpace().empty());
  EXPECT_EQ(late.buffered(), 4096u);
  EXPECT_LT(late.reassemblyCapacity(), std::size_t{64} << 10);
  EXPECT_EQ(FrameAssembler::inPlaceClaimedBytes(), base + hog);
  const Pumped rest = pump(late, all.subspan(kHeaderBytes + 4096), 4096,
                           /*in_place=*/true);
  ASSERT_EQ(rest.frames.size(), 1u);
  EXPECT_TRUE(bodyIs(rest.frames[0], body));

  // A declaration past the whole budget is never held in place either.
  FrameAssembler huge("huge");
  huge.feed(declareBody(kMaxPayload));
  EXPECT_FALSE(huge.next().has_value());
  EXPECT_TRUE(huge.bodySpace().empty());

  // Dropping the stalled peer returns its claim; the next large body
  // is received in place again, and its claim ends when it pops.
  stalled.reset();
  EXPECT_EQ(FrameAssembler::inPlaceClaimedBytes(), base);
  FrameAssembler again("again");
  const Pumped got = pump(again, wire, 4096, /*in_place=*/true);
  ASSERT_EQ(got.frames.size(), 1u);
  EXPECT_TRUE(bodyIs(got.frames[0], body));
  EXPECT_EQ(FrameAssembler::inPlaceClaimedBytes(), base);
  again.feed(all.first(kHeaderBytes));
  EXPECT_FALSE(again.next().has_value());
  EXPECT_EQ(again.bodySpace().size(), body.size());
  EXPECT_EQ(FrameAssembler::inPlaceClaimedBytes(), base + body.size());
}

TEST(ServerStatusInfo, RoundTrip) {
  ServerStatusInfo info;
  info.running = 3;
  info.queued = 5;
  info.completed = 123456789;
  info.load_average = 2.75;
  const ServerStatusInfo decoded = ServerStatusInfo::fromBytes(info.toBytes());
  EXPECT_EQ(decoded.running, 3u);
  EXPECT_EQ(decoded.queued, 5u);
  EXPECT_EQ(decoded.completed, 123456789u);
  EXPECT_DOUBLE_EQ(decoded.load_average, 2.75);
}

TEST(RegisterResult, StatusesZeroToTwoRoundTripAndThreeIsRejected) {
  for (const auto status :
       {RegisterResult::Status::Applied, RegisterResult::Status::Duplicate,
        RegisterResult::Status::Fenced}) {
    RegisterResult result;
    result.status = status;
    result.seq = 7;
    result.shard_epoch = 2;
    xdr::Encoder enc;
    result.encode(enc);
    xdr::Decoder dec(enc.bytes());
    const RegisterResult decoded = RegisterResult::decode(dec);
    EXPECT_EQ(decoded.status, status);
    EXPECT_EQ(decoded.seq, 7u);
    EXPECT_EQ(decoded.shard_epoch, 2u);
  }
  // Statuses past 2 are undefined: a misrouted op draws a WrongShard
  // frame, never a RegisterAck.
  xdr::Encoder enc;
  enc.putU32(3);
  enc.putU64(7);
  enc.putU64(2);
  xdr::Decoder dec(enc.bytes());
  EXPECT_THROW(RegisterResult::decode(dec), ProtocolError);
}

}  // namespace
}  // namespace ninf::protocol
