#include "protocol/message.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>

#include "common/error.h"
#include "obs/metrics.h"
#include "xdr/xdr.h"

namespace ninf::protocol {

namespace {

void putWordBe(std::uint32_t word, std::uint8_t* out) {
  out[0] = static_cast<std::uint8_t>(word >> 24);
  out[1] = static_cast<std::uint8_t>(word >> 16);
  out[2] = static_cast<std::uint8_t>(word >> 8);
  out[3] = static_cast<std::uint8_t>(word);
}

/// Encode `mode`'s header layout into `out`; returns its length.  The
/// v1 words (magic, version, type, length) lead every layout; v2 appends
/// the call ID and traced v2 the trace context, each 64-bit value high
/// word first.
std::size_t encodeHeader(WireMode mode, MessageType type, std::size_t length,
                         std::uint64_t call_id, const WireTraceContext& ctx,
                         std::uint8_t out[kHeaderBytesV2Traced]) {
  putWordBe(kMagic, out);
  putWordBe(mode == WireMode::V1 ? kVersion : kVersion2, out + 4);
  putWordBe(static_cast<std::uint32_t>(type), out + 8);
  putWordBe(static_cast<std::uint32_t>(length), out + 12);
  if (mode != WireMode::V1) {
    putWordBe(static_cast<std::uint32_t>(call_id >> 32), out + 16);
    putWordBe(static_cast<std::uint32_t>(call_id), out + 20);
  }
  if (mode == WireMode::V2Traced) {
    putWordBe(static_cast<std::uint32_t>(ctx.trace_id >> 32), out + 24);
    putWordBe(static_cast<std::uint32_t>(ctx.trace_id), out + 28);
    putWordBe(static_cast<std::uint32_t>(ctx.parent_span >> 32), out + 32);
    putWordBe(static_cast<std::uint32_t>(ctx.parent_span), out + 36);
  }
  return headerBytes(mode);
}

/// Sink gathering spans for one vectored send.  Spans stay valid until
/// flush() per the xdr::Sink contract, so the frame header, the encoder's
/// owned section, and the current byteswap scratch chunk leave in a
/// single sendv (writev on TCP).  The segment array is inline — a frame
/// emits a handful of spans per flush boundary — so assembling one send
/// costs no heap traffic; in the (never seen in practice) case of more
/// spans than slots, the sink flushes early, which just splits the
/// sequential byte stream across two sendv calls.
class StreamSink : public xdr::Sink {
 public:
  explicit StreamSink(transport::Stream& stream) : stream_(stream) {}

  void write(std::span<const std::uint8_t> bytes) override {
    if (bytes.empty()) return;
    if (count_ == kInlineIov) flush();
    iov_[count_++] = bytes;
  }

  void flush() override {
    if (count_ == 0) return;
    stream_.sendv({iov_.data(), count_});
    count_ = 0;
  }

 private:
  static constexpr std::size_t kInlineIov = 16;

  transport::Stream& stream_;
  std::array<std::span<const std::uint8_t>, kInlineIov> iov_;
  std::size_t count_ = 0;
};

/// Sink appending into a pool slab (flattenFramePooled).  Copies
/// immediately, so the no-dangling-until-flush contract is trivially
/// met.
class BufferSink : public xdr::Sink {
 public:
  explicit BufferSink(common::PooledBuffer& out) : out_(out) {}

  void write(std::span<const std::uint8_t> bytes) override {
    out_.append(bytes);
  }

  void flush() override {}

 private:
  common::PooledBuffer& out_;
};

}  // namespace

void noteWireBuffer(std::size_t bytes) {
  static obs::Gauge& peak = obs::gauge("wire.peak_buffer_bytes");
  const double v = static_cast<double>(bytes);
  if (v > peak.value()) peak.set(v);
}

void sendFrame(transport::Stream& stream, WireMode mode, MessageType type,
               const xdr::Encoder& body, std::uint64_t call_id,
               const WireTraceContext& ctx) {
  NINF_REQUIRE(body.size() <= kMaxPayload, "payload too large");
  // Peak contiguous memory on this path: the encoder's owned (scalar)
  // section plus one byteswap scratch chunk — independent of array size.
  noteWireBuffer(body.ownedSize() +
                 (body.hasBorrowed() ? xdr::Encoder::kScratchBytes : 0));
  std::uint8_t header[kHeaderBytesV2Traced];
  StreamSink sink(stream);
  sink.write(
      {header, encodeHeader(mode, type, body.size(), call_id, ctx, header)});
  body.emitTo(sink);  // flushes after each scratch chunk and at the end
}

void sendFrame(transport::Stream& stream, WireMode mode, MessageType type,
               std::span<const std::uint8_t> body, std::uint64_t call_id,
               const WireTraceContext& ctx) {
  NINF_REQUIRE(body.size() <= kMaxPayload, "payload too large");
  noteWireBuffer(body.size());
  std::uint8_t header[kHeaderBytesV2Traced];
  const std::span<const std::uint8_t> bufs[2] = {
      {header, encodeHeader(mode, type, body.size(), call_id, ctx, header)},
      body};
  stream.sendv(bufs);
}

namespace {

/// Validate the four words shared by every header layout.
FrameHeader checkHeaderWords(xdr::Source& header, std::uint32_t want_version,
                             const std::string& peer) {
  if (header.getU32() != kMagic) {
    throw ProtocolError("bad magic from " + peer);
  }
  const std::uint32_t version = header.getU32();
  if (version != want_version) {
    throw ProtocolError("unexpected protocol version " +
                        std::to_string(version) + " (want " +
                        std::to_string(want_version) + ")");
  }
  const std::uint32_t type = header.getU32();
  if (type < static_cast<std::uint32_t>(MessageType::QueryInterface) ||
      type > kMaxMessageType) {
    throw ProtocolError("unknown message type " + std::to_string(type));
  }
  const std::uint32_t length = header.getU32();
  if (length > kMaxPayload) {
    throw ProtocolError("payload length " + std::to_string(length) +
                        " exceeds limit");
  }
  return FrameHeader{static_cast<MessageType>(type), length};
}

/// Parse one full header (any mode) from exactly headerBytes(mode) bytes.
FrameHeader parseHeader(std::span<const std::uint8_t> bytes, WireMode mode,
                        const std::string& peer) {
  xdr::Decoder header(bytes);
  FrameHeader fh = checkHeaderWords(
      header, mode == WireMode::V1 ? kVersion : kVersion2, peer);
  if (mode != WireMode::V1) {
    fh.call_id = header.getU64();
  }
  if (mode == WireMode::V2Traced) {
    fh.trace.trace_id = header.getU64();
    fh.trace.parent_span = header.getU64();
  }
  return fh;
}

}  // namespace

FrameHeader recvHeader(transport::Stream& stream, WireMode mode) {
  std::uint8_t header_bytes[kHeaderBytesV2Traced];
  const std::span<std::uint8_t> header{header_bytes, headerBytes(mode)};
  stream.recvAll(header);
  return parseHeader(header, mode, stream.peerName());
}

namespace {

/// Bytes of kInPlaceBodyBudget claimed across the process.
std::atomic<std::size_t> g_in_place_claimed{0};

}  // namespace

FrameAssembler::BudgetClaim FrameAssembler::BudgetClaim::take(
    std::size_t bytes) {
  BudgetClaim claim;
  std::size_t claimed = g_in_place_claimed.load(std::memory_order_relaxed);
  do {
    if (bytes > kInPlaceBodyBudget - claimed) return claim;
  } while (!g_in_place_claimed.compare_exchange_weak(
      claimed, claimed + bytes, std::memory_order_relaxed));
  claim.bytes_ = bytes;
  return claim;
}

FrameAssembler::BudgetClaim& FrameAssembler::BudgetClaim::operator=(
    BudgetClaim&& other) noexcept {
  if (this != &other) {
    g_in_place_claimed.fetch_sub(bytes_, std::memory_order_relaxed);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

FrameAssembler::BudgetClaim::~BudgetClaim() {
  g_in_place_claimed.fetch_sub(bytes_, std::memory_order_relaxed);
}

std::size_t FrameAssembler::inPlaceClaimedBytes() {
  return g_in_place_claimed.load(std::memory_order_relaxed);
}

void FrameAssembler::feed(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::span<std::uint8_t> FrameAssembler::bodySpace() {
  // Fed bytes come first: they move into the slab at the next next().
  if (!claim_ || pos_ != buf_.size()) return {};
  return {body_.data() + body_.size(), header_.length - body_.size()};
}

void FrameAssembler::commitBody(std::size_t n) {
  NINF_REQUIRE(n <= bodySpace().size(), "commitBody past the body");
  body_.resize(body_.size() + n);
}

void FrameAssembler::acquireBody() {
  try {
    body_ = common::acquireBuffer(header_.length);
  } catch (const std::bad_alloc&) {
    throw ProtocolError("cannot allocate a " + std::to_string(header_.length) +
                        "-byte body from " + peer_);
  }
}

void FrameAssembler::compact() {
  // Fully consumed: reset both cursors — no bytes move at all.  This is
  // the common case under batched small frames (one read drains into N
  // frames, all popped before the next read).
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
    return;
  }
  // Otherwise reclaim the consumed prefix only once it dominates the
  // buffer, so a long-lived connection does not grow its buffer without
  // bound while staying O(1) amortized per byte: each retained byte is
  // moved at most once per halving, bounding movedBytes() linearly in
  // bytes fed.
  if (pos_ > 4096 && pos_ * 2 >= buf_.size()) {
    moved_bytes_ += buf_.size() - pos_;
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

std::optional<Frame> FrameAssembler::next() {
  if (!have_header_) {
    const std::size_t need = headerBytes(mode_);
    if (buf_.size() - pos_ < need) return std::nullopt;
    header_ = parseHeader({buf_.data() + pos_, need}, mode_, peer_);
    pos_ += need;
    have_header_ = true;
    claim_ = BudgetClaim::take(header_.length);
    if (claim_) acquireBody();
  }
  const std::size_t fed = buf_.size() - pos_;
  if (!claim_) {
    // Not in place: the slab waits until the whole body is buffered.
    if (fed < header_.length) {
      compact();
      return std::nullopt;
    }
    acquireBody();
  }
  const std::size_t take = std::min(header_.length - body_.size(), fed);
  body_.append({buf_.data() + pos_, take});
  pos_ += take;
  if (body_.size() < header_.length) {
    compact();
    return std::nullopt;
  }
  have_header_ = false;
  claim_ = BudgetClaim();
  compact();
  return Frame{header_, std::move(body_)};
}

common::PooledBuffer flattenFramePooled(WireMode mode, MessageType type,
                                        std::uint64_t call_id,
                                        const WireTraceContext& ctx,
                                        const xdr::Encoder& body) {
  NINF_REQUIRE(body.size() <= kMaxPayload, "payload too large");
  std::uint8_t header[kHeaderBytesV2Traced];
  const std::size_t header_len =
      encodeHeader(mode, type, body.size(), call_id, ctx, header);
  common::PooledBuffer out = common::acquireBuffer(header_len + body.size());
  out.append({header, header_len});
  BufferSink sink(out);
  body.emitTo(sink);  // copies borrowed segments, byteswapped
  return out;
}

common::PooledBuffer frameHeaderPooled(WireMode mode, MessageType type,
                                       std::uint64_t call_id,
                                       const WireTraceContext& ctx,
                                       std::size_t body_bytes) {
  NINF_REQUIRE(body_bytes <= kMaxPayload, "payload too large");
  common::PooledBuffer out = common::acquireBuffer(headerBytes(mode));
  out.resize(encodeHeader(mode, type, body_bytes, call_id, ctx, out.data()));
  return out;
}

void BodyReader::readBytes(std::span<std::uint8_t> out) {
  std::size_t got = 0;
  // Serve buffered bytes first.
  const std::size_t buffered = std::min(out.size(), buf_len_ - buf_pos_);
  if (buffered > 0) {
    std::memcpy(out.data(), buf_.data() + buf_pos_, buffered);
    buf_pos_ += buffered;
    got += buffered;
  }
  while (got < out.size()) {
    const std::size_t want = out.size() - got;
    if (want > body_left_) {
      throw ProtocolError("message body underflow: need " +
                          std::to_string(want) + " bytes, body has " +
                          std::to_string(body_left_));
    }
    if (want >= kBufBytes) {
      // Large destination (array payload): receive straight into it.
      stream_.recvAll(out.subspan(got, want));
      body_left_ -= want;
      got += want;
    } else {
      // Small read (scalars, string headers): refill the buffer with
      // whatever part of the body is already in flight.
      const std::size_t target = std::min(kBufBytes, body_left_);
      buf_len_ = stream_.recvSome({buf_.data(), target});
      buf_pos_ = 0;
      body_left_ -= buf_len_;
      const std::size_t take = std::min(out.size() - got, buf_len_);
      std::memcpy(out.data() + got, buf_.data(), take);
      buf_pos_ = take;
      got += take;
    }
  }
}

void BodyReader::drain() {
  buf_pos_ = buf_len_ = 0;
  while (body_left_ > 0) {
    std::uint8_t sink[4096];
    const std::size_t chunk = std::min(body_left_, sizeof(sink));
    stream_.recvAll({sink, chunk});
    body_left_ -= chunk;
  }
}

Message recvMessage(transport::Stream& stream) {
  const FrameHeader header = recvHeader(stream, WireMode::V1);
  noteWireBuffer(header.length);
  Message msg;
  msg.type = header.type;
  msg.payload.resize(header.length);
  if (header.length > 0) stream.recvAll(msg.payload);
  return msg;
}

void Hello::encode(xdr::Encoder& enc) const {
  enc.putU32(max_version);
  if (features) enc.putU32(*features);
}

Hello Hello::decode(xdr::Source& src) {
  Hello hello;
  hello.max_version = src.getU32();
  if (src.remaining() >= 4) hello.features = src.getU32();
  return hello;
}

void HelloAck::encode(xdr::Encoder& enc) const {
  enc.putU32(version);
  if (features) enc.putU32(*features);
}

HelloAck HelloAck::decode(xdr::Source& src) {
  HelloAck ack;
  ack.version = src.getU32();
  if (src.remaining() >= 4) ack.features = src.getU32();
  return ack;
}

HelloAck answerHello(const Hello& hello, std::uint32_t max_version,
                     std::uint32_t served_features) {
  HelloAck ack;
  ack.version = std::min(hello.max_version, max_version);
  if (hello.features) ack.features = *hello.features & served_features;
  return ack;
}

WireMode wireModeFor(std::uint32_t version, std::uint32_t features) {
  if (version < kVersion2) return WireMode::V1;
  return (features & kFeatureTraceContext) != 0 ? WireMode::V2Traced
                                                : WireMode::V2;
}

std::vector<std::uint8_t> ServerStatusInfo::toBytes() const {
  xdr::Encoder enc;
  enc.putU32(running);
  enc.putU32(queued);
  enc.putU64(completed);
  enc.putDouble(load_average);
  return enc.take();
}

ServerStatusInfo ServerStatusInfo::fromBytes(
    std::span<const std::uint8_t> bytes) {
  xdr::Decoder dec(bytes);
  ServerStatusInfo info;
  info.running = dec.getU32();
  info.queued = dec.getU32();
  info.completed = dec.getU64();
  info.load_average = dec.getDouble();
  return info;
}

}  // namespace ninf::protocol
