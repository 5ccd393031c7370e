// Ninf RPC message framing.
//
// Every message is a fixed 16-byte header (magic, version, type, payload
// length) followed by an XDR payload.  The call sequence implements the
// paper's two-stage RPC (section 2.3): the client first queries the
// interface, receives the compiled IDL information as interpretable code,
// then marshals arguments accordingly.
//
//   client                       server
//     | -- QueryInterface -------> |
//     | <------- InterfaceReply -- |   (compiled InterfaceInfo)
//     | -- CallRequest ----------> |   (entry name + IN arguments)
//     | <---------- CallReply ---- |   (OUT arguments + server timings)
//
// The optional two-phase mode of section 5.1 splits the call:
//
//     | -- SubmitRequest --------> |
//     | <---------- SubmitAck ---- |   (job id; connection may drop)
//     | -- FetchResult(job) -----> |   (later, new connection)
//     | <- CallReply / ResultPending |
//
// Protocol v2 (session layer): a client that wants to multiplex many
// logical calls over one connection opens with a version negotiation in
// v1 framing:
//
//     | -- Hello(max_version) ---> |
//     | <-- HelloAck(agreed) ----- |
//
// After HelloAck agrees on v2, every frame in both directions carries a
// 64-bit call ID after the length word (24-byte header).  Requests may
// be pipelined and replies may return out of order; the call ID is the
// only correlation.  A v1 peer never sends Hello and keeps the classic
// lock-step framing — a v2 server serves both kinds of connection.
//
// Trace-context extension (negotiated): a v2 client may append a feature
// bitmask word to its Hello payload; a server that understands it echoes
// its accepted bitmask after the agreed version in HelloAck.  When both
// sides accept kFeatureTraceContext, every v2 frame in both directions
// grows by 16 bytes: a 64-bit trace ID and a 64-bit parent span ID after
// the call ID (40-byte header).  Peers that never send — or never echo —
// the feature word see byte-identical framing to plain v2, and v1 peers
// see no change at all.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "transport/transport.h"
#include "xdr/xdr.h"

namespace ninf::protocol {

inline constexpr std::uint32_t kMagic = 0x4E494E46;  // "NINF"
inline constexpr std::uint32_t kVersion = 1;
/// Highest protocol version this build speaks (negotiated via Hello).
inline constexpr std::uint32_t kVersion2 = 2;
inline constexpr std::uint32_t kMaxVersion = kVersion2;
/// Frame header sizes: v1 is magic/version/type/length; v2 appends a
/// 64-bit call ID used to correlate out-of-order replies; a negotiated
/// trace-context connection further appends trace ID + parent span ID.
inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kHeaderBytesV2 = 24;
inline constexpr std::size_t kHeaderBytesV2Traced = 40;
/// The one feature bit of the optional Hello/HelloAck bitmask word.  A
/// service accepts only the bits it serves and ignores the rest.  Bit
/// 0x2 is retired: peers built earlier may still set it, so it must not
/// take a new meaning.
inline constexpr std::uint32_t kFeatureTraceContext = 1u << 0;
/// Guard against hostile/corrupt length fields (256 MiB).
inline constexpr std::uint32_t kMaxPayload = 256u << 20;
/// Declared bodies whose slabs the FrameAssemblers of one process may
/// hold before the bytes have arrived (64 MiB).  See FrameAssembler.
inline constexpr std::size_t kInPlaceBodyBudget = std::size_t{64} << 20;

enum class MessageType : std::uint32_t {
  QueryInterface = 1,   // payload: string name
  InterfaceReply = 2,   // payload: bool found, [InterfaceInfo]
  CallRequest = 3,      // payload: string name, IN args
  CallReply = 4,        // payload: status, timings, OUT args | error string
  SubmitRequest = 5,    // payload: string name, IN args (two-phase)
  SubmitAck = 6,        // payload: u64 job id
  FetchResult = 7,      // payload: u64 job id
  ResultPending = 8,    // payload: empty
  ListExecutables = 9,  // payload: empty
  ExecutableList = 10,  // payload: u32 count, names
  ServerStatus = 11,    // payload: empty
  StatusReply = 12,     // payload: running, queued, completed, load
  Ping = 13,            // payload: opaque echo data
  Pong = 14,            // payload: opaque echo data
  Hello = 15,           // payload: u32 highest version the client speaks
  HelloAck = 16,        // payload: u32 agreed version
  // Sharded-metaserver control plane, served by metaserver nodes (see
  // protocol/meta_wire.h for the payload codecs).
  RingQuery = 17,        // payload: empty
  RingInfo = 18,         // payload: ring epoch + per-shard membership
  WrongShard = 19,       // payload: entry, owner shard, epoch, reason
  ScheduleQuery = 20,    // payload: entry name + excluded server names
  ScheduleReply = 21,    // payload: chosen server name/endpoint + epoch
  RegisterServer = 22,   // payload: server descriptor + (endpoint, epoch) key
  RegisterAck = 23,      // payload: status, log seq, shard epoch
  DeregisterServer = 24, // payload: endpoint + registration epoch
  ReplAppend = 25,       // payload: shard epoch + seq-numbered registry op
  ReplAck = 26,          // payload: status, acked seq, replica's epoch
  ReplHeartbeat = 27,    // payload: shard epoch, liveness digest
};

/// Highest wire-valid message type (header validation bound).
inline constexpr std::uint32_t kMaxMessageType =
    static_cast<std::uint32_t>(MessageType::ReplHeartbeat);

struct Message {
  MessageType type;
  std::vector<std::uint8_t> payload;
};

/// Causal trace context carried in a traced v2 frame header.  Zero
/// values mean "no active trace" — receivers must not adopt them.
struct WireTraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

/// Frame layout in force on a connection: v1 lock-step (16-byte
/// headers), negotiated v2 (24 bytes, call ID), or traced v2 (40 bytes,
/// call ID + trace context).  The only thing that selects a layout: every
/// sender and reader below takes one.
enum class WireMode { V1, V2, V2Traced };

/// Header bytes of one frame in the given mode.
constexpr std::size_t headerBytes(WireMode mode) {
  return mode == WireMode::V1      ? kHeaderBytes
         : mode == WireMode::V2    ? kHeaderBytesV2
                                   : kHeaderBytesV2Traced;
}

/// Validated frame header: the first headerBytes(mode) bytes of every
/// message.
struct FrameHeader {
  MessageType type;
  std::uint32_t length = 0;   // body bytes following the header
  std::uint64_t call_id = 0;  // v2 correlation id; 0 on v1 frames
  WireTraceContext trace;     // traced-v2 context; zeros otherwise
};

/// Send one frame in `mode`'s layout through Stream::sendv: the header,
/// the encoder's owned bytes, and byteswapped chunks of its borrowed
/// double arrays — the message is never materialized contiguously.
/// `call_id` and `ctx` are ignored by modes whose header does not carry
/// them.
void sendFrame(transport::Stream& stream, WireMode mode, MessageType type,
               const xdr::Encoder& body, std::uint64_t call_id = 0,
               const WireTraceContext& ctx = {});

/// Same for an already-flat body: header and body leave in one sendv.
void sendFrame(transport::Stream& stream, WireMode mode, MessageType type,
               std::span<const std::uint8_t> body, std::uint64_t call_id = 0,
               const WireTraceContext& ctx = {});

/// Read and validate one frame header in `mode`'s layout; throws
/// ProtocolError on bad magic/version/type/length and TransportError on
/// connection loss.  The caller must then consume exactly header.length
/// body bytes (BodyReader) before the next frame.
FrameHeader recvHeader(transport::Stream& stream, WireMode mode);

/// Incremental reader over one frame body.  Implements xdr::Source, so
/// decode logic pulls scalars through a small internal buffer while large
/// double arrays are received directly into their final destination —
/// the body is never materialized as one contiguous vector.  Bounded: a
/// read past the declared body length throws ProtocolError.
class BodyReader : public xdr::Source {
 public:
  BodyReader(transport::Stream& stream, std::size_t length)
      : stream_(stream), body_left_(length) {}

  /// Consume and discard whatever is left of the body (used to keep the
  /// connection framing aligned after a decode error).
  void drain();

 protected:
  void readBytes(std::span<std::uint8_t> out) override;
  std::size_t remainingBytes() const override {
    return body_left_ + (buf_len_ - buf_pos_);
  }

 private:
  /// Reads at least `buffer threshold` bytes of body directly, bypassing
  /// the internal buffer, for large destinations.
  static constexpr std::size_t kBufBytes = 4096;

  transport::Stream& stream_;
  std::size_t body_left_;  // body bytes not yet pulled from the stream
  std::array<std::uint8_t, kBufBytes> buf_;
  std::size_t buf_pos_ = 0;  // consumed prefix of buf_
  std::size_t buf_len_ = 0;  // valid bytes in buf_
};

/// Receive one whole v1 frame (header + materialized body): the
/// handshake and the metaserver node's lock-step loop.  The call data
/// path uses recvHeader/BodyReader.
Message recvMessage(transport::Stream& stream);

/// One complete frame popped off a FrameAssembler: the validated header
/// plus the materialized body.  The body lives in a pool slab so the
/// per-frame steady state costs no heap traffic; moving the Frame moves
/// ownership of the slab with it (worker threads routinely consume
/// frames popped on the reactor thread).
struct Frame {
  FrameHeader header;
  common::PooledBuffer body;
};

/// Incremental frame reassembly for event-driven servers: raw bytes read
/// off a non-blocking socket are fed in as they arrive, complete frames
/// pop out.  A frame is parsed in two steps — header first (validated
/// exactly as recvHeader would), then the body — so a slow peer
/// dribbling one byte at a time costs buffer space, never a blocked
/// thread.  setMode() takes effect at the next frame boundary (Hello
/// negotiation upgrades a connection mid-stream).
///
/// Bodies are received in place: once next() has parsed a header, the
/// assembler holds a pool slab sized to the declared body and every
/// next() moves the body bytes fed so far into it.  bodySpace() exposes
/// the part of that slab not yet received, so a reader can recv straight
/// into it and commitBody() the count — the kernel's copy is then the
/// only copy of a large body.  The reassembly vector holds only headers,
/// small reads and the bytes that follow a body: as long as next() runs
/// after every feed(), it never grows past one read plus one header,
/// whatever the body size.
///
/// A slab held before its bytes arrive is memory a peer commits by
/// sending a header alone, so the declared lengths of the bodies being
/// received in place count against kInPlaceBodyBudget, process-wide,
/// until each frame pops.  A body that does not fit gathers in the
/// reassembly vector as its bytes arrive and moves into a slab once
/// whole: two copies, but memory that grows only with bytes received.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::string peer = "peer")
      : peer_(std::move(peer)) {}

  WireMode mode() const { return mode_; }
  /// Switch header layout for frames not yet parsed.  Must only be
  /// called between frames (after next() returned a complete frame or
  /// nullopt) — the current partial header, if any, is reinterpreted.
  void setMode(WireMode mode) { mode_ = mode; }

  /// Append raw wire bytes to the reassembly vector.
  void feed(std::span<const std::uint8_t> bytes);

  /// The current frame's body bytes not yet received, when that body is
  /// received in place and no fed bytes still wait to move into it;
  /// empty otherwise.  Valid until the next call on the assembler.
  std::span<std::uint8_t> bodySpace();

  /// Record that the first `n` bytes of bodySpace() were written in
  /// place; `n` must not exceed bodySpace().size().
  void commitBody(std::size_t n);

  /// Pop the next complete frame, or nullopt when more bytes are
  /// needed.  Throws ProtocolError on a malformed header (bad magic,
  /// version, type, or length), exactly like the blocking readers, and
  /// when the declared body cannot be allocated.
  std::optional<Frame> next();

  /// Bytes buffered but not yet returned as frames (partial frame).
  std::size_t buffered() const {
    return buf_.size() - pos_ + (have_header_ ? body_.size() : 0);
  }

  /// True when a frame header was parsed but its body is incomplete.
  bool midFrame() const { return have_header_; }

  /// Bytes the reassembly vector has reserved (regression hook for the
  /// in-place body bound above).
  std::size_t reassemblyCapacity() const { return buf_.capacity(); }

  /// kInPlaceBodyBudget bytes currently claimed by the assemblers of
  /// this process (regression hook for the budget above).
  static std::size_t inPlaceClaimedBytes();

  /// Total bytes physically moved by buffer compaction since
  /// construction.  Regression hook: consumption is tracked by offset
  /// and compaction is deferred until the consumed prefix dominates the
  /// buffer, so this grows at most linearly in bytes fed — a quadratic
  /// memcpy-shift regime (shift on every pop) would blow well past
  /// that bound under thousands of tiny batched frames.
  std::uint64_t movedBytes() const { return moved_bytes_; }

 private:
  /// A share of kInPlaceBodyBudget, returned when destroyed or replaced.
  class BudgetClaim {
   public:
    BudgetClaim() = default;
    /// The whole `bytes`, or an empty claim when they do not fit.
    static BudgetClaim take(std::size_t bytes);
    BudgetClaim(BudgetClaim&& other) noexcept
        : bytes_(std::exchange(other.bytes_, 0)) {}
    BudgetClaim& operator=(BudgetClaim&& other) noexcept;
    ~BudgetClaim();
    explicit operator bool() const { return bytes_ > 0; }

   private:
    std::size_t bytes_ = 0;
  };

  void compact();
  /// Acquire the current frame's slab (ProtocolError when it cannot be).
  void acquireBody();

  std::string peer_;
  WireMode mode_ = WireMode::V1;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::uint64_t moved_bytes_ = 0;
  bool have_header_ = false;
  FrameHeader header_{};       // valid while have_header_
  BudgetClaim claim_;          // set while the body is received in place
  common::PooledBuffer body_;  // header_.length bytes once filled
};

/// Materialize one wire frame (header + body) into a pool slab,
/// byteswapping any borrowed double arrays through the encoder's
/// scratch path.  This is the reactor pipeline's epilogue step: the
/// slab is self-contained (no keepalive needed), travels from a worker
/// to the reactor's write queue, and returns to the pool after the
/// writev.  `call_id` and `ctx` are ignored by modes whose header does
/// not carry them.
common::PooledBuffer flattenFramePooled(WireMode mode, MessageType type,
                                        std::uint64_t call_id,
                                        const WireTraceContext& ctx,
                                        const xdr::Encoder& body);

/// Encode only the header of a frame whose `body_bytes`-byte body is
/// already flat and travels as a separate buffer behind it: a cached
/// reply replays the result cache's shared payload under each caller's
/// own call ID and trace context, so the header is all it builds.  At
/// most kHeaderBytesV2Traced bytes, in a pool slab like
/// flattenFramePooled's.
common::PooledBuffer frameHeaderPooled(WireMode mode, MessageType type,
                                       std::uint64_t call_id,
                                       const WireTraceContext& ctx,
                                       std::size_t body_bytes);

/// Record a materialized wire-buffer size in the
/// "wire.peak_buffer_bytes" gauge (monotonic max since last metrics
/// reset).  Streamed sends and the client's body reader stay near the
/// scratch size regardless of payload; contiguous sends report the full
/// message, and the server's reactor reports each reassembled request
/// frame (one slab holding the whole body).
void noteWireBuffer(std::size_t bytes);

/// Hello payload: the highest version the client speaks, then — only
/// when the client wants an extension — its feature bitmask word.  A
/// Hello without the word is byte-identical to a pre-extension one.
struct Hello {
  std::uint32_t max_version = kMaxVersion;
  std::optional<std::uint32_t> features;

  void encode(xdr::Encoder& enc) const;
  static Hello decode(xdr::Source& src);
};

/// HelloAck payload: the agreed version, then — only when the Hello
/// carried a feature word — the subset of its bits the service accepts.
struct HelloAck {
  std::uint32_t version = kVersion;
  std::optional<std::uint32_t> features;

  void encode(xdr::Encoder& enc) const;
  static HelloAck decode(xdr::Source& src);
};

/// A service's answer to `hello`: the lower of the two highest versions,
/// and the requested bits among `served_features` (echoed only to a
/// Hello that carried a feature word).
HelloAck answerHello(const Hello& hello, std::uint32_t max_version,
                     std::uint32_t served_features);

/// Frame layout both sides switch to after a handshake that agreed on
/// `version` with `features` accepted by both.
WireMode wireModeFor(std::uint32_t version, std::uint32_t features);

/// Server-side status snapshot carried by StatusReply (metaserver food).
struct ServerStatusInfo {
  std::uint32_t running = 0;    // executables currently executing
  std::uint32_t queued = 0;     // jobs waiting in the queue
  std::uint64_t completed = 0;  // jobs finished since start
  double load_average = 0.0;    // smoothed runnable-task count

  std::vector<std::uint8_t> toBytes() const;
  static ServerStatusInfo fromBytes(std::span<const std::uint8_t> bytes);
};

}  // namespace ninf::protocol
