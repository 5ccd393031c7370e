// Session layer under NinfClient: one Channel owns one connection and
// turns it into a request/reply service that many threads can share.
//
// After an initial Hello/HelloAck negotiation (lazy, performed inside the
// first exchange so it is bounded by that call's deadline) the channel
// runs in one of two modes:
//
//  * v2 (both ends speak protocol::kVersion2): every frame carries a
//    64-bit call ID, requests are pipelined through a send mutex, and a
//    dedicated reader thread demultiplexes replies — which may return in
//    any order — into per-call promises.  One connection sustains as many
//    concurrent in-flight calls as the server has workers.  Small
//    request frames group-commit (sendV2Batched): a caller never waits
//    for another caller's writev, only for its own reply.
//  * v1 (the peer agreed on version 1, as a metaserver node does): the
//    classic lock-step exchange, one call at a time, serialized on the
//    channel.
//
// The negotiated protocol::WireMode is the only thing that selects a
// frame layout: every frame goes out through protocol::sendFrame (or a
// group-commit of flattenFramePooled frames) and comes back through
// protocol::recvHeader in that mode.
//
// Failure envelope: a timeout while a v2 call is still *waiting* for its
// reply abandons just that call (the late reply is drained as an orphan)
// and the channel stays healthy; a call whose reply is already being
// decoded when the deadline passes gets a short grace window
// (setMidReplyGrace), after which the peer is declared stalled mid-frame
// and the channel is broken — the partial frame can never be realigned.
// Any transport error on the shared wire breaks the channel and fails
// every in-flight call with a typed error; so does a failed handshake,
// which surfaces its own typed error and leaves the retry budget (or the
// caller's failover loop) to handle it like any other send failure.
// resetIfBroken() tears the dead connection down so the next exchange
// reconnects through the factory.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/buffer_pool.h"
#include "common/sync.h"
#include "protocol/message.h"
#include "transport/transport.h"
#include "xdr/xdr.h"

namespace ninf::client {

class Channel {
 public:
  using StreamFactory = std::function<std::unique_ptr<transport::Stream>()>;

  /// Reply header echoed to the caller, plus the channel's own clock
  /// marks bounding the server window (request fully sent, reply body
  /// fully consumed) for phase attribution.
  struct Reply {
    protocol::MessageType type{};
    std::uint32_t length = 0;
    std::uint64_t call_id = 0;  // v2 wire correlation id; 0 on v1
    double sent_us = 0.0;
    double recv_done_us = 0.0;
  };

  /// Invoked once with the reply header and a Source positioned at the
  /// reply body.  Runs inside start() on the calling thread in v1 mode,
  /// and on the channel's reader thread in v2 mode, always before the
  /// exchange's wait() returns — so decoding into memory that outlives
  /// the exchange is safe.  May throw: unread body bytes are drained to
  /// keep framing aligned and the exception surfaces from the exchange
  /// without harming the connection.
  using Consumer = std::function<void(const Reply&, xdr::Source&)>;

  /// Adopt an established stream; its first exchange negotiates.
  explicit Channel(std::unique_ptr<transport::Stream> stream);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Factory used to replace the connection after a transport failure
  /// (a failed handshake included); the next exchange dials it.
  void setReconnect(StreamFactory fn);
  bool hasReconnect() const;

  /// Grace window past a call's deadline granted to a reply whose body
  /// is already being decoded (the reader is writing caller-owned
  /// arrays, so the call cannot simply be abandoned).  When it expires
  /// the peer is declared stalled mid-frame and the channel is broken.
  /// Default 0.25 s; tests shrink it.
  void setMidReplyGrace(double seconds);

  /// An exchange whose request is sent and whose reply is not yet
  /// collected, as returned by start().  wait() collects it once, under
  /// the deadline the exchange started with.  Destroying a Pending that
  /// was never waited on abandons its call the way a timed-out waiter
  /// does, without counting a timeout: a reply that has not begun to
  /// arrive is drained as an orphan, and one already being decoded is
  /// seen through within the mid-reply grace window.  The channel must
  /// outlive every Pending it returned.
  class Pending {
   public:
    Pending() = default;
    Pending(Pending&& other) noexcept;
    Pending& operator=(Pending&& other) noexcept;
    Pending(const Pending&) = delete;
    Pending& operator=(const Pending&) = delete;
    ~Pending();

    /// The reply header; throws what the exchange failed with.
    Reply wait() NINF_BLOCKING;

   private:
    friend class Channel;
    /// Set while a v2 reply is outstanding; null once collected and for
    /// v1, whose lock-step exchange already ran inside start().
    Channel* channel_ = nullptr;
    std::uint64_t id_ = 0;
    std::future<Reply> reply_;
    std::chrono::steady_clock::time_point deadline_{};
    Reply done_;
  };

  /// Send half of one request/reply exchange: send `body` as a `type`
  /// frame and return without waiting for the reply, which is delivered
  /// to `consumer`.  `deadline` (absolute, Stream::kNoDeadline =
  /// unbounded) bounds the whole exchange including negotiation.  In v1
  /// mode the lock-step exchange runs here and wait() returns its
  /// result.  `consumer` may run after the caller's frame is gone, so
  /// whatever it writes to must outlive the Pending.
  Pending start(protocol::MessageType type, const xdr::Encoder& body,
                Consumer consumer,
                std::chrono::steady_clock::time_point deadline =
                    transport::Stream::kNoDeadline) NINF_BLOCKING;

  /// One request/reply exchange, start(...).wait(): expiry of
  /// `deadline` throws TimeoutError.
  Reply transact(protocol::MessageType type, const xdr::Encoder& body,
                 Consumer consumer,
                 std::chrono::steady_clock::time_point deadline =
                     transport::Stream::kNoDeadline) NINF_BLOCKING;

  /// Protocol version in force on the current connection: 0 before its
  /// first exchange, then 1 or 2.
  std::uint32_t negotiatedVersion() const;

  /// True when the connection negotiated the trace-context extension
  /// (40-byte traced v2 frames in both directions).  Only possible when
  /// the tracer was enabled at negotiation time.
  bool tracePropagationNegotiated() const;

  /// Diagnostic peer description of the current connection.
  std::string peerName() const;

  /// True when the connection is known dead (every new exchange will
  /// fail until resetIfBroken()).
  bool broken() const { return broken_.load(std::memory_order_acquire); }

  /// Tear down a broken connection (join the reader, drop the stream) so
  /// the next exchange reconnects.  No-op while healthy — a v2 call
  /// that merely timed out must not kill its siblings' connection.
  void resetIfBroken();

  /// Close the connection; in-flight calls fail with TransportError.  A
  /// later exchange may revive the channel through the factory.
  void close();

 private:
  struct PendingCall {
    Consumer consumer;
    std::promise<Reply> promise;
    // Both fields are guarded by the owning channel's pending_mutex_
    // (inexpressible as an annotation from a nested struct).
    double sent_us = 0.0;
    enum State { Waiting, Consuming } state = Waiting;
  };

  /// Reconnect + negotiate as needed.
  void ensureReadyLocked(std::chrono::steady_clock::time_point deadline)
      NINF_REQUIRES(setup_mutex_);
  /// Hello/HelloAck on the fresh stream_; sets mode_, or marks the
  /// channel broken and rethrows.
  void negotiateLocked(std::chrono::steady_clock::time_point deadline)
      NINF_REQUIRES(setup_mutex_);
  /// Close + join reader + drop the stream.
  void teardownLocked() NINF_REQUIRES(setup_mutex_);

  Reply transactV1Locked(protocol::MessageType type, const xdr::Encoder& body,
                         const Consumer& consumer,
                         std::chrono::steady_clock::time_point deadline)
      NINF_REQUIRES(setup_mutex_);
  /// Send half of a v2 exchange, framed in `mode` (read by start()
  /// under the setup lock).
  Pending startV2(protocol::WireMode mode, protocol::MessageType type,
                  const xdr::Encoder& body, Consumer consumer,
                  std::chrono::steady_clock::time_point deadline);
  /// Wait half of a v2 exchange: the deadline, abandon and mid-reply
  /// grace logic.
  Reply awaitV2(std::uint64_t id, std::future<Reply>& reply,
                std::chrono::steady_clock::time_point deadline);
  /// A Pending dropped without wait(): abandon or see the call through.
  void abandon(std::uint64_t id, std::future<Reply>& reply) noexcept;
  /// Erase call `id` if its reply has not begun to arrive (the reader
  /// then drains the late reply as an orphan).  False otherwise.
  bool abandonIfWaiting(std::uint64_t id);
  /// Call `id`'s reply stalled mid-body past its grace window: the wire
  /// can never be realigned, so break the channel and close the stream
  /// (the wedged reader then fails every in-flight call).  False when
  /// the reply completed meanwhile.
  bool breakStalled(std::uint64_t id);
  std::chrono::steady_clock::duration midReplyGrace() const;

  void readerLoop(transport::Stream* stream, protocol::WireMode mode);
  /// Mark broken and fail every pending call with `error`.
  void failAllPending(std::exception_ptr error);
  /// Close the stream if the channel is still broken.  A reconnect since
  /// the failure cleared broken_, and the new stream stays open.
  void closeIfBroken();
  /// Remove one pending entry (if still present) and update the gauge.
  void erasePending(std::uint64_t id);

  /// Group-commit send of call `call_id`'s small pre-flattened v2 frame
  /// (common::kSmallFrameBytes).  The frame joins the batch queue.  When
  /// a flush is already in progress, that flusher owns the frame and
  /// this returns at once: the caller waits only on its reply.
  /// Otherwise this caller becomes the flusher: it writes every queued
  /// frame in waves of ONE sendv each (bounded by common::kBatchMaxFrames
  /// and common::kBatchMaxBytes) while later arrivals keep queueing, and
  /// stamps each frame's sent_us once its wave is on the wire.  A failed
  /// wave breaks the channel, drops every queued frame and closes the
  /// stream, so the reader fails each of those calls with TransportError;
  /// the flusher itself throws only if its own frame's wave failed.
  void sendV2Batched(std::uint64_t call_id, common::PooledBuffer frame);

  /// Serializes connection setup / negotiation / teardown, and the whole
  /// exchange in v1 mode.  Lock order: setup -> send -> pending.
  mutable Mutex setup_mutex_{"channel.setup"};
  std::unique_ptr<transport::Stream> stream_ NINF_GUARDED_BY(setup_mutex_);
  StreamFactory reconnect_ NINF_GUARDED_BY(setup_mutex_);
  /// Frame layout negotiated on stream_; empty until its first
  /// exchange negotiates.
  std::optional<protocol::WireMode> mode_ NINF_GUARDED_BY(setup_mutex_);
  std::atomic<bool> broken_{false};
  std::atomic<double> mid_reply_grace_s_{0.25};

  /// v2 state: frame sends are atomic under send_mutex_; the pending map
  /// (and each entry's state/sent_us) under pending_mutex_.  wire_
  /// mirrors stream_.get() (both are swapped while holding setup AND
  /// send), so v2 senders reach the wire without the setup lock.
  Mutex send_mutex_ NINF_ACQUIRED_AFTER(setup_mutex_){"channel.send"};
  transport::Stream* wire_ NINF_GUARDED_BY(send_mutex_) = nullptr;

  /// Send-side batching state.  "channel.batch" orders BEFORE
  /// "channel.send" in the canonical hierarchy, but the flusher never
  /// holds both: it collects a wave under batch_mutex_, releases it,
  /// and performs the sendv under send_mutex_ alone — so enqueuers are
  /// never parked behind wire I/O (that is the group commit).
  struct BatchItem {
    common::PooledBuffer frame;
    std::uint64_t call_id = 0;
  };
  Mutex batch_mutex_{"channel.batch"};
  std::deque<BatchItem> batch_queue_ NINF_GUARDED_BY(batch_mutex_);
  bool batch_flusher_active_ NINF_GUARDED_BY(batch_mutex_) = false;
  Mutex pending_mutex_ NINF_ACQUIRED_AFTER(send_mutex_){"channel.pending"};
  std::map<std::uint64_t, std::shared_ptr<PendingCall>> pending_
      NINF_GUARDED_BY(pending_mutex_);
  std::atomic<std::uint64_t> next_call_id_{1};
  std::thread reader_ NINF_GUARDED_BY(setup_mutex_);
};

}  // namespace ninf::client
