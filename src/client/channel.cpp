#include "client/channel.h"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/batch.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ninf::client {

using protocol::MessageType;
using protocol::WireMode;

namespace {

/// Process-wide in-flight total backing the "channel.inflight" gauge
/// (obs::Gauge has no add(), so the running sum lives here).
std::atomic<long> g_inflight{0};

void bumpInflight(long delta) {
  static obs::Gauge& gauge = obs::gauge("channel.inflight");
  gauge.set(static_cast<double>(g_inflight.fetch_add(delta) + delta));
}

}  // namespace

Channel::Channel(std::unique_ptr<transport::Stream> stream)
    : stream_(std::move(stream)) {
  NINF_REQUIRE(stream_ != nullptr, "null stream");
  wire_ = stream_.get();
}

Channel::~Channel() {
  {
    LockGuard setup(setup_mutex_);
    teardownLocked();
  }
}

void Channel::setReconnect(StreamFactory fn) {
  LockGuard setup(setup_mutex_);
  reconnect_ = std::move(fn);
}

bool Channel::hasReconnect() const {
  LockGuard setup(setup_mutex_);
  return static_cast<bool>(reconnect_);
}

void Channel::setMidReplyGrace(double seconds) {
  mid_reply_grace_s_.store(std::max(0.0, seconds), std::memory_order_relaxed);
}

std::uint32_t Channel::negotiatedVersion() const {
  LockGuard setup(setup_mutex_);
  if (!mode_) return 0;
  return *mode_ == WireMode::V1 ? protocol::kVersion : protocol::kVersion2;
}

bool Channel::tracePropagationNegotiated() const {
  LockGuard setup(setup_mutex_);
  return mode_ == WireMode::V2Traced;
}

std::string Channel::peerName() const {
  LockGuard setup(setup_mutex_);
  return stream_ ? stream_->peerName() : "<disconnected>";
}

void Channel::close() {
  LockGuard setup(setup_mutex_);
  {
    LockGuard g(pending_mutex_);
    broken_.store(true, std::memory_order_release);
  }
  if (stream_) stream_->close();
}

void Channel::resetIfBroken() {
  LockGuard setup(setup_mutex_);
  if (!broken_.load(std::memory_order_acquire)) return;
  teardownLocked();
  broken_.store(false, std::memory_order_release);
}

void Channel::teardownLocked() {
  // Wake anything parked in the stream (reader recv, sender backpressure);
  // stream_ itself stays valid until both the reader and any sender are
  // out, so close without send_mutex_ is safe.
  if (stream_) stream_->close();
  if (reader_.joinable()) reader_.join();
  failAllPending(std::make_exception_ptr(
      TransportError("channel torn down with calls in flight")));
  {
    LockGuard g(send_mutex_);
    stream_.reset();
    wire_ = nullptr;
  }
  mode_.reset();
}

void Channel::ensureReadyLocked(
    std::chrono::steady_clock::time_point deadline) {
  if (broken_.load(std::memory_order_acquire)) {
    teardownLocked();
    broken_.store(false, std::memory_order_release);
  }
  if (!stream_) {
    if (!reconnect_) {
      throw TransportError("connection lost and no reconnect factory");
    }
    static obs::Counter& reconnects = obs::counter("client.reconnects");
    reconnects.add();
    // The factory runs user code and real connect I/O; keep send_mutex_
    // out of scope for it and lock only for the pointer swap, so a v2
    // sender is never parked behind a slow reconnect.
    std::unique_ptr<transport::Stream> fresh = reconnect_();
    if (!fresh) {
      throw TransportError("reconnect factory returned no stream");
    }
    {
      LockGuard g(send_mutex_);
      stream_ = std::move(fresh);
      wire_ = stream_.get();
    }
    mode_.reset();
  }
  if (mode_) return;
  negotiateLocked(deadline);
}

void Channel::negotiateLocked(std::chrono::steady_clock::time_point deadline) {
  // Advertise trace context only when the tracer would use it; otherwise
  // the Hello stays byte-identical to a pre-extension one, so peers that
  // predate the feature word see no change.
  const std::uint32_t want = obs::Tracer::instance().enabled()
                                 ? protocol::kFeatureTraceContext
                                 : 0;
  protocol::Hello hello;
  if (want != 0) hello.features = want;
  // No reader thread exists yet, so the stream deadline is safe here and
  // bounds the handshake by the first call's budget.
  try {
    stream_->setDeadline(deadline);
    xdr::Encoder enc;
    hello.encode(enc);
    protocol::sendFrame(*stream_, WireMode::V1, MessageType::Hello, enc);
    const protocol::Message reply = protocol::recvMessage(*stream_);
    stream_->clearDeadline();
    if (reply.type != MessageType::HelloAck) {
      throw ProtocolError("expected HelloAck, got " +
                          std::to_string(static_cast<unsigned>(reply.type)));
    }
    xdr::Decoder dec(reply.payload);
    const protocol::HelloAck ack = protocol::HelloAck::decode(dec);
    // A peer can never grant a bit we did not ask for.
    mode_ = protocol::wireModeFor(ack.version,
                                  ack.features.value_or(0) & want);
  } catch (...) {
    // Reset, stall or a reply that is no HelloAck: the wire is in an
    // unknown state, so the handshake fails like any other send, with
    // its typed error, and the next exchange reconnects.
    broken_.store(true, std::memory_order_release);
    throw;
  }
  if (*mode_ != WireMode::V1) {
    transport::Stream* raw = stream_.get();
    reader_ = std::thread(
        [this, raw, mode = *mode_] { readerLoop(raw, mode); });
  }
}

Channel::Pending Channel::start(MessageType type, const xdr::Encoder& body,
                                Consumer consumer,
                                std::chrono::steady_clock::time_point
                                    deadline) {
  UniqueLock setup(setup_mutex_);
  NINF_TIDY_SUPPRESS("metrics-under-lock",
                     "reconnect is the cold path and its only metric is "
                     "a pre-resolved counter bump");
  ensureReadyLocked(deadline);
  const WireMode mode = *mode_;
  if (mode == WireMode::V1) {
    Pending done;
    done.done_ = transactV1Locked(type, body, consumer, deadline);
    return done;
  }
  setup.unlock();
  return startV2(mode, type, body, std::move(consumer), deadline);
}

Channel::Reply Channel::transact(MessageType type, const xdr::Encoder& body,
                                 Consumer consumer,
                                 std::chrono::steady_clock::time_point
                                     deadline) {
  return start(type, body, std::move(consumer), deadline).wait();
}

Channel::Pending::Pending(Pending&& other) noexcept
    : channel_(std::exchange(other.channel_, nullptr)),
      id_(other.id_),
      reply_(std::move(other.reply_)),
      deadline_(other.deadline_),
      done_(other.done_) {}

Channel::Pending& Channel::Pending::operator=(Pending&& other) noexcept {
  if (this != &other) {
    if (channel_ != nullptr) channel_->abandon(id_, reply_);
    channel_ = std::exchange(other.channel_, nullptr);
    id_ = other.id_;
    reply_ = std::move(other.reply_);
    deadline_ = other.deadline_;
    done_ = other.done_;
  }
  return *this;
}

Channel::Pending::~Pending() {
  if (channel_ != nullptr) channel_->abandon(id_, reply_);
}

Channel::Reply Channel::Pending::wait() {
  if (channel_ == nullptr) return done_;
  // Collected (or failed) from here on: nothing is left to abandon.
  Channel* channel = std::exchange(channel_, nullptr);
  return channel->awaitV2(id_, reply_, deadline_);
}

Channel::Reply Channel::transactV1Locked(
    MessageType type, const xdr::Encoder& body, const Consumer& consumer,
    std::chrono::steady_clock::time_point deadline) {
  transport::Stream& s = *stream_;
  try {
    s.setDeadline(deadline);
    {
      obs::Span send(obs::phase::kSend, static_cast<std::int64_t>(body.size()));
      protocol::sendFrame(s, WireMode::V1, type, body);
    }
    Reply reply;
    reply.sent_us = obs::Tracer::nowMicros();
    const protocol::FrameHeader header = protocol::recvHeader(s, WireMode::V1);
    reply.type = header.type;
    reply.length = header.length;
    protocol::BodyReader reader(s, header.length);
    try {
      consumer(reply, reader);
      reader.drain();
    } catch (const TransportError&) {
      throw;
    } catch (...) {
      // Typed decode/remote error: realign framing, keep the connection.
      reader.drain();
      s.clearDeadline();
      throw;
    }
    reply.recv_done_us = obs::Tracer::nowMicros();
    s.clearDeadline();
    return reply;
  } catch (const TransportError&) {
    // The wire is mid-protocol in an unknown state; the connection is
    // unusable regardless of what the caller does next.
    broken_.store(true, std::memory_order_release);
    throw;
  }
}

Channel::Pending Channel::startV2(
    WireMode mode, MessageType type, const xdr::Encoder& body,
    Consumer consumer, std::chrono::steady_clock::time_point deadline) {
  auto call = std::make_shared<PendingCall>();
  call->consumer = std::move(consumer);
  std::future<Reply> fut = call->promise.get_future();
  const std::uint64_t id = next_call_id_.fetch_add(1);
  {
    LockGuard g(pending_mutex_);
    if (broken_.load(std::memory_order_acquire)) {
      throw TransportError("channel broken");
    }
    pending_.emplace(id, call);
  }
  bumpInflight(+1);
  // Capture the caller's ambient context before opening the transient
  // send span, so propagated server spans nest under the caller's call
  // span rather than under "send".
  const obs::TraceContext trace_ctx = obs::currentContext();
  try {
    obs::Span send(obs::phase::kSend, static_cast<std::int64_t>(body.size()));
    {
      // Provisional send-start stamp.  The reply cannot arrive before the
      // request frame is written, so the reader always observes a nonzero
      // sent_us even when it wins the post-send re-stamp.
      LockGuard p(pending_mutex_);
      call->sent_us = obs::Tracer::nowMicros();
    }
    const protocol::WireTraceContext wctx{trace_ctx.trace_id,
                                          trace_ctx.parent_span};
    if (protocol::headerBytes(mode) + body.size() <=
        common::kSmallFrameBytes) {
      // Small call: flatten once and group-commit with its concurrent
      // siblings — under high in-flight counts many frames share one
      // writev instead of contending for send_mutex_ one syscall each.
      // The flusher re-stamps sent_us once the frame is on the wire.
      sendV2Batched(
          id, protocol::flattenFramePooled(mode, type, id, wctx, body));
    } else {
      {
        LockGuard g(send_mutex_);
        if (broken_.load(std::memory_order_acquire) || wire_ == nullptr) {
          throw TransportError("channel broken");
        }
        protocol::sendFrame(*wire_, mode, type, body, id, wctx);
      }
      LockGuard p(pending_mutex_);
      auto it = pending_.find(id);
      if (it != pending_.end()) it->second->sent_us = obs::Tracer::nowMicros();
    }
  } catch (const TransportError&) {
    erasePending(id);
    // A partial frame poisons every call sharing the wire.
    {
      LockGuard p(pending_mutex_);
      broken_.store(true, std::memory_order_release);
    }
    closeIfBroken();
    throw;
  }

  Pending pending;
  pending.channel_ = this;
  pending.id_ = id;
  pending.reply_ = std::move(fut);
  pending.deadline_ = deadline;
  return pending;
}

Channel::Reply Channel::awaitV2(std::uint64_t id, std::future<Reply>& fut,
                                std::chrono::steady_clock::time_point
                                    deadline) {
  if (deadline == transport::Stream::kNoDeadline) return fut.get();
  if (fut.wait_until(deadline) == std::future_status::ready) return fut.get();
  if (abandonIfWaiting(id)) {
    // Reply never started arriving: abandon just this call and leave the
    // channel alone.
    static obs::Counter& timeouts = obs::counter("channel.call_timeouts");
    timeouts.add();
    throw TimeoutError("no reply within deadline (call " +
                       std::to_string(id) + ")");
  }
  // The reader is already decoding into the caller's buffers (or just
  // finished): see the reply through rather than abandon live memory —
  // but only for a bounded grace window.  A peer stalled mid-body would
  // otherwise wedge the reader in recv and this caller in get() forever.
  if (fut.wait_until(deadline + midReplyGrace()) ==
          std::future_status::ready ||
      !breakStalled(id)) {
    return fut.get();
  }
  try {
    return fut.get();
  } catch (const TransportError&) {
    throw TimeoutError("reply stalled mid-body past deadline (call " +
                       std::to_string(id) + ")");
  }
}

void Channel::abandon(std::uint64_t id, std::future<Reply>& fut) noexcept {
  if (abandonIfWaiting(id)) return;
  // Being decoded into memory the dropped exchange owns: see it through
  // within the grace window, else break the channel, and return only
  // once the reader has let go of that memory.
  if (fut.wait_for(midReplyGrace()) != std::future_status::ready) {
    breakStalled(id);
  }
  fut.wait();
}

bool Channel::abandonIfWaiting(std::uint64_t id) {
  {
    LockGuard g(pending_mutex_);
    auto it = pending_.find(id);
    if (it == pending_.end() || it->second->state != PendingCall::Waiting) {
      return false;
    }
    pending_.erase(it);
  }
  bumpInflight(-1);
  return true;
}

bool Channel::breakStalled(std::uint64_t id) {
  {
    LockGuard g(pending_mutex_);
    if (pending_.find(id) == pending_.end()) return false;  // just done
    broken_.store(true, std::memory_order_release);
  }
  static obs::Counter& stalls = obs::counter("channel.mid_reply_stalls");
  stalls.add();
  LockGuard setup(setup_mutex_);
  if (stream_) stream_->close();
  return true;
}

std::chrono::steady_clock::duration Channel::midReplyGrace() const {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(
          mid_reply_grace_s_.load(std::memory_order_relaxed)));
}

void Channel::sendV2Batched(std::uint64_t call_id,
                            common::PooledBuffer frame) {
  static obs::Counter& flushes = obs::counter("channel.batch.flushes");
  static obs::Counter& batched = obs::counter("channel.batch.frames");
  static obs::Histogram& per_writev =
      obs::histogram("channel.batch.frames_per_writev");

  UniqueLock b(batch_mutex_);
  if (broken_.load(std::memory_order_acquire)) {
    throw TransportError("channel broken");
  }
  batch_queue_.push_back(BatchItem{std::move(frame), call_id});
  // A flusher is on the wire; it owns this frame now.  Should its wave
  // fail, it closes the stream and the reader fails this call.
  if (batch_flusher_active_) return;

  // The queue is empty whenever no flusher is active, so this caller's
  // frame leads the first wave.
  batch_flusher_active_ = true;
  bool first_wave = true;
  std::vector<BatchItem> wave;
  while (!batch_queue_.empty()) {
    // Collect one writev's worth under the lock...
    std::size_t wave_bytes = 0;
    while (!batch_queue_.empty() && wave.size() < common::kBatchMaxFrames &&
           (wave.empty() || wave_bytes < common::kBatchMaxBytes)) {
      wave_bytes += batch_queue_.front().frame.size();
      wave.push_back(std::move(batch_queue_.front()));
      batch_queue_.pop_front();
    }
    b.unlock();
    // ...then send it outside, so late arrivals queue behind us instead
    // of blocking — they are the next wave.
    std::exception_ptr err;
    try {
      LockGuard g(send_mutex_);
      if (broken_.load(std::memory_order_acquire) || wire_ == nullptr) {
        throw TransportError("channel broken");
      }
      std::array<std::span<const std::uint8_t>, common::kBatchMaxFrames> iov;
      for (std::size_t i = 0; i < wave.size(); ++i) {
        iov[i] = wave[i].frame.span();
      }
      NINF_TIDY_SUPPRESS(
          "metrics-under-lock",
          "the wire write IS the send_mutex_ critical section; the "
          "transport's byte counters are cached function-local statics "
          "bumped with one relaxed atomic add, so the obs registry lock "
          "is only touched on the very first send");
      wire_->sendv({iov.data(), wave.size()});
    } catch (...) {
      err = std::current_exception();
    }
    if (err) {
      b.lock();
      // Broken before batch_mutex_ drops, so no frame joins the queue of
      // a failed wave.  Every frame already queued is dropped; closing
      // the stream makes the reader fail its call (and this wave's).
      broken_.store(true, std::memory_order_release);
      batch_queue_.clear();
      batch_flusher_active_ = false;
      b.unlock();
      closeIfBroken();
      // This caller's own frame went out with an earlier wave: its reply
      // may already be in, so it waits on the future like everyone else.
      if (first_wave) std::rethrow_exception(err);
      return;
    }
    // Bookkeeping runs after send_mutex_ drops: the obs registry lock
    // must never nest inside the wire lock other senders spin on.
    const double sent_at = obs::Tracer::nowMicros();
    {
      LockGuard p(pending_mutex_);
      for (const BatchItem& w : wave) {
        auto it = pending_.find(w.call_id);
        if (it != pending_.end()) it->second->sent_us = sent_at;
      }
    }
    flushes.add();
    batched.add(wave.size());
    per_writev.observe(static_cast<double>(wave.size()));
    first_wave = false;
    wave.clear();  // recycle the slabs before the next wave, off the lock
    b.lock();
  }
  batch_flusher_active_ = false;
}

void Channel::closeIfBroken() {
  // After a reconnect, broken_ is false again and stream_ is the new
  // connection, which must not be closed on the old one's behalf.
  LockGuard setup(setup_mutex_);
  if (broken_.load(std::memory_order_acquire) && stream_) stream_->close();
}

void Channel::erasePending(std::uint64_t id) {
  bool erased = false;
  {
    LockGuard g(pending_mutex_);
    erased = pending_.erase(id) > 0;
  }
  if (erased) bumpInflight(-1);
}

void Channel::failAllPending(std::exception_ptr error) {
  std::map<std::uint64_t, std::shared_ptr<PendingCall>> doomed;
  {
    LockGuard g(pending_mutex_);
    broken_.store(true, std::memory_order_release);
    doomed.swap(pending_);
  }
  if (doomed.empty()) return;
  bumpInflight(-static_cast<long>(doomed.size()));
  for (auto& [id, call] : doomed) {
    call->promise.set_exception(error);
  }
}

void Channel::readerLoop(transport::Stream* stream, WireMode mode) {
  try {
    for (;;) {
      const protocol::FrameHeader header = protocol::recvHeader(*stream, mode);
      std::shared_ptr<PendingCall> call;
      Reply reply;
      reply.type = header.type;
      reply.length = header.length;
      reply.call_id = header.call_id;
      {
        LockGuard g(pending_mutex_);
        auto it = pending_.find(header.call_id);
        if (it != pending_.end()) {
          call = it->second;
          call->state = PendingCall::Consuming;
          reply.sent_us = call->sent_us;
        }
      }
      protocol::BodyReader body(*stream, header.length);
      if (!call) {
        // Reply to a call whose caller already timed out and walked away.
        static obs::Counter& orphans = obs::counter("channel.orphan_replies");
        orphans.add();
        body.drain();
        continue;
      }
      try {
        call->consumer(reply, body);
        body.drain();
        reply.recv_done_us = obs::Tracer::nowMicros();
        erasePending(header.call_id);
        call->promise.set_value(reply);
      } catch (const TransportError&) {
        // Body cut short: the shared wire is gone for everyone.
        erasePending(header.call_id);
        call->promise.set_exception(std::current_exception());
        throw;
      } catch (...) {
        // Typed decode/remote error for this call only: realign framing
        // and keep serving the other calls.  If the drain itself dies,
        // the entry is still pending and failAllPending covers it.
        body.drain();
        erasePending(header.call_id);
        call->promise.set_exception(std::current_exception());
      }
    }
  } catch (const std::exception&) {
    failAllPending(std::current_exception());
  }
}

}  // namespace ninf::client
