#include "server/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/batch.h"
#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "transport/net_tuning.h"
#include "xdr/xdr.h"

namespace ninf::server {

using protocol::Frame;
using protocol::MessageType;
using protocol::WireMode;

namespace {

double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Resolved once: a by-name lookup allocates its key and takes the obs
/// registry lock, and the epilogue gauge moves on every reply.
obs::Gauge& epilogueDepthGauge() {
  static obs::Gauge& gauge =
      obs::gauge("server.reactor.stage_depth.epilogue");
  return gauge;
}

}  // namespace

Reactor::Reactor(NinfServer& server,
                 std::shared_ptr<transport::Listener> listener,
                 Options options)
    : server_(server), listener_(std::move(listener)), options_(options) {
  NINF_REQUIRE(listener_ != nullptr, "reactor needs a listener");
  NINF_REQUIRE(listener_->nativeHandle() >= 0,
               "reactor needs a pollable listener");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw TransportError("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw TransportError("eventfd failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 1;  // wakeup
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // listener
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_->nativeHandle(), &ev) ==
      0) {
    accept_registered_ = true;
  }
  thread_ = std::thread([this] { loop(); });
}

Reactor::~Reactor() { stop(); }

void Reactor::stop() {
  {
    LockGuard g(solo_mutex_);
    if (stopped_) {
      // A racing second stop() must still not return before the join.
    } else {
      solo_queue_.push_back([this] { exit_requested_ = true; });
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    }
  }
  if (thread_.joinable()) thread_.join();
  {
    LockGuard g(solo_mutex_);
    if (stopped_) return;
    stopped_ = true;
    solo_queue_.clear();
  }
  // No thread can reach the fds any more: the loop exited and postSolo
  // now drops before touching wake_fd_.
  conns_.clear();
  updateFdGauge();
  ::close(wake_fd_);
  ::close(epoll_fd_);
  wake_fd_ = epoll_fd_ = -1;
}

void Reactor::postSolo(std::function<void()> fn) {
  static obs::Counter& wakeups = obs::counter("server.reactor.wakeups");
  bool woke = false;
  {
    LockGuard g(solo_mutex_);
    if (stopped_) return;
    const bool need_wake = solo_queue_.empty();
    solo_queue_.push_back(std::move(fn));
    if (need_wake) {
      // Coalesced: the loop drains the whole queue per wakeup, so only
      // the empty -> non-empty transition needs an eventfd write.
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
      woke = true;
    }
  }
  // The counter nests the obs registry lock on first touch; keep that
  // (and the atomic add) off the solo queue's critical section.
  if (woke) wakeups.add();
}

void Reactor::drainSolo() {
  std::deque<std::function<void()>> batch;
  {
    LockGuard g(solo_mutex_);
    batch.swap(solo_queue_);
  }
  static obs::Gauge& solo_depth =
      obs::gauge("server.reactor.stage_depth.solo");
  solo_depth.set(static_cast<double>(batch.size()));
  for (auto& fn : batch) fn();
}

void Reactor::loop() {
  std::array<epoll_event, 64> events;
  while (!exit_requested_) {
    int timeout_ms = -1;
    if (accept_resume_at_ > 0.0) {
      const double left = accept_resume_at_ - monotonicSeconds();
      if (left <= 0.0) {
        // Re-arm the listener after fd-exhaustion backoff; level
        // triggering re-reports any connections that queued meanwhile.
        accept_resume_at_ = 0.0;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = 0;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_->nativeHandle(),
                        &ev) == 0) {
          accept_registered_ = true;
        }
      } else {
        timeout_ms = std::max(1, static_cast<int>(left * 1000.0));
      }
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      NINF_LOG(Warn) << "reactor epoll_wait failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n && !exit_requested_; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == 0) {
        handleAccept();
      } else if (id == 1) {
        std::uint64_t counter = 0;
        [[maybe_unused]] ssize_t r =
            ::read(wake_fd_, &counter, sizeof(counter));
        drainSolo();
      } else {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;  // destroyed earlier this batch
        handleConnEvent(it->second, events[i].events);
        maybeDestroy(id);
      }
    }
    // Replies posted by workers while this thread was busy dispatching
    // would otherwise wait a full epoll round behind their own wakeup.
    drainSolo();
    // Every reply queued during this iteration — frame dispatch, solo
    // drains, resumed reads — leaves now in one coalesced writev per
    // connection, before the loop blocks again.
    flushPending();
  }
}

void Reactor::handleAccept() {
  for (;;) {
    transport::AcceptStatus status{};
    std::unique_ptr<transport::Stream> stream;
    try {
      stream = listener_->tryAccept(status);
    } catch (const Error& e) {
      NINF_LOG(Warn) << "reactor accept failed: " << e.what();
      return;
    }
    switch (status) {
      case transport::AcceptStatus::Accepted: {
        if (!stream->setNonBlocking(true) || stream->nativeHandle() < 0) {
          NINF_LOG(Warn) << "reactor: dropping connection without a "
                            "non-blocking native handle";
          break;
        }
        const std::uint64_t id = next_conn_id_++;
        Conn conn;
        conn.id = id;
        conn.fd = stream->nativeHandle();
        conn.assembler = protocol::FrameAssembler(stream->peerName());
        conn.stream = std::move(stream);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = id;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) != 0) {
          NINF_LOG(Warn) << "reactor: epoll_ctl ADD failed: "
                         << std::strerror(errno);
          break;
        }
        conns_.emplace(id, std::move(conn));
        updateFdGauge();
        break;
      }
      case transport::AcceptStatus::WouldBlock:
        return;
      case transport::AcceptStatus::Closed:
        // Shutdown path: the listener fd is gone (closing it removed it
        // from the epoll set); keep serving established connections.
        accept_registered_ = false;
        return;
      case transport::AcceptStatus::Exhausted:
        // Out of fds.  Stop watching the listener and retry after a
        // pause; established connections keep their fds and keep going.
        if (accept_registered_) {
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_->nativeHandle(),
                      nullptr);
          accept_registered_ = false;
        }
        accept_resume_at_ =
            monotonicSeconds() + transport::kAcceptBackoffSeconds;
        return;
    }
  }
}

void Reactor::handleConnEvent(Conn& conn, std::uint32_t events) {
  if (events & EPOLLERR) {
    killConn(conn);
    return;
  }
  if (conn.read_open && (events & (EPOLLIN | EPOLLHUP))) {
    readReadable(conn);
  }
  if ((events & EPOLLHUP) && (!conn.read_open || conn.paused)) {
    // Hung up in both directions, with every byte read or reads paused
    // (admission budget, v1 hold): nothing can be delivered to the peer,
    // and epoll would report the hang-up again on every wait for as long
    // as a staged call computes or the pause lasts.
    killConn(conn);
    return;
  }
  if (!conn.dead && (events & EPOLLOUT)) {
    flushConn(conn);
  }
}

void Reactor::readReadable(Conn& conn) {
  std::array<std::uint8_t, 64 * 1024> buf;
  while (!conn.dead && !conn.paused) {
    // A body with more left than one bounce read is received in place,
    // straight into its slab, when the assembler holds one for it.
    // Headers, small frames and a body's last stretch go through the
    // bounce buffer, so one read can still end a body and start the next
    // frame.
    const std::span<std::uint8_t> body = conn.assembler.bodySpace();
    const bool in_place = body.size() > buf.size();
    const std::span<std::uint8_t> dst =
        in_place ? body : std::span<std::uint8_t>(buf);
    std::size_t n = 0;
    try {
      n = conn.stream->recvNowait(dst);
    } catch (const Error&) {
      // EOF or read error: the peer is done sending.  Replies still owed
      // flush out before the connection is destroyed.
      conn.read_open = false;
      updateEpoll(conn);  // drop EPOLLIN interest for good
      return;
    }
    if (n == 0) return;  // EAGAIN: kernel buffer drained
    if (in_place) {
      conn.assembler.commitBody(n);
    } else {
      conn.assembler.feed(dst.first(n));
    }
    processFrames(conn);
    if (n < dst.size()) return;  // short read: likely drained
  }
}

void Reactor::processFrames(Conn& conn) {
  while (!conn.dead) {
    // v1 lock-step: one staged call at a time, replies in frame order.
    // Bytes a v1 peer pipelines behind the staged call stay in the
    // kernel until the hold lifts; a lock-step peer has none buffered
    // here, so it never pays for the pause.
    if (conn.v1_busy) {
      if (conn.assembler.buffered() > 0) pauseReading(conn);
      return;
    }
    if (staged_total_ >= options_.max_inflight) {
      pauseReading(conn);
      return;
    }
    std::optional<Frame> frame;
    try {
      frame = conn.assembler.next();
    } catch (const Error& e) {
      NINF_LOG(Warn) << "connection from " << conn.stream->peerName()
                     << " aborted: " << e.what();
      killConn(conn);
      return;
    }
    if (!frame) return;
    dispatchFrame(conn, std::move(*frame));
  }
}

void Reactor::dispatchFrame(Conn& conn, Frame frame) {
  try {
    switch (frame.header.type) {
      case MessageType::Hello:
        handleHello(conn, frame);
        return;
      case MessageType::CallRequest:
      case MessageType::SubmitRequest: {
        protocol::noteWireBuffer(frame.body.size());
        ++conn.staged_inflight;
        ++staged_total_;
        if (conn.mode == WireMode::V1) conn.v1_busy = true;
        server_.reactorStageCall(conn.id, conn.mode, std::move(frame));
        return;
      }
      default: {
        // Small control messages: compute the reply inline on the
        // reactor thread (registry/pending lookups, no compute).
        protocol::noteWireBuffer(frame.body.size());
        NinfServer::ReplyEnvelope env =
            server_.controlReply(frame.header.type, frame.body.span());
        queueReply(conn.id,
                   protocol::flattenFramePooled(conn.mode, env.type,
                                                frame.header.call_id,
                                                frame.header.trace,
                                                env.payload.body));
        return;
      }
    }
  } catch (const Error& e) {
    NINF_LOG(Warn) << "connection from " << conn.stream->peerName()
                   << " aborted: " << e.what();
    killConn(conn);
  }
}

void Reactor::handleHello(Conn& conn, const Frame& frame) {
  static obs::Counter& upgrades = obs::counter("server.v2_connections");
  xdr::Decoder dec(frame.body.span());
  // The compute server implements the trace extension only; the sharding
  // control plane lives on metaserver nodes.
  const protocol::HelloAck ack =
      protocol::answerHello(protocol::Hello::decode(dec),
                            protocol::kMaxVersion,
                            protocol::kFeatureTraceContext);
  xdr::Encoder enc;
  ack.encode(enc);
  // The ack itself travels in the pre-upgrade framing; the new mode
  // applies from the next frame in both directions.
  queueReply(conn.id,
             protocol::flattenFramePooled(conn.mode, MessageType::HelloAck,
                                          frame.header.call_id,
                                          frame.header.trace, enc));
  const WireMode mode =
      protocol::wireModeFor(ack.version, ack.features.value_or(0));
  if (mode != WireMode::V1) {
    upgrades.add();
    conn.mode = mode;
    conn.assembler.setMode(mode);
  }
}

void Reactor::queueReply(std::uint64_t conn_id, common::PooledBuffer frame,
                         ResultCache::Payload payload) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;
  it->second.writeq.push_back(OutBuf{std::move(frame), std::move(payload)});
  ++epilogue_depth_;
  epilogueDepthGauge().set(static_cast<double>(epilogue_depth_));
  // No immediate flush: frames queued in the same wakeup burst coalesce
  // into one writev at the end of the loop iteration (flushPending).
  markFlush(it->second);
}

void Reactor::finishStagedCall(std::uint64_t conn_id,
                               common::PooledBuffer reply,
                               ResultCache::Payload payload) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    // The connection died mid-call; its staged budget was released by
    // destroyConn.  The reply has nowhere to go.
    return;
  }
  Conn& conn = it->second;
  if (conn.staged_inflight > 0) {
    --conn.staged_inflight;
    --staged_total_;
  }
  conn.v1_busy = false;
  if (!reply.empty() && !conn.dead) {
    queueReply(conn_id, std::move(reply), std::move(payload));
  }
  // The freed admission slot (and, for v1, the lifted lock-step hold)
  // may unblock frames already sitting in reassembly buffers.
  if (!conn.dead && !conn.paused) processFrames(conn);
  resumeReads();
  maybeDestroy(conn_id);
}

void Reactor::markFlush(Conn& conn) {
  if (conn.flush_queued) return;
  conn.flush_queued = true;
  flush_pending_.push_back(conn.id);
}

void Reactor::flushPending() {
  // Index loop: flushConn -> maybeDestroy -> resumeReads can queue more
  // replies, which append to flush_pending_ mid-iteration.
  for (std::size_t i = 0; i < flush_pending_.size(); ++i) {
    auto it = conns_.find(flush_pending_[i]);
    if (it == conns_.end()) continue;
    it->second.flush_queued = false;
    flushConn(it->second);
    maybeDestroy(it->first);
  }
  flush_pending_.clear();
}

void Reactor::flushConn(Conn& conn) {
  if (conn.dead) return;
  static obs::Counter& flushes = obs::counter("server.reactor.batch.flushes");
  static obs::Counter& frames = obs::counter("server.reactor.batch.frames");
  static obs::Histogram& per_writev =
      obs::histogram("server.reactor.batch.frames_per_writev");
  while (!conn.writeq.empty()) {
    // Coalesce up to kBatchMaxFrames queued frames (bounded by the byte
    // budget, always at least one) into a single vectored send.  A frame
    // with a shared payload takes two iovecs while its header is unsent.
    std::array<std::span<const std::uint8_t>, 2 * common::kBatchMaxFrames>
        iov;
    std::size_t count = 0;   // iovecs
    std::size_t framed = 0;  // frames they carry
    std::size_t bytes = 0;
    for (const OutBuf& buf : conn.writeq) {
      if (framed == common::kBatchMaxFrames) break;
      if (framed > 0 && bytes >= common::kBatchMaxBytes) break;
      ++framed;
      const std::span<const std::uint8_t> head = buf.bytes.span();
      const std::span<const std::uint8_t> tail =
          buf.payload ? std::span<const std::uint8_t>(*buf.payload)
                      : std::span<const std::uint8_t>();
      if (buf.off < head.size()) {
        iov[count++] = head.subspan(buf.off);
        if (!tail.empty()) iov[count++] = tail;
      } else {
        iov[count++] = tail.subspan(buf.off - head.size());
      }
      bytes += buf.size() - buf.off;
    }
    std::size_t sent = 0;
    try {
      sent = conn.stream->sendvNowait(
          std::span<const std::span<const std::uint8_t>>(iov.data(), count));
    } catch (const Error& e) {
      NINF_LOG(Debug) << "reply send failed: " << e.what();
      killConn(conn);
      return;
    }
    if (sent == 0) break;  // kernel buffer full
    // A flush is a send that moved bytes; a frame counts once, when its
    // last byte goes out.
    std::size_t done = 0;
    while (sent > 0 && !conn.writeq.empty()) {
      OutBuf& front = conn.writeq.front();
      const std::size_t left = front.size() - front.off;
      if (sent >= left) {
        sent -= left;
        conn.writeq.pop_front();
        --epilogue_depth_;
        ++done;
      } else {
        // Short write: advance the per-frame offset so the retry
        // resumes mid-frame, in its header or its payload — never
        // re-sends flushed bytes.
        front.off += sent;
        sent = 0;
      }
    }
    flushes.add();
    frames.add(done);
    per_writev.observe(static_cast<double>(done));
  }
  epilogueDepthGauge().set(static_cast<double>(epilogue_depth_));
  const bool want_write = !conn.writeq.empty();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    updateEpoll(conn);
  }
}

void Reactor::updateEpoll(Conn& conn) {
  epoll_event ev{};
  ev.events = (conn.paused || !conn.read_open ? 0u : EPOLLIN) |
              (conn.want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Reactor::pauseReading(Conn& conn) {
  if (conn.paused) return;
  conn.paused = true;
  updateEpoll(conn);
}

void Reactor::resumeReads() {
  if (staged_total_ >= options_.max_inflight) return;
  // Collect first: processFrames on a resumed connection can stage new
  // work, kill the connection, or re-pause it — all of which mutate the
  // map or the pause set mid-iteration.
  std::vector<std::uint64_t> paused;
  for (auto& [id, conn] : conns_) {
    // A v1 hold keeps its connection paused until finishStagedCall.
    if (conn.paused && !conn.v1_busy) paused.push_back(id);
  }
  for (std::uint64_t id : paused) {
    if (staged_total_ >= options_.max_inflight) return;
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn& conn = it->second;
    conn.paused = false;
    updateEpoll(conn);
    // Frames that arrived before the pause may be fully buffered; epoll
    // will not re-report bytes already read off the socket.
    processFrames(conn);
    maybeDestroy(id);
  }
}

void Reactor::killConn(Conn& conn) {
  if (conn.dead) return;
  conn.dead = true;
  conn.read_open = false;
  epilogue_depth_ -= conn.writeq.size();
  conn.writeq.clear();
  // Closing the fd drops it from the epoll set.
  conn.stream->close();
}

void Reactor::maybeDestroy(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  const Conn& conn = it->second;
  if (conn.dead) {
    destroyConn(conn_id);
    return;
  }
  // Graceful close: peer finished sending, every admitted call replied,
  // every reply flushed.  Buffered reassembly bytes only defer this for
  // a PAUSED connection (they may hold complete frames the admission
  // budget will let through); otherwise processFrames already consumed
  // every complete frame, so leftovers are a dead partial frame.
  if (!conn.read_open && conn.writeq.empty() && conn.staged_inflight == 0 &&
      (!conn.paused || conn.assembler.buffered() == 0)) {
    destroyConn(conn_id);
  }
}

void Reactor::destroyConn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  // Release budget still held by in-flight staged calls; their eventual
  // finishStagedCall finds no connection and releases nothing.
  staged_total_ -= std::min(staged_total_, conn.staged_inflight);
  epilogue_depth_ -= std::min(epilogue_depth_, conn.writeq.size());
  conns_.erase(it);
  updateFdGauge();
  epilogueDepthGauge().set(static_cast<double>(epilogue_depth_));
  resumeReads();
}

void Reactor::updateFdGauge() const {
  static obs::Gauge& fds = obs::gauge("server.reactor.fds");
  fds.set(static_cast<double>(conns_.size()));
}

}  // namespace ninf::server
