// Event-driven server core: a single epoll reactor owning every
// connection fd, feeding a staged execution pipeline.
//
//   ┌─────────── reactor thread (solo) ────────────┐
//   │ epoll_wait → accept / read / write readiness │
//   │ frame reassembly → dispatch (bounded         │
//   │   in-flight) → small-frame prologue          │
//   │ reply write queues → non-blocking writev     │
//   └──────▲───────────────────────────┬───────────┘
//          │ postSolo (eventfd wakeup) │ queue_.push
//   ┌──────┴───────────────────────────▼───────────┐
//   │ worker pool: large-frame prologue, and       │
//   │ compute + epilogue (result marshal into      │
//   │ owned wire buffers), both stateless          │
//   └──────────────────────────────────────────────┘
//
// The prologue (cache lookup, argument decode, admission onto the job
// queue) touches only thread-safe server state, so it runs inline on
// this thread for a small frame and as a worker job for a large one;
// either way it enqueues the compute job itself.  A small call thus
// crosses threads once each way.
//
// The reactor thread is the only thread that touches connection state
// (fds, reassembly buffers, write queues); workers communicate with it
// exclusively through postSolo().  One thread serves every connection,
// so an idle connection costs one epoll registration — no reader
// thread, no writer thread — and server thread count is O(workers),
// not O(connections).
//
// Backpressure: when the number of staged calls in flight reaches the
// admission budget, the reactor stops reading from connections (their
// EPOLLIN interest is dropped) until completions drain — the kernel
// socket buffers and the peer's congestion window absorb the excess.
// The same budget bounds the prologues run inline between two waits.
//
// v1 clients are served through the same reactor with a per-connection
// serialization fallback: a v1 frame that enters the staged pipeline
// marks the connection busy and no further frames are parsed until its
// reply is queued, preserving lock-step reply order.  A v1 peer that
// pipelines behind the hold also stops being read until it lifts, so
// its extra frames wait in the kernel's socket buffers.
//
// Linux only (epoll).  The listener and every stream it accepts must
// expose a pollable native handle and the non-blocking stream ops; TCP
// and in-process socket streams do, and so do fault-injection wrappers
// around them.  The constructor rejects a listener without a handle.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "common/sync.h"
#include "protocol/message.h"
#include "server/result_cache.h"
#include "transport/transport.h"

namespace ninf::server {

class NinfServer;

class Reactor {
 public:
  struct Options {
    /// Staged calls in flight (dispatched, reply not yet queued) before
    /// the reactor stops reading from connections.
    std::size_t max_inflight = 256;
  };

  /// Spawns the reactor thread.  `listener` must expose a native
  /// handle.  The reactor serves connections by calling back into
  /// `server` (frame dispatch, staged pipeline) on the reactor thread.
  Reactor(NinfServer& server, std::shared_ptr<transport::Listener> listener,
          Options options);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Close every connection, unblock and join the loop thread; further
  /// postSolo() calls are dropped.  Idempotent.
  void stop();

  /// Hand a task to the solo stage: `fn` runs on the reactor thread in
  /// post order.  Thread-safe; the wakeup is coalesced (one eventfd
  /// write per burst).  Dropped silently after stop() — a worker
  /// finishing during shutdown has nowhere to send its reply anyway.
  void postSolo(std::function<void()> fn);

  // ---- reactor-thread-only API (solo tasks, frame handlers) ---------

  /// Append one marshalled frame to `conn_id`'s write queue: `frame`,
  /// then `payload` when set.  A cached reply is its own header plus the
  /// result cache's payload, shared by reference, so N queued replies of
  /// one entry hold one copy of its bytes.  The actual writev is deferred
  /// to the end of the current loop iteration so every frame queued in
  /// one wakeup burst leaves in a single coalesced sendvNowait (bounded
  /// by common::kBatchMaxFrames and common::kBatchMaxBytes).  Unknown
  /// ids (connection died) are dropped.  Not part of staged-call
  /// bookkeeping.
  void queueReply(std::uint64_t conn_id, common::PooledBuffer frame,
                  ResultCache::Payload payload = nullptr);

  /// Complete one staged call on `conn_id`: queue `reply` and `payload`
  /// as queueReply does (an empty `reply` = no reply, the call was
  /// aborted), release its admission slot, lift the v1 lock-step hold,
  /// and resume paused reads if the budget allows.  A connection that
  /// died meanwhile drops the reply: a client that vanishes while its
  /// call waits or computes costs only that compute.
  void finishStagedCall(std::uint64_t conn_id, common::PooledBuffer reply,
                        ResultCache::Payload payload);

 private:
  /// One queued reply frame: `bytes` (a whole frame, or a cached
  /// reply's header), then `payload` when set.  `off` is the flushed
  /// prefix of the two together: a short sendvNowait advances it in
  /// place, so a retry resumes exactly where the kernel stopped, on
  /// either side of the header/payload boundary — a slow reader sees
  /// each byte once even when a flush concatenates many frames.
  struct OutBuf {
    common::PooledBuffer bytes;
    ResultCache::Payload payload;
    std::size_t off = 0;

    std::size_t size() const {
      return bytes.size() + (payload ? payload->size() : 0);
    }
  };

  /// Per-connection state; touched only by the reactor thread.
  struct Conn {
    std::uint64_t id = 0;
    std::unique_ptr<transport::Stream> stream;
    int fd = -1;
    protocol::FrameAssembler assembler;
    protocol::WireMode mode = protocol::WireMode::V1;
    std::deque<OutBuf> writeq;
    /// Staged calls dispatched but not yet replied.
    std::size_t staged_inflight = 0;
    /// v1 lock-step serialization: a staged v1 call is in flight, stop
    /// parsing frames until its reply is queued.
    bool v1_busy = false;
    /// EPOLLIN interest dropped for admission backpressure, or for a v1
    /// hold with bytes already buffered behind it.
    bool paused = false;
    bool want_write = false;  // EPOLLOUT armed
    bool read_open = true;    // peer's send side still delivering
    bool dead = false;        // write side failed: drop everything
    /// Queued replies await the end-of-iteration coalesced flush.
    bool flush_queued = false;
  };

  // The event loop and everything it calls run on the reactor thread;
  // NINF_REACTOR_CONTEXT marks the roots ninf-tidy walks the call
  // graph from (lambdas posted through postSolo are picked up
  // automatically).
  void loop() NINF_REACTOR_CONTEXT;
  void handleAccept() NINF_REACTOR_CONTEXT;
  void handleConnEvent(Conn& conn, std::uint32_t events)
      NINF_REACTOR_CONTEXT;
  void readReadable(Conn& conn);
  void processFrames(Conn& conn);
  void dispatchFrame(Conn& conn, protocol::Frame frame)
      NINF_REACTOR_CONTEXT;
  void handleHello(Conn& conn, const protocol::Frame& frame);
  void flushConn(Conn& conn);
  void markFlush(Conn& conn);
  /// Flush every connection marked by queueReply this iteration (runs
  /// after the final drainSolo, before the next epoll_wait).
  void flushPending() NINF_REACTOR_CONTEXT;
  void updateEpoll(Conn& conn);
  void pauseReading(Conn& conn);
  void resumeReads();
  /// Destroy now or mark for destruction once in-flight work drains.
  void maybeDestroy(std::uint64_t conn_id);
  void destroyConn(std::uint64_t conn_id);
  void killConn(Conn& conn);  // write/read failure: close + drop queues
  void drainSolo() NINF_REACTOR_CONTEXT;
  void updateFdGauge() const;

  NinfServer& server_;
  std::shared_ptr<transport::Listener> listener_;
  const Options options_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool accept_registered_ = false;
  /// stop() asked the loop to exit (reactor-thread flag, set via a solo
  /// task so it is observed at a frame boundary).
  bool exit_requested_ = false;
  /// Monotonic-clock second when accepting resumes after fd exhaustion
  /// (0 = not backing off).
  double accept_resume_at_ = 0.0;

  std::map<std::uint64_t, Conn> conns_;
  /// Connections with replies queued since the last flushPending().
  std::vector<std::uint64_t> flush_pending_;
  std::uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wakeup
  /// Total staged calls in flight across live connections (admission).
  std::size_t staged_total_ = 0;
  /// Marshalled reply buffers queued but not fully written (epilogue
  /// backlog, mirrored in server.reactor.stage_depth.epilogue).
  std::size_t epilogue_depth_ = 0;

  /// Hand-off queue from workers to the solo stage.  Leaf lock: nothing
  /// else is ever acquired while holding it.
  mutable Mutex solo_mutex_{"server.reactor.solo"};
  std::deque<std::function<void()>> solo_queue_ NINF_GUARDED_BY(solo_mutex_);
  bool stopped_ NINF_GUARDED_BY(solo_mutex_) = false;

  std::thread thread_;
};

}  // namespace ninf::server
