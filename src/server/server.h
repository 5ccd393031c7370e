// The Ninf computational server.
//
// "The Ninf computational server is a process which services remote
//  computing requests of remote clients by managing the communication and
//  activation of the services requested via Ninf RPC." (section 2.1)
//
// Threading model: start() serves every connection from ONE epoll
// reactor thread (see reactor.h) feeding a staged pipeline over the
// fixed pool of `workers` execution threads — total thread count is
// O(workers), not O(connections).  A small call (common::kSmallFrameBytes)
// crosses threads once each way: its prologue (cache lookup, argument
// decode, admission) runs on the reactor thread, compute and reply
// marshalling on a worker, and the reactor writes the reply.  A larger
// frame's prologue is a worker job of its own, so a multi-megabyte
// decode never stalls the reactor.  The listener must be
// pollable; TCP listeners are, and so are fault-injection wrappers
// around them.  workers == 1 is the paper's data-parallel configuration
// (calls run one at a time, each free to use every PE internally);
// workers == P is the task-parallel configuration (up to P calls run
// concurrently, one PE each).
//
// Connections speak protocol v1 (lock-step) by default.  A client that
// opens with Hello is upgraded to v2: requests may be pipelined and
// replies go out as jobs finish (possibly out of order, correlated by
// call ID), so one connection carries up to `workers` concurrent calls.
//
// The two-phase protocol of section 5.1 is supported: SubmitRequest
// detaches the job from the connection, SubmitAck returns a job id, and
// the client fetches the result later (possibly over a new connection).
// Results nobody fetches are reaped after kPendingTtlSeconds.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "common/sync.h"
#include "protocol/call_marshal.h"
#include "protocol/message.h"
#include "server/job_queue.h"
#include "server/metrics.h"
#include "server/registry.h"
#include "server/result_cache.h"
#include "transport/transport.h"

namespace ninf::server {

class Reactor;

struct ServerOptions {
  /// Execution threads draining the job queue (see header comment).
  std::size_t workers = 1;
  QueuePolicy policy = QueuePolicy::Fcfs;
  /// Label of this server's queue-depth gauge
  /// (`server.queue.depth.<name>`); auto-generated when empty.
  std::string name = {};
  /// Reactor admission budget: staged calls in flight (admitted, reply
  /// not yet queued) before the reactor stops reading from connections.
  /// It also bounds the small-call prologues the reactor runs inline
  /// before it pauses.  0 picks max(64, workers * 16).
  std::size_t max_inflight_calls = 0;
  /// Idempotent result cache: total flattened-reply bytes retained for
  /// entries registered with the IDL `Idempotent` clause.  0 disables
  /// retention AND single-flight coalescing entirely.
  std::size_t cache_max_bytes = 64 * 1024 * 1024;
};

/// Two-phase results that were never fetched are discarded this many
/// seconds after completing.
inline constexpr double kPendingTtlSeconds = 300.0;
/// Cached idempotent replies older than this are discarded.
inline constexpr double kCacheTtlSeconds = 300.0;

class NinfServer {
 public:
  NinfServer(Registry& registry, ServerOptions options = {});
  ~NinfServer();

  NinfServer(const NinfServer&) = delete;
  NinfServer& operator=(const NinfServer&) = delete;

  /// Serve connections accepted from `listener` on the reactor thread
  /// until stop() (listener ownership is shared with the caller so tests
  /// can read the bound port).  Throws when the listener has no native
  /// handle to poll.
  void start(std::shared_ptr<transport::Listener> listener);

  /// Stop accepting, drain workers, join all threads.  Idempotent.
  void stop();

  const ServerMetrics& metrics() const { return metrics_; }

  /// One reply body.  `body` may borrow OUT array memory owned by
  /// `keepalive` (the prepared call), so the two travel together until
  /// the body is flattened into a wire frame.
  struct ReplyPayload {
    xdr::Encoder body;
    std::shared_ptr<void> keepalive;
    /// False when `body` is an error reply (status != 0); error replies
    /// are delivered to in-flight waiters but never retained in the
    /// idempotent result cache.
    bool ok = true;
  };

  /// A typed reply ready to send on whichever framing the connection
  /// negotiated.
  struct ReplyEnvelope {
    protocol::MessageType type{};
    ReplyPayload payload;
  };

 private:
  friend class Reactor;

  void workerLoop();
  void sweeperLoop();

  /// Reactor staged pipeline entry (reactor thread): a complete
  /// CallRequest/SubmitRequest frame from `conn_id`.  A small frame's
  /// prologue runs inline; a larger one's becomes a prologue job, which
  /// the job queue dispatches ahead of compute.
  void reactorStageCall(std::uint64_t conn_id, protocol::WireMode mode,
                        protocol::Frame frame);
  /// The prologue, on the reactor thread or a worker: result-cache
  /// lookup, argument decode, then admission itself — the compute job
  /// (reply marshalling included, the epilogue) onto the job queue, or
  /// the two-phase pending entry.  Replies it produces directly
  /// (SubmitAck, decode error, cached replay) go out through postReply.
  void reactorPrologue(std::uint64_t conn_id, protocol::WireMode mode,
                       protocol::Frame frame);

  /// Complete a staged call from any thread: post `reply` (followed on
  /// the wire by `payload`, when set) to the reactor, which queues it and
  /// releases the call's admission slot.
  void postReply(std::uint64_t conn_id, common::PooledBuffer reply,
                 ResultCache::Payload payload = nullptr);

  /// Compute the reply to a small control frame (everything but
  /// CallRequest/SubmitRequest) from its type and body, framing-agnostic.
  ReplyEnvelope controlReply(protocol::MessageType type,
                             std::span<const std::uint8_t> body);

  /// Emit a cached (or owner-aborted) idempotent reply for a
  /// reactor-staged call: builds this caller's own frame header and hands
  /// it to the reactor thread with the shared payload by reference, never
  /// a copy.  Callable from any thread (cache-fulfill callbacks run on the
  /// owner's thread).
  void sendCachedReply(std::uint64_t conn_id, protocol::WireMode mode,
                       const protocol::FrameHeader& header,
                       ResultCache::Payload payload);

  /// Drop ready-but-unfetched results older than the TTL.
  void sweepPending();
  void updatePendingGauge(std::size_t count);

  struct PendingResult {
    bool ready = false;
    double ready_time = 0.0;  // server-clock seconds when completed
    ReplyPayload reply;
  };

  Registry& registry_;
  ServerOptions options_;
  ServerMetrics metrics_;
  /// Idempotent result cache (null when cache_max_bytes == 0), consulted
  /// by the staged pipeline's prologue.
  std::unique_ptr<ResultCache> cache_;
  JobQueue queue_;
  std::vector<std::thread> workers_;  // created in ctor, joined in stop()
  std::shared_ptr<transport::Listener> listener_;
  /// Event-driven connection core, created by start().  stop() quiesces
  /// it, but the object lives until destruction so job lambdas still in
  /// workers can safely post (their posts are dropped).
  std::unique_ptr<Reactor> reactor_;
  std::thread sweeper_;
  std::atomic<bool> stopping_{false};
  /// Pairs sweeper_cv_ with the stopping_ flag (no guarded state of its
  /// own): the empty critical section in stop() fences the flag write
  /// against the sweeper's predicate check.
  Mutex sweeper_mutex_{"server.sweeper"};
  CondVar sweeper_cv_;
  std::atomic<std::uint64_t> next_job_id_{1};
  Mutex pending_mutex_{"server.pending"};
  std::map<std::uint64_t, PendingResult> pending_
      NINF_GUARDED_BY(pending_mutex_);
};

}  // namespace ninf::server
