#include "server/server.h"

#include <algorithm>

#include "common/batch.h"
#include "common/buffer_pool.h"
#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/reactor.h"
#include "xdr/xdr.h"

namespace ninf::server {

using protocol::CallTimings;
using protocol::MessageType;

NinfServer::NinfServer(Registry& registry, ServerOptions options)
    : registry_(registry),
      options_(options),
      queue_(options.policy, options.name) {
  NINF_REQUIRE(options_.workers >= 1, "server needs at least one worker");
  if (options_.cache_max_bytes > 0) {
    cache_ = std::make_unique<ResultCache>(
        ResultCache::Options{options_.cache_max_bytes, kCacheTtlSeconds});
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  sweeper_ = std::thread([this] { sweeperLoop(); });
}

NinfServer::~NinfServer() { stop(); }

void NinfServer::start(std::shared_ptr<transport::Listener> listener) {
  NINF_REQUIRE(listener != nullptr, "null listener");
  NINF_REQUIRE(!listener_, "server already started");
  Reactor::Options ropts;
  ropts.max_inflight = options_.max_inflight_calls > 0
                           ? options_.max_inflight_calls
                           : std::max<std::size_t>(64, options_.workers * 16);
  reactor_ = std::make_unique<Reactor>(*this, listener, ropts);
  listener_ = std::move(listener);
}

void NinfServer::stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  if (listener_) listener_->close();
  // Quiesce the reactor before closing the job queue: the loop exits,
  // connections drop, and posts from jobs still running in workers turn
  // into no-ops.  The Reactor object itself stays alive until the
  // server is destroyed so those jobs always have a valid target.
  if (reactor_) reactor_->stop();
  queue_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  {
    LockGuard lk(sweeper_mutex_);
  }
  sweeper_cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
}

void NinfServer::workerLoop() {
  while (auto job = queue_.pop()) {
    job->run();
  }
}

void NinfServer::sweeperLoop() {
  // Expired results linger at most a second past the TTL.
  constexpr auto period = std::chrono::seconds(1);
  UniqueLock lk(sweeper_mutex_);
  while (!stopping_.load()) {
    sweeper_cv_.wait_for(lk, period, [this] { return stopping_.load(); });
    if (stopping_.load()) break;
    lk.unlock();
    sweepPending();
    lk.lock();
  }
}

void NinfServer::sweepPending() {
  // Destroy expired payloads outside the lock — keepalives may hold
  // sizeable OUT arrays.
  std::vector<ReplyPayload> expired;
  std::size_t count = 0;
  const double now = metrics_.now();
  {
    LockGuard lock(pending_mutex_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.ready &&
          now - it->second.ready_time > kPendingTtlSeconds) {
        expired.push_back(std::move(it->second.reply));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    count = pending_.size();
  }
  if (!expired.empty()) {
    static obs::Counter& reaped = obs::counter("server.pending_expired");
    reaped.add(expired.size());
    NINF_LOG(Debug) << "reaped " << expired.size()
                    << " unfetched two-phase results";
  }
  updatePendingGauge(count);
  if (cache_) cache_->sweep();
}

void NinfServer::updatePendingGauge(std::size_t count) {
  // Per-server gauge, same naming scheme as server.queue.depth.<name>.
  obs::gauge("server.pending_results." + queue_.name())
      .set(static_cast<double>(count));
}

NinfServer::ReplyEnvelope NinfServer::controlReply(
    MessageType type, std::span<const std::uint8_t> body) {
  switch (type) {
    case MessageType::QueryInterface: {
      xdr::Decoder dec(body);
      const std::string name = dec.getString();
      xdr::Encoder enc;
      if (registry_.contains(name)) {
        enc.putBool(true);
        registry_.find(name).info.encode(enc);
      } else {
        enc.putBool(false);
      }
      return {MessageType::InterfaceReply, {std::move(enc), nullptr}};
    }
    case MessageType::FetchResult: {
      xdr::Decoder dec(body);
      const std::uint64_t id = dec.getU64();
      UniqueLock lock(pending_mutex_);
      auto it = pending_.find(id);
      if (it == pending_.end()) {
        lock.unlock();
        xdr::Encoder err;
        err.putRaw(protocol::encodeErrorReply("unknown job id " +
                                              std::to_string(id)));
        return {MessageType::CallReply, {std::move(err), nullptr}};
      }
      if (!it->second.ready) {
        lock.unlock();
        return {MessageType::ResultPending, {xdr::Encoder{}, nullptr}};
      }
      ReplyPayload reply = std::move(it->second.reply);
      pending_.erase(it);
      const std::size_t count = pending_.size();
      lock.unlock();
      updatePendingGauge(count);
      return {MessageType::CallReply, std::move(reply)};
    }
    case MessageType::ListExecutables: {
      xdr::Encoder enc;
      const auto names = registry_.names();
      enc.putU32(static_cast<std::uint32_t>(names.size()));
      for (const auto& n : names) enc.putString(n);
      return {MessageType::ExecutableList, {std::move(enc), nullptr}};
    }
    case MessageType::ServerStatus: {
      // One consistent snapshot: a poll racing a job transition must not
      // see a (running, queued, load) triple that never existed.
      const ServerMetrics::Snapshot snap = metrics_.snapshot();
      protocol::ServerStatusInfo info;
      info.running = snap.running;
      info.queued = snap.queued;
      info.completed = snap.completed;
      info.load_average = snap.load_average;
      xdr::Encoder enc;
      enc.putRaw(info.toBytes());
      return {MessageType::StatusReply, {std::move(enc), nullptr}};
    }
    case MessageType::Ping: {
      xdr::Encoder enc;
      enc.putRaw(body);
      return {MessageType::Pong, {std::move(enc), nullptr}};
    }
    default:
      throw ProtocolError("unexpected message type " +
                          std::to_string(static_cast<unsigned>(type)));
  }
}

namespace {

/// Decoded call bound to its executable, ready for queueing.
struct PreparedCall {
  const NinfExecutable* exec = nullptr;
  protocol::ServerCallData data;
  double estimated_flops = 0.0;
};

/// Decode a call from its reassembled frame body into ServerCallData
/// storage, bound to the named executable.
PreparedCall prepare(Registry& registry, xdr::Source& src) {
  const std::string name = src.getString();
  PreparedCall call;
  call.exec = &registry.find(name);
  call.data = protocol::decodeCallArgs(call.exec->info, src);
  call.estimated_flops = static_cast<double>(
      call.exec->info.flopsEstimate(call.data.scalar_ints));
  return call;
}

NinfServer::ReplyPayload errorReply(const std::string& message) {
  xdr::Encoder enc;
  enc.putU32(1);  // status: error
  enc.putString(message);
  return {std::move(enc), nullptr, /*ok=*/false};
}

/// Alloc-free peek at the entry name leading a CallRequest body (XDR
/// string: big-endian u32 length, then the bytes).  Empty on malformed
/// input — the argument decoder produces the real error in that case.
std::string_view peekCallName(std::span<const std::uint8_t> body) {
  if (body.size() < 4) return {};
  const std::uint32_t len = (std::uint32_t{body[0]} << 24) |
                            (std::uint32_t{body[1]} << 16) |
                            (std::uint32_t{body[2]} << 8) |
                            std::uint32_t{body[3]};
  if (len > body.size() - 4) return {};
  return {reinterpret_cast<const char*>(body.data()) + 4, len};
}

/// Materialize a reply body (owned + borrowed OUT segments) into the
/// shared immutable unit the result cache retains and replays.
ResultCache::Payload materializeReply(const NinfServer::ReplyPayload& reply) {
  auto bytes = std::make_shared<std::vector<std::uint8_t>>();
  bytes->reserve(reply.body.size());
  reply.body.appendTo(*bytes);
  return bytes;
}

/// Worker-side execution of a prepared call: the shared body of the
/// staged-call and two-phase paths.  Records the server's ground-truth
/// queue-wait and compute phases (span + histogram) alongside the
/// timings shipped back to the client.  When the caller installed a
/// propagated trace context (ScopedTraceContext), the spans join the
/// client's trace; `call_id` (0 = v1, no id) annotates them for
/// cross-referencing with logs and channel counters.
NinfServer::ReplyPayload runPreparedCall(ServerMetrics& metrics,
                                         PreparedCall& call,
                                         double enqueue_time,
                                         std::uint64_t call_id = 0) {
  CallTimings timings;
  timings.enqueue = enqueue_time;
  timings.dequeue = metrics.now();
  metrics.jobStarted();

  const double wait_s = std::max(0.0, timings.dequeue - timings.enqueue);
  static obs::Histogram& wait_hist =
      obs::histogram("server.queue_wait_seconds");
  wait_hist.observe(wait_s);
  if (obs::Tracer::instance().enabled()) {
    // The wait already elapsed; anchor the span so it ends now.
    // emitSpan does not inherit the ambient context, so attach the
    // propagated trace (if any) explicitly.
    const obs::TraceContext ctx = obs::currentContext();
    obs::SpanRecord rec;
    rec.trace_id = ctx.trace_id;
    rec.parent_id = ctx.parent_span;
    rec.name = obs::phase::kServerQueueWait;
    rec.dur_us = wait_s * 1e6;
    rec.start_us = obs::Tracer::nowMicros() - rec.dur_us;
    rec.call_id = call_id;
    rec.detail = call.exec->info.name;
    obs::emitSpan(std::move(rec));
  }

  NinfServer::ReplyPayload reply;
  try {
    CallContext ctx(call.exec->info, call.data);
    {
      obs::Span compute(obs::phase::kServerCompute);
      compute.setDetail(call.exec->info.name);
      compute.setCallId(call_id);
      call.exec->handler(ctx);
    }
    timings.complete = metrics.now();
    static obs::Histogram& compute_hist =
        obs::histogram("server.compute_seconds");
    compute_hist.observe(timings.complete - timings.dequeue);
    // The reply body borrows the OUT arrays still owned by `call`; the
    // caller pairs it with the PreparedCall's shared_ptr as keepalive.
    reply.body = protocol::buildCallReply(call.exec->info, call.data, timings);
  } catch (const std::exception& e) {
    static obs::Counter& failures = obs::counter("server.call_failures");
    failures.add();
    reply = errorReply(e.what());
  }
  metrics.jobFinished();
  return reply;
}

}  // namespace

// ----------------------------------------------------------------- reactor
// Staged pipeline behind the epoll reactor (see reactor.h).  A complete
// call frame flows:
//
//   dispatch (reactor)   -> reactorStageCall: a small frame's prologue
//                           runs right here; a larger one's is queued as
//                           a worker job, ahead of every compute job
//   prologue (either)    -> reactorPrologue: cache lookup, argument
//                           decode, and admission (compute job onto the
//                           job queue, two-phase pending entry)
//   compute  (worker)    -> runPreparedCall, then the epilogue marshals
//                           the reply into one self-contained buffer (a
//                           cache owner: a header in front of the
//                           cache's shared payload)
//   solo     (reactor)   -> finishStagedCall: write queue + flush
//
// The prologue touches only thread-safe state (job queue, pending table,
// result cache), so it runs unchanged on either thread.  Every reply it
// produces (SubmitAck, decode error, cached replay) reaches the
// connection through postSolo, exactly like a compute reply; connection
// state and the admission budget stay plain reactor-thread fields.

void NinfServer::reactorStageCall(std::uint64_t conn_id,
                                  protocol::WireMode mode,
                                  protocol::Frame frame) {
  if (protocol::headerBytes(mode) + frame.body.size() <=
      common::kSmallFrameBytes) {
    // Decoding a small call costs less than the two thread hand-offs a
    // worker prologue adds.  The admission budget bounds how many such
    // prologues the loop runs before it stops reading.
    reactorPrologue(conn_id, mode, std::move(frame));
    return;
  }
  Job job;
  job.prologue = true;
  // Job::run is a copyable std::function; the frame's slab is move-only,
  // so it rides across in a shared_ptr.
  job.run = [this, conn_id, mode,
             f = std::make_shared<protocol::Frame>(std::move(frame))]() {
    reactorPrologue(conn_id, mode, std::move(*f));
  };
  queue_.push(std::move(job));
}

void NinfServer::reactorPrologue(std::uint64_t conn_id,
                                 protocol::WireMode mode,
                                 protocol::Frame frame) {
  const protocol::FrameHeader header = frame.header;
  const bool is_submit = header.type == MessageType::SubmitRequest;
  // Adopt the client's propagated context so the unmarshal span (and the
  // later queue-wait/compute spans) join its trace.
  obs::ScopedTraceContext adopt(
      obs::TraceContext{header.trace.trace_id, header.trace.parent_span});

  // Idempotent-cache fast path, decided before unmarshalling: a hit or
  // an in-flight join skips the decode, the queue, and the compute
  // entirely — the admission slot is released when the cached reply
  // reaches finishStagedCall (for a waiter, when the owner fulfills; the
  // call genuinely is in flight until then).
  ResultCache::Digest digest{};
  bool cache_owner = false;
  if (!is_submit && cache_) {
    const std::string_view name = peekCallName(frame.body.span());
    if (!name.empty() && registry_.isIdempotent(name)) {
      digest = ResultCache::digestOf(frame.body.span());
      ResultCache::Lookup lookup = cache_->lookupOrJoin(
          digest, [this, conn_id, mode, header](ResultCache::Payload p) {
            sendCachedReply(conn_id, mode, header, std::move(p));
          });
      if (lookup.role == ResultCache::Role::Hit) {
        sendCachedReply(conn_id, mode, header, std::move(lookup.payload));
      }
      if (lookup.role != ResultCache::Role::Owner) return;
      cache_owner = true;
    }
  }

  auto call = std::make_shared<PreparedCall>();
  std::string error;
  {
    obs::Span span(obs::phase::kServerUnmarshalArgs,
                   static_cast<std::int64_t>(frame.body.size()));
    span.setCallId(header.call_id);
    xdr::Decoder src(frame.body.span());
    try {
      *call = prepare(registry_, src);
    } catch (const std::exception& e) {
      error = e.what();
    }
  }

  // Admission.  A worker prologue can race stop(): once the queue is
  // closed, tryPush drops the compute job, as the reactor would drop its
  // reply (and ~ResultCache fails any waiters on a dropped owner).
  if (is_submit) {
    // Two-phase: the job detaches from the connection — it runs (or
    // records its decode error) under a fresh id even if the client is
    // already gone, and the SubmitAck is this staged call's reply.
    const std::uint64_t id = next_job_id_.fetch_add(1);
    PendingResult entry;
    if (!error.empty()) entry = {true, metrics_.now(), errorReply(error)};
    std::size_t depth = 0;
    {
      LockGuard lock(pending_mutex_);
      pending_.emplace(id, std::move(entry));
      depth = pending_.size();
    }
    updatePendingGauge(depth);
    if (error.empty()) {
      metrics_.jobQueued();
      Job job;
      job.id = id;
      job.estimated_flops = call->estimated_flops;
      job.enqueue_time = metrics_.now();
      job.run = [this, id, call, enqueue = job.enqueue_time]() mutable {
        ReplyPayload reply = runPreparedCall(metrics_, *call, enqueue);
        reply.keepalive = call;
        LockGuard lock(pending_mutex_);
        pending_[id] = {true, metrics_.now(), std::move(reply)};
      };
      queue_.tryPush(std::move(job));
    }
    xdr::Encoder ack;
    ack.putU64(id);
    postReply(conn_id,
              protocol::flattenFramePooled(mode, MessageType::SubmitAck,
                                           header.call_id, header.trace, ack));
    return;
  }

  if (!error.empty()) {
    ReplyPayload err = errorReply(error);
    if (cache_owner) cache_->fulfill(digest, materializeReply(err), false);
    postReply(conn_id,
              protocol::flattenFramePooled(mode, MessageType::CallReply,
                                           header.call_id, header.trace,
                                           err.body));
    return;
  }
  metrics_.jobQueued();
  Job job;
  job.id = next_job_id_.fetch_add(1);
  job.estimated_flops = call->estimated_flops;
  job.enqueue_time = metrics_.now();
  job.run = [this, conn_id, mode, header, call, cache_owner, digest,
             enqueue = job.enqueue_time]() mutable {
    obs::ScopedTraceContext worker_adopt(
        obs::TraceContext{header.trace.trace_id, header.trace.parent_span});
    ReplyPayload reply =
        runPreparedCall(metrics_, *call, enqueue, header.call_id);
    // Epilogue, still on this worker: marshal the reply into one
    // self-contained wire buffer (borrowed OUT arrays are byteswapped
    // into the copy), so nothing of the prepared call needs to survive
    // the hop back to the reactor.
    common::PooledBuffer wire;
    ResultCache::Payload payload;
    {
      obs::Span span(obs::phase::kServerMarshalResult);
      span.setCallId(header.call_id);
      if (cache_owner) {
        // Materialize once: the cache retains the shared payload, and
        // this caller and every waiter send those very bytes behind a
        // header of their own.
        payload = materializeReply(reply);
        cache_->fulfill(digest, payload, reply.ok);
        wire = protocol::frameHeaderPooled(mode, MessageType::CallReply,
                                           header.call_id, header.trace,
                                           payload->size());
      } else {
        wire = protocol::flattenFramePooled(mode, MessageType::CallReply,
                                            header.call_id, header.trace,
                                            reply.body);
      }
      span.setBytes(static_cast<std::int64_t>(
          wire.size() + (payload ? payload->size() : 0)));
    }
    postReply(conn_id, std::move(wire), std::move(payload));
  };
  queue_.tryPush(std::move(job));
}

void NinfServer::postReply(std::uint64_t conn_id, common::PooledBuffer reply,
                           ResultCache::Payload payload) {
  // postSolo takes a copyable std::function; hand the move-only slab
  // across via shared_ptr.
  auto r = std::make_shared<common::PooledBuffer>(std::move(reply));
  reactor_->postSolo([this, conn_id, r, p = std::move(payload)]() mutable {
    reactor_->finishStagedCall(conn_id, std::move(*r), std::move(p));
  });
}

void NinfServer::sendCachedReply(std::uint64_t conn_id,
                                 protocol::WireMode mode,
                                 const protocol::FrameHeader& header,
                                 ResultCache::Payload payload) {
  if (payload) {
    common::PooledBuffer head = protocol::frameHeaderPooled(
        mode, MessageType::CallReply, header.call_id, header.trace,
        payload->size());
    postReply(conn_id, std::move(head), std::move(payload));
    return;
  }
  // Owner aborted (server shutdown): fail the call explicitly rather than
  // leaving the client to time out.
  postReply(conn_id,
            protocol::flattenFramePooled(
                mode, MessageType::CallReply, header.call_id, header.trace,
                errorReply("idempotent call aborted before completion").body));
}

}  // namespace ninf::server
