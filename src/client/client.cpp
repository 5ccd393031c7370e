#include "client/client.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/tcp_transport.h"
#include "xdr/xdr.h"

namespace ninf::client {

using protocol::ArgValue;
using protocol::Message;
using protocol::MessageType;

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::chrono::steady_clock::time_point deadlineIn(double seconds) {
  return seconds > 0
             ? std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(seconds))
             : transport::Stream::kNoDeadline;
}

void requireType(MessageType got, MessageType expected) {
  if (got != expected) {
    throw ProtocolError("expected message type " +
                        std::to_string(static_cast<unsigned>(expected)) +
                        ", got " +
                        std::to_string(static_cast<unsigned>(got)));
  }
}

}  // namespace

NinfClient::NinfClient(std::unique_ptr<transport::Stream> stream)
    : channel_(std::make_unique<Channel>(std::move(stream))) {}

std::unique_ptr<NinfClient> NinfClient::connectTcp(const std::string& host,
                                                   std::uint16_t port,
                                                   double timeout_seconds) {
  obs::Span span(obs::phase::kConnect);
  span.setDetail(host + ":" + std::to_string(port));
  static obs::Counter& connects = obs::counter("client.connects");
  connects.add();
  try {
    auto client = std::make_unique<NinfClient>(
        transport::tcpConnect(host, port, timeout_seconds));
    client->setReconnect([host, port, timeout_seconds] {
      return transport::tcpConnect(host, port, timeout_seconds);
    });
    return client;
  } catch (const TransportError& e) {
    throw TransportError("Ninf server " + host + ":" + std::to_string(port) +
                         " unreachable: " + e.what());
  }
}

template <typename Fn>
auto NinfClient::retryLoop(const std::string& what, const CallOptions& opts,
                           Fn&& fn)
    -> decltype(fn(std::chrono::steady_clock::time_point{})) {
  using clock = std::chrono::steady_clock;
  const bool bounded = opts.deadline_seconds > 0;
  const clock::time_point deadline =
      bounded ? clock::now() +
                    std::chrono::duration_cast<clock::duration>(
                        std::chrono::duration<double>(opts.deadline_seconds))
              : transport::Stream::kNoDeadline;
  double backoff = std::max(0.0, opts.backoff_seconds);
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return fn(deadline);
    } catch (const TransportError&) {
      // Only a dead connection is torn down: a multiplexed call that
      // merely timed out leaves the channel (and its siblings) alone.
      channel_->resetIfBroken();
      if (attempt >= opts.retries || !channel_->hasReconnect()) throw;
      const double remaining =
          bounded ? std::chrono::duration<double>(deadline - clock::now())
                        .count()
                  : std::numeric_limits<double>::infinity();
      // Not enough budget left to back off and try again: surface the
      // transport error we have rather than a guaranteed timeout.
      if (remaining <= backoff) throw;
      static obs::Counter& retries = obs::counter("client.call_retries");
      retries.add();
      NINF_LOG(Debug) << what << ": retrying (attempt " << attempt + 1
                      << " of " << opts.retries << ")";
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
      backoff = backoff > 0 ? backoff * 2 : 0.0;
    }
  }
}

Message NinfClient::roundTrip(MessageType type,
                              std::span<const std::uint8_t> payload,
                              MessageType expected,
                              std::chrono::steady_clock::time_point deadline) {
  xdr::Encoder enc;
  enc.putRaw(payload);
  Message reply;
  channel_->transact(
      type, enc,
      [&reply, expected](const Channel::Reply& r, xdr::Source& body) {
        requireType(r.type, expected);
        reply.type = r.type;
        reply.payload.resize(r.length);
        body.getRaw(reply.payload);
      },
      deadline);
  return reply;
}

const idl::InterfaceInfo& NinfClient::queryInterface(const std::string& name) {
  return queryInterface(name, transport::Stream::kNoDeadline);
}

const idl::InterfaceInfo& NinfClient::queryInterface(const std::string& name,
                                                     double timeout_seconds) {
  return queryInterface(name, deadlineIn(timeout_seconds));
}

const idl::InterfaceInfo& NinfClient::queryInterface(
    const std::string& name, std::chrono::steady_clock::time_point deadline) {
  {
    LockGuard lock(cache_mutex_);
    auto it = interface_cache_.find(name);
    if (it != interface_cache_.end()) return it->second;
  }

  xdr::Encoder enc;
  enc.putString(name);
  std::vector<std::uint8_t> payload;
  channel_->transact(
      MessageType::QueryInterface, enc,
      [&payload](const Channel::Reply& r, xdr::Source& body) {
        requireType(r.type, MessageType::InterfaceReply);
        payload.resize(r.length);
        body.getRaw(payload);
      },
      deadline);
  xdr::Decoder dec(payload);
  if (!dec.getBool()) {
    throw NotFoundError("executable '" + name + "' on " +
                        channel_->peerName());
  }
  auto info = idl::InterfaceInfo::decode(dec);
  LockGuard lock(cache_mutex_);
  return interface_cache_.emplace(name, std::move(info)).first->second;
}

namespace {

/// Reconstruct the server-side phases on the client's clock.  The reply
/// carries the server-relative enqueue/dequeue/complete timestamps, so
/// the window between "request fully sent" and "reply fully received"
/// decomposes into queue-wait, compute, and result transfer (recv) — the
/// columns of the paper's Tables 3 and 6.  Durations come from the
/// server clock (marked in the span detail); placement on the client
/// timeline is sequential within the window, clamped so a skewed server
/// clock can never produce spans that overrun the observed wall time.
void emitServerDerivedPhases(const obs::Span& root, const CallResult& result,
                             double sent_us, double recv_done_us,
                             std::int64_t reply_bytes,
                             std::uint64_t call_id) {
  if (!root.active()) return;
  const double window_us = std::max(0.0, recv_done_us - sent_us);
  double wait_us = std::max(0.0, result.server.waitTime()) * 1e6;
  double comp_us =
      std::max(0.0, result.server.complete - result.server.dequeue) * 1e6;
  if (wait_us + comp_us > window_us && wait_us + comp_us > 0) {
    const double scale = window_us / (wait_us + comp_us);
    wait_us *= scale;
    comp_us *= scale;
  }
  obs::SpanRecord rec;
  rec.trace_id = root.traceId();
  rec.parent_id = root.id();
  rec.call_id = call_id;
  rec.detail = "server-clock";

  rec.name = obs::phase::kQueueWait;
  rec.start_us = sent_us;
  rec.dur_us = wait_us;
  obs::emitSpan(rec);

  rec.span_id = 0;  // fresh id for each emitted span
  rec.name = obs::phase::kCompute;
  rec.start_us = sent_us + wait_us;
  rec.dur_us = comp_us;
  obs::emitSpan(rec);

  rec.span_id = 0;
  rec.name = obs::phase::kRecv;
  rec.start_us = sent_us + wait_us + comp_us;
  rec.dur_us = window_us - wait_us - comp_us;
  rec.detail = "result transfer (window minus server time)";
  rec.bytes = reply_bytes;
  obs::emitSpan(rec);
}

}  // namespace

CallResult NinfClient::call(const std::string& name,
                            std::span<const ArgValue> args,
                            const CallOptions& opts) {
  return retryLoop("call '" + name + "'", opts,
                   [&](std::chrono::steady_clock::time_point deadline) {
                     return callOnce(name, args, deadline);
                   });
}

CallResult NinfClient::callOnce(
    const std::string& name, std::span<const ArgValue> args,
    std::chrono::steady_clock::time_point deadline) {
  const idl::InterfaceInfo& info = queryInterface(name, deadline);

  obs::Span root(obs::phase::kCall);
  root.setDetail(name);

  // Streaming pipeline: the request encoder borrows the caller's IN
  // arrays (no contiguous request buffer), and the reply's OUT arrays are
  // received directly into the caller's spans — on the channel's reader
  // thread when multiplexed, while this thread parks on the reply.
  const xdr::Encoder request = protocol::buildCallRequest(info, args);

  CallResult result;
  result.bytes_sent = static_cast<std::int64_t>(request.size());
  const double start = nowSeconds();
  const Channel::Reply reply = channel_->transact(
      MessageType::CallRequest, request,
      [&info, &args, &result](const Channel::Reply& r, xdr::Source& body) {
        requireType(r.type, MessageType::CallReply);
        result.server = protocol::decodeCallReply(info, body, args);
      },
      deadline);
  result.elapsed = nowSeconds() - start;
  result.bytes_received = static_cast<std::int64_t>(reply.length);

  root.setCallId(reply.call_id);
  emitServerDerivedPhases(root, result, reply.sent_us, reply.recv_done_us,
                          result.bytes_received, reply.call_id);
  static obs::Counter& calls = obs::counter("client.calls");
  static obs::Histogram& call_s = obs::histogram("client.call_seconds");
  static obs::Histogram& wait_s = obs::histogram("client.queue_wait_seconds");
  calls.add();
  call_s.observe(result.elapsed);
  wait_s.observe(std::max(0.0, result.server.waitTime()));
  return result;
}

JobHandle NinfClient::submit(const std::string& name,
                             std::span<const ArgValue> args,
                             const CallOptions& opts) {
  return retryLoop("submit '" + name + "'", opts,
                   [&](std::chrono::steady_clock::time_point deadline) {
                     return submitOnce(name, args, deadline);
                   });
}

JobHandle NinfClient::submitOnce(
    const std::string& name, std::span<const ArgValue> args,
    std::chrono::steady_clock::time_point deadline) {
  const idl::InterfaceInfo& info = queryInterface(name, deadline);
  obs::Span root("submit");
  root.setDetail(name);
  const xdr::Encoder request = protocol::buildCallRequest(info, args);
  JobHandle handle{0, name};
  channel_->transact(
      MessageType::SubmitRequest, request,
      [&handle](const Channel::Reply& r, xdr::Source& body) {
        requireType(r.type, MessageType::SubmitAck);
        handle.id = body.getU64();
      },
      deadline);
  return handle;
}

std::optional<CallResult> NinfClient::fetch(const JobHandle& handle,
                                            std::span<const ArgValue> args,
                                            const CallOptions& opts) {
  return retryLoop("fetch '" + handle.name + "'", opts,
                   [&](std::chrono::steady_clock::time_point deadline) {
                     return fetchOnce(handle, args, deadline);
                   });
}

std::optional<CallResult> NinfClient::fetchOnce(
    const JobHandle& handle, std::span<const ArgValue> args,
    std::chrono::steady_clock::time_point deadline) {
  const idl::InterfaceInfo& info = queryInterface(handle.name, deadline);
  obs::Span root("fetch");
  root.setDetail(handle.name);
  xdr::Encoder enc;
  enc.putU64(handle.id);
  std::optional<CallResult> out;
  const double start = nowSeconds();
  const Channel::Reply reply = channel_->transact(
      MessageType::FetchResult, enc,
      [&info, &args, &out](const Channel::Reply& r, xdr::Source& body) {
        if (r.type == MessageType::ResultPending) return;
        if (r.type != MessageType::CallReply) {
          throw ProtocolError("unexpected reply to FetchResult");
        }
        CallResult result;
        result.server = protocol::decodeCallReply(info, body, args);
        out = result;
      },
      deadline);
  if (out) {
    out->elapsed = nowSeconds() - start;
    out->bytes_received = static_cast<std::int64_t>(reply.length);
  }
  return out;
}

std::vector<std::string> NinfClient::listExecutables() {
  const Message reply =
      roundTrip(MessageType::ListExecutables, {}, MessageType::ExecutableList,
                transport::Stream::kNoDeadline);
  xdr::Decoder dec(reply.payload);
  const std::uint32_t count = dec.getU32();
  std::vector<std::string> names;
  names.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) names.push_back(dec.getString());
  return names;
}

NinfClient::StatusPoll NinfClient::startServerStatus(double timeout_seconds) {
  StatusPoll poll;
  poll.payload_ = std::make_shared<std::vector<std::uint8_t>>();
  poll.call_ = channel_->start(
      MessageType::ServerStatus, xdr::Encoder{},
      [payload = poll.payload_](const Channel::Reply& r, xdr::Source& body) {
        requireType(r.type, MessageType::StatusReply);
        payload->resize(r.length);
        body.getRaw(*payload);
      },
      deadlineIn(timeout_seconds));
  return poll;
}

protocol::ServerStatusInfo NinfClient::StatusPoll::get() {
  call_.wait();
  return protocol::ServerStatusInfo::fromBytes(*payload_);
}

protocol::ServerStatusInfo NinfClient::serverStatus(double timeout_seconds) {
  return startServerStatus(timeout_seconds).get();
}

double NinfClient::ping(std::size_t payload_bytes, double timeout_seconds) {
  std::vector<std::uint8_t> payload(payload_bytes, 0xA5);
  const double start = nowSeconds();
  const Message reply = roundTrip(MessageType::Ping, payload,
                                  MessageType::Pong,
                                  deadlineIn(timeout_seconds));
  if (reply.payload != payload) throw ProtocolError("ping echo mismatch");
  return nowSeconds() - start;
}

namespace {

/// One control-plane exchange whose reply may be the expected type or a
/// WrongShard redirect.  Decodes either; a redirect becomes a typed
/// WrongShardError after the body is fully consumed (keeping framing
/// aligned either way).
template <typename Reply>
Reply controlExchange(Channel& channel, MessageType type,
                      const xdr::Encoder& body, MessageType expected,
                      Reply (*decode)(xdr::Source&),
                      std::chrono::steady_clock::time_point deadline) {
  std::optional<Reply> reply;
  std::optional<protocol::RedirectInfo> redirect;
  channel.transact(
      type, body,
      [&](const Channel::Reply& r, xdr::Source& src) {
        if (r.type == MessageType::WrongShard) {
          redirect = protocol::RedirectInfo::decode(src);
          return;
        }
        requireType(r.type, expected);
        reply = decode(src);
      },
      deadline);
  if (redirect) {
    throw WrongShardError(
        "'" + redirect->entry + "' belongs to shard " +
            std::to_string(redirect->owner_shard) + " (ring epoch " +
            std::to_string(redirect->ring_epoch) + ")",
        redirect->owner_shard, redirect->ring_epoch,
        redirect->reason == protocol::RedirectReason::NotPrimary);
  }
  return std::move(*reply);
}

}  // namespace

protocol::RingDescriptor NinfClient::ringInfo(double timeout_seconds) {
  return controlExchange(*channel_, MessageType::RingQuery, xdr::Encoder{},
                         MessageType::RingInfo,
                         &protocol::RingDescriptor::decode,
                         deadlineIn(timeout_seconds));
}

protocol::ScheduleChoice NinfClient::scheduleQuery(
    const std::string& entry, const std::vector<std::string>& excluded,
    double timeout_seconds) {
  protocol::ScheduleRequest req;
  req.entry = entry;
  req.excluded = excluded;
  xdr::Encoder enc;
  req.encode(enc);
  auto choice = controlExchange(*channel_, MessageType::ScheduleQuery, enc,
                                MessageType::ScheduleReply,
                                &protocol::ScheduleChoice::decode,
                                deadlineIn(timeout_seconds));
  // An empty name is the node saying "no reachable candidate" — the
  // typed not-found its in-process pickAmong would have thrown.
  if (choice.server_name.empty()) {
    throw NotFoundError("no reachable server for '" + entry + "' on " +
                        channel_->peerName());
  }
  return choice;
}

protocol::RegisterResult NinfClient::registerServer(
    const protocol::WireServerDesc& desc, std::uint64_t reg_epoch,
    double timeout_seconds) {
  protocol::RegistryOp op;
  op.kind = protocol::RegistryOp::Kind::Register;
  op.desc = desc;
  op.reg_epoch = reg_epoch;
  xdr::Encoder enc;
  op.encode(enc);
  auto result = controlExchange(*channel_, MessageType::RegisterServer, enc,
                                MessageType::RegisterAck,
                                &protocol::RegisterResult::decode,
                                deadlineIn(timeout_seconds));
  if (result.status == protocol::RegisterResult::Status::Fenced) {
    throw FencedError("registration of " + desc.endpoint + " rejected by " +
                      channel_->peerName());
  }
  return result;
}

protocol::RegisterResult NinfClient::deregisterServer(
    const std::string& endpoint, std::uint64_t reg_epoch,
    double timeout_seconds) {
  protocol::RegistryOp op;
  op.kind = protocol::RegistryOp::Kind::Deregister;
  op.desc.endpoint = endpoint;
  op.reg_epoch = reg_epoch;
  xdr::Encoder enc;
  op.encode(enc);
  auto result = controlExchange(*channel_, MessageType::DeregisterServer, enc,
                                MessageType::RegisterAck,
                                &protocol::RegisterResult::decode,
                                deadlineIn(timeout_seconds));
  if (result.status == protocol::RegisterResult::Status::Fenced) {
    throw FencedError("deregistration of " + endpoint + " rejected by " +
                      channel_->peerName());
  }
  return result;
}

protocol::ReplAckMsg NinfClient::replAppend(const protocol::ReplAppendMsg& msg,
                                            double timeout_seconds) {
  xdr::Encoder enc;
  msg.encode(enc);
  return controlExchange(*channel_, MessageType::ReplAppend, enc,
                         MessageType::ReplAck, &protocol::ReplAckMsg::decode,
                         deadlineIn(timeout_seconds));
}

protocol::ReplAckMsg NinfClient::replHeartbeat(
    const protocol::ReplHeartbeatMsg& msg, double timeout_seconds) {
  xdr::Encoder enc;
  msg.encode(enc);
  return controlExchange(*channel_, MessageType::ReplHeartbeat, enc,
                         MessageType::ReplAck, &protocol::ReplAckMsg::decode,
                         deadlineIn(timeout_seconds));
}

void NinfClient::close() { channel_->close(); }

}  // namespace ninf::client
