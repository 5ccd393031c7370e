// Ninf client API (paper, section 2.2).
//
// One NinfClient owns one connection to a computational server, managed
// by a session-layer Channel (client/channel.h).  The first call to any
// entry performs the two-stage RPC: the compiled interface information is
// fetched and cached, then arguments are marshalled from it — no
// client-side stubs, header files, or linking.
//
//   auto client = NinfClient::connectTcp("127.0.0.1", port);
//   ninfCall(*client, "dmmul", n, A, B, C);       // like Ninf_call(...)
//
// Against a protocol-v2 server the channel multiplexes calls by ID, so
// one NinfClient may be shared by many threads: concurrent calls fly on
// the same connection and replies are demultiplexed as they return.  On
// a v1 connection concurrent calls still work but serialize.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "client/channel.h"
#include "common/sync.h"
#include "idl/interface_info.h"
#include "protocol/call_marshal.h"
#include "protocol/message.h"
#include "protocol/meta_wire.h"
#include "transport/transport.h"

namespace ninf::client {

/// Outcome of one Ninf_call.
struct CallResult {
  /// Client-observed wall time of the whole call, seconds.
  double elapsed = 0.0;
  /// Server-relative timings (enqueue/dequeue/complete).
  protocol::CallTimings server;
  /// Argument bytes shipped client->server and server->client.
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;

  /// T_wait = T_dequeue - T_enqueue (paper, section 4.1).
  double waitTime() const { return server.waitTime(); }
};

/// Handle of a two-phase (submit/fetch) call, section 5.1.
struct JobHandle {
  std::uint64_t id = 0;
  std::string name;  // entry name, needed to decode the eventual reply
};

/// Reliability envelope of one logical call: a wall-clock budget covering
/// every attempt, transport-failure retries, and exponential backoff
/// between them.  The default (no deadline, no retries) reproduces the
/// historical single-attempt behavior exactly.
///
/// The deadline is end-to-end: it bounds every attempt (via the stream
/// deadline on v1 connections; on multiplexed v2 ones via the per-call
/// reply future, plus a short grace window for a reply already being
/// decoded, after which a mid-body stall breaks the connection) and the
/// backoff sleeps, so a call with a deadline either completes or throws
/// a typed error — it cannot hang on a stalled peer.
/// Retries fire only on TransportError (the connection is presumed dead
/// and is re-established through the reconnect factory); RemoteError/
/// ProtocolError surface immediately.  On a multiplexed connection a
/// timeout while other calls are in flight abandons only the timed-out
/// call; the connection survives.
struct CallOptions {
  double deadline_seconds = 0.0;  ///< whole-call budget; 0 = unbounded
  std::size_t retries = 0;        ///< extra attempts after TransportError
  double backoff_seconds = 0.02;  ///< first retry delay; doubles per retry
};

class NinfClient {
 public:
  /// Adopt an established stream (TCP or inproc).  The first exchange
  /// negotiates the protocol version with Hello.
  explicit NinfClient(std::unique_ptr<transport::Stream> stream);

  /// Connect over TCP.  timeout_seconds > 0 bounds connection
  /// establishment; failures throw TransportError with the server's
  /// host:port in the message (never a bare errno).
  static std::unique_ptr<NinfClient> connectTcp(const std::string& host,
                                                std::uint16_t port,
                                                double timeout_seconds = 0.0);

  /// Install a factory used to replace the connection when a retrying
  /// call hits a TransportError (and to lazily reconnect after a failed
  /// attempt dropped the stream).  connectTcp installs one automatically;
  /// adopters of raw streams (inproc tests) may install their own.
  void setReconnect(std::function<std::unique_ptr<transport::Stream>()> fn) {
    channel_->setReconnect(std::move(fn));
  }

  /// Stage one of the two-stage RPC; cached per entry name.
  /// Throws NotFoundError if the server does not export `name`.
  const idl::InterfaceInfo& queryInterface(const std::string& name);

  /// As above with a wall-clock bound on the round-trip: timeout_seconds
  /// > 0 throws TimeoutError on expiry (<= 0 is unbounded).  Cache hits
  /// never touch the wire.
  const idl::InterfaceInfo& queryInterface(const std::string& name,
                                           double timeout_seconds);

  /// Synchronous Ninf_call with explicit argument values.  With a
  /// non-default `opts`, the call is bounded by opts.deadline_seconds
  /// (TimeoutError on expiry) and transport failures are retried up to
  /// opts.retries times with exponential backoff.  A failed call may
  /// leave OUT arrays partially written; a successful one never does.
  CallResult call(const std::string& name,
                  std::span<const protocol::ArgValue> args,
                  const CallOptions& opts = {}) NINF_BLOCKING;

  /// Two-phase: ship arguments now, compute detached from the connection.
  /// Retrying a submit whose ack was lost may enqueue the job twice; the
  /// caller holds only the last handle.
  JobHandle submit(const std::string& name,
                   std::span<const protocol::ArgValue> args,
                   const CallOptions& opts = {});

  /// Two-phase: try to collect a result; nullopt while still computing.
  /// On success the OUT arguments of `args` are filled.
  std::optional<CallResult> fetch(const JobHandle& handle,
                                  std::span<const protocol::ArgValue> args,
                                  const CallOptions& opts = {});

  /// Names of the executables registered on the server.
  std::vector<std::string> listExecutables();

  /// A status request on the wire whose reply is not yet collected
  /// (startServerStatus).  The reply lands in storage the handle shares
  /// with the channel's reader, so get() may run after the frame that
  /// started the poll has returned.  Dropping the handle without get()
  /// abandons the poll; the client must outlive the handle.
  class StatusPoll {
   public:
    /// Throws what the poll failed with (TimeoutError past its bound).
    protocol::ServerStatusInfo get() NINF_BLOCKING;

   private:
    friend class NinfClient;
    std::shared_ptr<std::vector<std::uint8_t>> payload_;
    Channel::Pending call_;
  };

  /// Send a status request and return without waiting for the reply,
  /// so one caller can have polls to many servers in flight at once.
  /// timeout_seconds > 0 bounds the round-trip from now.
  StatusPoll startServerStatus(double timeout_seconds = 0.0) NINF_BLOCKING;

  /// Server status snapshot (metaserver food): startServerStatus + get.
  /// timeout_seconds > 0 bounds the round-trip (TimeoutError on expiry),
  /// so one stalled server cannot wedge a dispatch decision.
  protocol::ServerStatusInfo serverStatus(double timeout_seconds = 0.0)
      NINF_BLOCKING;

  /// Round-trip an opaque payload; returns elapsed seconds.
  /// timeout_seconds > 0 bounds the round-trip (TimeoutError on expiry)
  /// — the connection pool's pre-reuse health check relies on this so a
  /// stalled-but-open pooled peer cannot wedge acquire().
  double ping(std::size_t payload_bytes = 0, double timeout_seconds = 0.0)
      NINF_BLOCKING;

  // ---- sharded-metaserver control plane (node peers only) ----
  // These speak the metaserver node's message types (meta_wire.h); call
  // them against a node (a compute server drops the connection).  Each
  // runs as one lock-step exchange, since a node agrees on protocol
  // version 1, and throws WrongShardError when the node answers with a
  // WrongShard redirect.  Every method takes an optional round-trip
  // bound.

  /// Fetch the node's current ring view.
  protocol::RingDescriptor ringInfo(double timeout_seconds = 0.0);

  /// Ask the owning shard primary to pick a computing server for
  /// `entry`; `excluded` names servers that already failed this call.
  /// Throws WrongShardError when the node does not own the entry or is
  /// not the shard's primary, NotFoundError when no candidate remains.
  protocol::ScheduleChoice scheduleQuery(
      const std::string& entry, const std::vector<std::string>& excluded = {},
      double timeout_seconds = 0.0);

  /// Ship one registry op to the shard owning it.  Registration is
  /// idempotent on (desc.endpoint, reg_epoch): a retried op answers
  /// Duplicate.  Throws WrongShardError on a misrouted op and
  /// FencedError when the receiving node lost its primaryship.
  protocol::RegisterResult registerServer(const protocol::WireServerDesc& desc,
                                          std::uint64_t reg_epoch,
                                          double timeout_seconds = 0.0);
  protocol::RegisterResult deregisterServer(const std::string& endpoint,
                                            std::uint64_t reg_epoch,
                                            double timeout_seconds = 0.0);

  /// Replication link (node-to-node; exposed here so the primary's log
  /// shipper reuses the ordinary client machinery).
  protocol::ReplAckMsg replAppend(const protocol::ReplAppendMsg& msg,
                                  double timeout_seconds = 0.0);
  protocol::ReplAckMsg replHeartbeat(const protocol::ReplHeartbeatMsg& msg,
                                     double timeout_seconds = 0.0);

  void close();

  /// The session layer under this client (protocol version, etc.).
  Channel& channel() { return *channel_; }

 private:
  protocol::Message roundTrip(protocol::MessageType type,
                              std::span<const std::uint8_t> payload,
                              protocol::MessageType expected,
                              std::chrono::steady_clock::time_point deadline);

  const idl::InterfaceInfo& queryInterface(
      const std::string& name,
      std::chrono::steady_clock::time_point deadline);

  /// Deadline + retry + backoff skeleton shared by call/submit/fetch:
  /// runs `fn` (one protocol attempt, handed the absolute deadline),
  /// resetting a broken channel and retrying on TransportError.
  template <typename Fn>
  auto retryLoop(const std::string& what, const CallOptions& opts, Fn&& fn)
      -> decltype(fn(std::chrono::steady_clock::time_point{}));

  CallResult callOnce(const std::string& name,
                      std::span<const protocol::ArgValue> args,
                      std::chrono::steady_clock::time_point deadline);
  JobHandle submitOnce(const std::string& name,
                       std::span<const protocol::ArgValue> args,
                       std::chrono::steady_clock::time_point deadline);
  std::optional<CallResult> fetchOnce(
      const JobHandle& handle, std::span<const protocol::ArgValue> args,
      std::chrono::steady_clock::time_point deadline);

  std::unique_ptr<Channel> channel_;
  Mutex cache_mutex_{"client.cache"};
  /// Node-based map: references handed out stay valid across inserts,
  /// and entries are never erased, so callers may keep them past unlock.
  std::map<std::string, idl::InterfaceInfo> interface_cache_
      NINF_GUARDED_BY(cache_mutex_);
};

}  // namespace ninf::client
