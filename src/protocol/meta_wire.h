// Wire payloads of the sharded-metaserver control plane.
//
// The metaserver namespace is sharded by entry name over N metaserver
// instances (a consistent-hash ring, see metaserver/ring.h), and each
// shard's registry is replicated to a backup by primary/backup log
// shipping (metaserver/replication.h).  This header defines the value
// types and XDR codecs those layers exchange — it sits in `protocol`
// because both the client library (ring bootstrap, schedule queries) and
// the metaserver library (nodes, replication) speak them, and protocol
// is below both.
//
// Message flows (all v1-framed, lock-step: a node's HelloAck agrees on
// version 1 and accepts no feature bit):
//
//   client                          metaserver node
//     | -- RingQuery() --------------> |
//     | <-- RingInfo(ring) ------------ |   (cached; refreshed on redirect)
//     | -- ScheduleQuery(entry, excl) > |
//     | <-- ScheduleReply(server) ----- |   (then call the server directly)
//     | <-- WrongShard(owner, epoch) -- |   (mis-routed: refresh + retry)
//
//   computing server                owning shard primary
//     | -- RegisterServer(desc, key) -> |
//     | <-- RegisterAck(status, seq) -- |   (idempotent on endpoint+epoch)
//
//   shard primary                   shard backup
//     | -- ReplAppend(epoch, seq, op) > |
//     | <-- ReplAck(status, seq) ------ |   (StaleEpoch fences a deposed
//     | -- ReplHeartbeat(epoch, ...) -> |    primary after a promotion;
//     | <-- ReplAck(status, seq) ------ |    seq = highest op the backup
//                                            applied; the primary
//                                            computes lag from it)
//
// Epoch fencing: every shard carries a monotonically increasing epoch.
// A backup that promotes itself bumps the epoch; appends and heartbeats
// stamped with an older epoch are rejected with StaleEpoch, which the
// old primary treats as a fence — it must stop accepting registrations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xdr/xdr.h"

namespace ninf::protocol {

/// One metaserver shard's membership row in the ring.
struct ShardInfo {
  std::uint32_t id = 0;
  /// Monotonic primary-election epoch; bumped by every backup promotion.
  std::uint64_t epoch = 0;
  std::string primary_endpoint;
  std::string backup_endpoint;  // empty = unreplicated shard

  void encode(xdr::Encoder& enc) const;
  static ShardInfo decode(xdr::Source& src);
};

/// RingInfo payload: the full ring a client caches between refreshes.
struct RingDescriptor {
  /// max(shard epochs) plus the membership version: any promotion or
  /// membership change makes this grow, so "mine is older" is one compare.
  std::uint64_t ring_epoch = 0;
  std::vector<ShardInfo> shards;

  void encode(xdr::Encoder& enc) const;
  static RingDescriptor decode(xdr::Source& src);
};

/// Why a node bounced a request (WrongShard payload).
enum class RedirectReason : std::uint32_t {
  NotOwner = 0,    ///< entry hashes to a different shard
  NotPrimary = 1,  ///< right shard, but this node is a backup or fenced
};

/// WrongShard payload: enough for the client to refresh and re-route.
struct RedirectInfo {
  std::string entry;
  std::uint32_t owner_shard = 0;
  std::uint64_t ring_epoch = 0;  // sender's view; client refreshes if newer
  RedirectReason reason = RedirectReason::NotOwner;

  void encode(xdr::Encoder& enc) const;
  static RedirectInfo decode(xdr::Source& src);
};

/// ScheduleQuery payload: pick a computing server for `entry`.  `excluded`
/// carries the names of servers that already failed this logical call, so
/// the shard can shun them (and start their cooldown) like the in-process
/// metaserver's failover loop does.
struct ScheduleRequest {
  std::string entry;
  std::vector<std::string> excluded;

  void encode(xdr::Encoder& enc) const;
  static ScheduleRequest decode(xdr::Source& src);
};

/// ScheduleReply payload: the chosen server.  The client then dials
/// `endpoint` itself — the metaserver stays off the data path.
struct ScheduleChoice {
  std::string server_name;
  std::string endpoint;
  std::uint64_t shard_epoch = 0;

  void encode(xdr::Encoder& enc) const;
  static ScheduleChoice decode(xdr::Source& src);
};

/// Declarative description of one computing server, as registered with
/// (and replicated between) metaserver nodes.  Connection factories are
/// reconstructed from `endpoint` by a resolver — only data crosses the
/// wire.
struct WireServerDesc {
  std::string name;
  std::string endpoint;
  double bandwidth_bps = 1e6;
  double perf_flops = 1e8;
  /// Entry names this server exports, used to route the registration to
  /// the owning shard(s).  Empty = exports everything (any shard accepts).
  std::vector<std::string> entries;

  void encode(xdr::Encoder& enc) const;
  static WireServerDesc decode(xdr::Source& src);
};

/// A replicatable registry mutation.  Idempotency key: (desc.endpoint,
/// reg_epoch) — a client retrying a timed-out register re-sends the same
/// pair and the directory applies it at most once.  `seq` is assigned by
/// the primary's replication log (0 until then).
struct RegistryOp {
  enum class Kind : std::uint32_t { Register = 1, Deregister = 2 };
  Kind kind = Kind::Register;
  WireServerDesc desc;  // Deregister only uses desc.endpoint
  std::uint64_t reg_epoch = 0;
  std::uint64_t seq = 0;

  void encode(xdr::Encoder& enc) const;
  static RegistryOp decode(xdr::Source& src);
};

/// RegisterAck payload.
struct RegisterResult {
  enum class Status : std::uint32_t {
    Applied = 0,    ///< op applied (and queued for replication)
    Duplicate = 1,  ///< same (endpoint, reg_epoch) already applied
    Fenced = 2,     ///< node is a deposed (fenced) primary
  };
  Status status = Status::Applied;
  std::uint64_t seq = 0;
  std::uint64_t shard_epoch = 0;

  void encode(xdr::Encoder& enc) const;
  static RegisterResult decode(xdr::Source& src);
};

/// ReplAppend payload: one sequence-numbered op under the primary's epoch.
struct ReplAppendMsg {
  std::uint64_t shard_epoch = 0;
  RegistryOp op;  // op.seq carries the log position

  void encode(xdr::Encoder& enc) const;
  static ReplAppendMsg decode(xdr::Source& src);
};

/// ReplAck payload: Ok applies/acks; StaleEpoch fences the sender.
struct ReplAckMsg {
  enum class Status : std::uint32_t { Ok = 0, StaleEpoch = 1 };
  Status status = Status::Ok;
  std::uint64_t seq = 0;          // highest seq the replica has applied
  std::uint64_t shard_epoch = 0;  // replica's current epoch

  void encode(xdr::Encoder& enc) const;
  static ReplAckMsg decode(xdr::Source& src);
};

/// One server's soft liveness state, piggybacked on heartbeats so a
/// freshly promoted backup starts with a warm scheduling cache instead of
/// an empty one.
struct LivenessRecord {
  std::string server_name;
  std::uint32_t reachable = 0;
  std::uint32_t running = 0;
  std::uint32_t queued = 0;
  double load_average = 0.0;

  void encode(xdr::Encoder& enc) const;
  static LivenessRecord decode(xdr::Source& src);
};

/// ReplHeartbeat payload: the failure-detector pulse plus the liveness
/// digest.  Acked with ReplAckMsg (StaleEpoch after a promotion), whose
/// seq is the highest op the backup applied: the primary computes its
/// replication lag from it.
struct ReplHeartbeatMsg {
  std::uint64_t shard_epoch = 0;
  std::vector<LivenessRecord> liveness;

  void encode(xdr::Encoder& enc) const;
  static ReplHeartbeatMsg decode(xdr::Source& src);
};

}  // namespace ninf::protocol
