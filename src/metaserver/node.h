// One metaserver node: a wire service wrapping a LocalDirectory with the
// sharded control plane.
//
// A deployment runs N shards, each a primary node plus (optionally) a
// backup.  The namespace is partitioned by the consistent-hash ring
// (ring.h): a node answers ScheduleQuery/RegisterServer only for entries
// its shard owns and redirects everything else with WrongShard, carrying
// its current ring view's epoch so the client knows whether its cached
// ring is stale.
//
// Protocol: nodes speak v1 lock-step framing.  HelloAck agrees on
// version 1 and accepts no feature bit, so a client's channel keeps its
// lock-step path and no v2 demux machinery runs on the control plane.
// Every request frame is answered by one function, frameReply(type,
// body), shaped like NinfServer::controlReply: it returns the reply's
// type and body, and the connection loop sends it.
//
// Roles and fencing:
//  * primary  — serves schedules and registrations, ships every registry
//               op and a periodic liveness heartbeat to its backup
//               (replication.h).
//  * backup   — applies the replicated stream, answers ScheduleQuery /
//               registrations with redirects, and watches the heartbeat:
//               after heartbeat_miss_budget missed intervals it promotes
//               itself — role flips to primary, the shard epoch bumps —
//               and starts serving from the adopted registry + liveness.
//  * fenced   — a deposed primary: its replication link drew a
//               StaleEpoch ack (the promoted backup's epoch outranks
//               its own).  It refuses registrations (Fenced) and
//               redirects schedules (NotPrimary) so no write can land on
//               the losing side of the split.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "metaserver/directory.h"
#include "metaserver/replication.h"
#include "metaserver/ring.h"
#include "protocol/message.h"
#include "transport/transport.h"
#include "xdr/xdr.h"

namespace ninf::metaserver {

struct NodeOptions {
  std::uint32_t shard_id = 0;
  /// Starting role.
  bool primary = true;
  /// Node-side scheduling policy.  BandwidthAware needs the call's
  /// argument values, which ScheduleQuery does not carry — only the
  /// oblivious and load-based policies are servable over the wire.
  SchedulingPolicy policy = SchedulingPolicy::LeastLoad;
  /// Directory tuning (see LocalDirectory; status polls keep its default
  /// timeout).  A positive freshness runs the directory's monitor loop
  /// every status_freshness / 2 while this node is a writable primary,
  /// so decisions schedule from the statuses it keeps fresh: the paper's
  /// metaserver "monitors multiple Ninf computing servers" (section 2.4)
  /// apart from the requests it schedules.  0 runs no loop and polls on
  /// every decision instead.
  double status_freshness = 0.25;
  double cooldown_seconds = 2.0;
  /// Replication cadence and the backup's patience: a backup promotes
  /// after heartbeat_miss_budget * heartbeat_interval_s of silence.
  double heartbeat_interval_s = 0.05;
  std::size_t heartbeat_miss_budget = 4;
  /// Reconstructs compute-server connection factories from replicated
  /// endpoints (required for the registration path).
  FactoryResolver resolver;
  /// Connects to this shard's backup node (null = unreplicated shard).
  client::ConnectionFactory backup_factory;
  /// This node's own advertised endpoint (what its ring view reports).
  std::string self_endpoint;
  /// Static shard membership (ids + configured endpoints).  Ownership
  /// derives from the id set alone, so every node may hold the same
  /// descriptor; per-shard epochs are patched in dynamically.
  protocol::RingDescriptor ring;
};

class MetaserverNode {
 public:
  explicit MetaserverNode(NodeOptions opts);
  ~MetaserverNode();

  MetaserverNode(const MetaserverNode&) = delete;
  MetaserverNode& operator=(const MetaserverNode&) = delete;

  /// Serve connections accepted from `listener` on background threads
  /// until stop().  Also starts replication (primary with a backup
  /// factory) or the promotion watchdog (backup), and the directory's
  /// monitor loop at a positive status freshness.
  void serve(std::shared_ptr<transport::Listener> listener);

  /// Stop accepting, drop connections, join threads.  Idempotent.
  /// A stopped node is indistinguishable from a crashed one to clients
  /// — the failover tests kill primaries exactly this way.
  void stop();

  LocalDirectory& directory() { return dir_; }
  bool isPrimary() const { return primary_.load(std::memory_order_acquire); }
  bool isFenced() const { return fenced_.load(std::memory_order_acquire); }
  std::uint64_t shardEpoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Current ring view: the configured membership with this node's own
  /// shard patched to its live epoch and role.
  protocol::RingDescriptor ringView() const;

  /// The replication link (nullptr on unreplicated shards and backups);
  /// exposed so chaos tests can pause it to simulate a partition.
  ReplicationLink* replication() { return repl_.get(); }

 private:
  /// One reply frame: its type and encoded body.
  struct Reply {
    protocol::MessageType type;
    xdr::Encoder body;
  };

  void serveConnection(transport::Stream& stream);
  /// The reply to one request frame, framing-agnostic.  Throws
  /// ProtocolError on a type the node does not serve.
  Reply frameReply(protocol::MessageType type,
                   std::span<const std::uint8_t> body);
  Reply scheduleReply(std::span<const std::uint8_t> body);
  Reply registryReply(std::span<const std::uint8_t> body);
  /// The ReplAck to a replicated frame stamped `sender_epoch`.  The
  /// epoch fence answers a deposed primary StaleEpoch with this node's
  /// epoch; otherwise the sender's epoch is adopted, the frame counts as
  /// a heartbeat, `apply` runs, and the ack carries the highest op seq
  /// applied here.
  Reply replicatedReply(std::uint64_t sender_epoch,
                        const std::function<void()>& apply);
  Reply wrongShard(const std::string& entry, std::uint32_t owner,
                   protocol::RedirectReason reason) const;
  /// True when this node may apply writes right now.
  bool writable() const {
    return primary_.load(std::memory_order_acquire) &&
           !fenced_.load(std::memory_order_acquire);
  }
  void watchdogLoop();
  void promote();

  NodeOptions opts_;
  LocalDirectory dir_;
  HashRing ownership_;  // built once from opts_.ring; ids never change

  std::atomic<bool> primary_;
  std::atomic<bool> fenced_{false};
  std::atomic<std::uint64_t> epoch_;
  /// Highest primary epoch seen on the replicated stream (backup side).
  std::atomic<std::uint64_t> seen_epoch_{0};
  /// Last heartbeat arrival, steady seconds (backup side).
  std::atomic<double> last_heartbeat_{0.0};
  /// Highest op seq taken from the replicated stream (backup side), a
  /// replay that failed to apply included, as its ack says; every
  /// ReplAck reports it, so the primary's lag counts what the backup
  /// holds.
  std::atomic<std::uint64_t> applied_seq_{0};
  /// Local op log cursor on unreplicated shards (the link owns it
  /// otherwise).
  std::atomic<std::uint64_t> local_seq_{0};

  std::unique_ptr<ReplicationLink> repl_;

  std::shared_ptr<transport::Listener> listener_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::thread watchdog_;
  /// One accepted connection and the thread serving it.
  struct Conn {
    std::thread thread;
    std::weak_ptr<transport::Stream> stream;  // closed by stop()
  };
  Mutex conn_mutex_{"node.conns"};
  std::map<std::uint64_t, Conn> conns_ NINF_GUARDED_BY(conn_mutex_);
  /// Ids of connections whose thread has returned; the accept loop
  /// joins and erases them.
  std::vector<std::uint64_t> finished_ NINF_GUARDED_BY(conn_mutex_);
};

}  // namespace ninf::metaserver
