// Client-side dispatcher for a sharded metaserver deployment.
//
// A ShardedMetaserver is a CallDispatcher (like the in-process
// Metaserver) whose scheduling decisions come from remote metaserver
// nodes instead of a local directory:
//
//   dispatch(entry) ─► route(): ring lookup ─► owning shard primary
//        │                (cached RingDescriptor; ScheduleQuery RPC)
//        ▼
//   call the chosen computing server directly (pooled data connection)
//
// Ring bootstrap and staleness: the ring is fetched from the configured
// seed endpoints (RingQuery/RingInfo) and cached.  Every WrongShard
// redirect triggers a refresh — the views of all reachable seeds are
// merged (per-shard max epoch, see ring.h), so a promoted backup's claim
// wins over a deposed primary's.  The merged ring epoch is handed to the
// connection pool as the reuse generation: a promotion flushes every
// node connection negotiated under the old topology.
//
// Failure envelope: route() keeps trying (primary, then backup, refresh,
// backoff) until its deadline; with no deadline the rounds are bounded
// so a dead cluster still surfaces a typed TransportError.  Dispatch
// failovers across computing servers run the loop the in-process
// metaserver runs (callWithFailover, failover.h), with route() as its
// routing step: a failed server's name joins the excluded list the next
// ScheduleQuery carries, so the owning shard starts its cooldown.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/connection_pool.h"
#include "client/dispatcher.h"
#include "common/sync.h"
#include "metaserver/ring.h"

namespace ninf::metaserver {

/// Dials an endpoint string (host:port, or a test alias) to a live
/// connection.  Must be thread-safe.
using EndpointDialer =
    std::function<std::unique_ptr<client::NinfClient>(const std::string&)>;

struct ShardedOptions {
  /// Metaserver node endpoints to bootstrap/refresh the ring from
  /// (typically every primary and backup).
  std::vector<std::string> seeds;
  /// Dials metaserver nodes (control plane).
  EndpointDialer node_dialer;
  /// Dials computing servers (data plane).
  EndpointDialer server_dialer;
  /// First sleep after an unsuccessful routing round; doubles per round,
  /// capped at 1 s.
  double retry_backoff = 0.02;
};

class ShardedMetaserver : public client::CallDispatcher {
 public:
  explicit ShardedMetaserver(ShardedOptions opts);

  /// Fetch + merge the ring views of every reachable seed.  Throws
  /// TransportError when none answers.  Thread-safe; concurrent
  /// refreshes coalesce on the merge.
  void refreshRing();

  std::uint64_t ringEpoch() const;
  protocol::RingDescriptor ringDescriptor() const;
  /// Shard id owning `entry` under the cached ring (refreshes once if
  /// the ring is still empty).
  std::uint32_t ownerOf(const std::string& entry);

  /// Resolve `entry` to a computing server via the owning shard,
  /// retrying through redirects/refreshes/backup promotion until
  /// `deadline` (or, with none, a fixed bound of routing rounds).  Throws
  /// NotFoundError when the owning shard has no eligible candidate,
  /// TimeoutError past the deadline, TransportError when the shard
  /// stays unreachable.
  protocol::ScheduleChoice route(
      const std::string& entry, const std::vector<std::string>& excluded,
      std::chrono::steady_clock::time_point deadline);

  client::CallResult dispatch(
      const std::string& name,
      std::span<const protocol::ArgValue> args) override;
  client::CallResult dispatch(const std::string& name,
                              std::span<const protocol::ArgValue> args,
                              const client::CallOptions& opts) override;

  /// Register a computing server with every shard owning one of its
  /// entries (desc.entries empty = the shard owning desc.name).  Each
  /// shard receives the descriptor narrowed to its own entries.
  /// Idempotent on (desc.endpoint, reg_epoch); routed like route().
  std::vector<protocol::RegisterResult> registerServer(
      const protocol::WireServerDesc& desc, std::uint64_t reg_epoch,
      double deadline_seconds = 0.0);
  /// Deregister from the shards owning `entries` (the registration's
  /// routing set).
  std::vector<protocol::RegisterResult> deregisterServer(
      const std::string& endpoint, const std::string& name,
      const std::vector<std::string>& entries, std::uint64_t reg_epoch,
      double deadline_seconds = 0.0);

  /// Control-plane pool (node connections, ring-epoch generations) and
  /// data-plane pool (computing servers), exposed for tests/ops.
  client::ConnectionPool& nodePool() { return node_pool_; }
  client::ConnectionPool& dataPool() { return data_pool_; }

 private:
  /// The shared redirect/refresh/backoff loop: resolve the shard owning
  /// `routing_entry`, run `op` against its primary (then backup), and
  /// keep going through WrongShard/Fenced redirects and transport
  /// failures until the deadline or round bound.
  template <typename Op>
  auto shardLoop(const std::string& routing_entry, const std::string& what,
                 std::chrono::steady_clock::time_point deadline, Op&& op)
      -> decltype(op(std::declval<client::NinfClient&>(), 0.0));

  std::unique_ptr<client::NinfClient> dialNode(const std::string& endpoint);
  /// Fold a shard epoch learned from a reply (ScheduleChoice/RegisterAck
  /// carry the serving node's epoch) into the cached ring, so a
  /// promotion noticed on the data path advances the pool generation
  /// even when no redirect forced a refresh.
  void noteShardEpoch(std::uint32_t shard, std::uint64_t epoch);
  /// Seconds left until `deadline` clamped to the control timeout;
  /// 0 (unbounded RPC) never escapes — a floor applies.
  double controlBudget(std::chrono::steady_clock::time_point deadline) const;

  ShardedOptions opts_;
  client::ConnectionPool node_pool_;
  client::ConnectionPool data_pool_;

  mutable Mutex mutex_{"sharded.ring"};
  HashRing ring_ NINF_GUARDED_BY(mutex_);
};

}  // namespace ninf::metaserver
