// The metaserver directory layer: registry storage, the liveness cache,
// and candidate picking, extracted from the monolithic Metaserver so the
// dispatch logic no longer owns any server state.
//
// Layering (see docs/ARCHITECTURE.md, "Metaserver layering"):
//
//   dispatch loops (Metaserver, MetaserverNode)      — stateless policy
//        │ Directory interface                          orchestration
//        ▼
//   LocalDirectory                                   — server table,
//        │                                              status cache,
//        ▼                                              policy selection
//   replication (log shipping), ring (sharding)      — scale-out
//
// Two write paths feed a LocalDirectory:
//  * addServer(): the historical in-process path — caller supplies a
//    live connection factory directly.
//  * apply(RegistryOp): the replicatable path — ops are declarative
//    (protocol::WireServerDesc), idempotent on (endpoint, reg_epoch),
//    and factories are reconstructed through a FactoryResolver, so the
//    same op stream replayed on a backup reproduces the same table.
//
// Idempotency contract (the fix for double-counted retries): a client
// retrying a timed-out register re-sends the identical (endpoint,
// reg_epoch) pair; the directory remembers the last applied key per
// endpoint — including tombstones for deregistered ones — and answers
// Duplicate instead of growing the candidate list a second time.  The
// replication log depends on this: the backup replays whatever the
// primary acked, duplicates and all.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "client/connection_pool.h"
#include "client/dispatcher.h"
#include "common/sync.h"
#include "protocol/message.h"
#include "protocol/meta_wire.h"

namespace ninf::metaserver {

enum class SchedulingPolicy { RoundRobin, LeastLoad, BandwidthAware };

const char* schedulingPolicyName(SchedulingPolicy p);

/// Static description of one computing server known to the metaserver.
struct ServerEntry {
  std::string name;
  client::ConnectionFactory factory;
  /// Declared client->server throughput, bytes/second (from Table 2-style
  /// measurements or the registry).
  double bandwidth_bps = 1e6;
  /// Declared peak compute rate, flops (P_calc in section 3.1).
  double perf_flops = 1e8;
  /// Resolvable address, carried through replication (empty for purely
  /// in-process entries added via addServer).
  std::string endpoint;
  /// Entry names this server exports; empty = everything.
  std::vector<std::string> entries;
};

/// Pure scoring helper, exposed for unit tests: expected completion time
/// of a job of `bytes` transfer and `flops` compute on a server with
/// `queue_depth` jobs ahead of it.
double estimateCompletion(double bytes, double flops, double bandwidth_bps,
                          double perf_flops, double queue_depth);

/// One scheduling-round snapshot of a server, produced by snapshot()
/// with no global lock held during I/O.
struct Candidate {
  std::size_t idx = 0;
  bool reachable = false;
  bool exports = true;  // entry known to this server (BandwidthAware)
  double bytes = 0.0;   // wire bytes of this call (BandwidthAware)
  double flops = 0.0;   // flop estimate of this call (BandwidthAware)
  protocol::ServerStatusInfo status;
};

/// Reconstructs a connection factory from a replicated endpoint string.
/// Must be thread-safe; called while applying ops and after promotions.
using FactoryResolver =
    std::function<client::ConnectionFactory(const std::string& endpoint)>;

/// What the dispatch layers see: a read-mostly candidate store.  Dispatch
/// logic snapshots candidates, picks one, acquires its target, and
/// reports failures back — it never touches server state directly.
class Directory {
 public:
  /// Everything a dispatcher needs to reach one picked server.
  struct Target {
    std::string name;
    std::string endpoint;
    client::ConnectionFactory factory;
    /// Last polled load average (for the observed-load histogram).
    double observed_load = 0.0;
  };

  virtual ~Directory() = default;

  virtual SchedulingPolicy policy() const = 0;
  virtual std::size_t serverCount() const = 0;

  /// Poll every non-excluded server that exports the entry (honoring
  /// the freshness window) and return the snapshot the policies decide
  /// over.  All network I/O happens here, with no directory lock held
  /// across it: every needed poll is sent before any reply is awaited,
  /// so one decision costs one poll round.
  virtual std::vector<Candidate> snapshot(
      const std::string& entry_name,
      std::span<const protocol::ArgValue> args,
      const std::vector<std::size_t>& excluded) = 0;

  /// Policy selection over a snapshot, with cooling servers shunned
  /// while any other candidate remains.  Throws NotFoundError when no
  /// candidate is eligible.
  virtual std::size_t pick(const std::string& entry_name,
                           const std::vector<Candidate>& candidates,
                           const std::vector<std::size_t>& excluded) = 0;

  /// Resolve a picked index to its connection info and count the
  /// dispatch against it.
  virtual Target acquireTarget(std::size_t idx) = 0;

  /// A dispatch through `idx` failed: start its cooldown window so a
  /// flapping server is not immediately re-picked (0 disables).
  virtual void noteFailure(std::size_t idx, double cooldown_seconds) = 0;
};

/// The concrete directory: server table + liveness cache + policies.
/// Thread-safe; see the lock comments on each member.
class LocalDirectory : public Directory {
 public:
  explicit LocalDirectory(SchedulingPolicy policy = SchedulingPolicy::LeastLoad)
      : policy_(policy) {}

  // ---- tuning (set before concurrent use) ----
  void setStatusFreshness(double seconds) { status_freshness_ = seconds; }
  double statusFreshness() const { return status_freshness_; }
  void setPollTimeout(double seconds) { poll_timeout_ = seconds; }
  double pollTimeout() const { return poll_timeout_; }
  /// Installs the endpoint->factory resolver used by apply().
  void setResolver(FactoryResolver resolver) {
    resolver_ = std::move(resolver);
  }

  // ---- registry storage ----
  /// Direct in-process registration (duplicate names rejected).
  void addServer(ServerEntry entry);
  /// Apply one replicatable op, idempotent on (endpoint, reg_epoch).
  /// Register ops need a resolver (or an endpoint-free factory already
  /// present); Deregister of an unknown endpoint is a Duplicate, not an
  /// error — a retried dereg whose first try won must succeed quietly.
  protocol::RegisterResult::Status apply(const protocol::RegistryOp& op);
  std::vector<std::string> serverNames() const;

  // ---- liveness ----
  /// Poll a server's status.  Always does the wire round-trip; the
  /// result refreshes the scheduling cache.
  protocol::ServerStatusInfo poll(const std::string& server_name);
  /// One monitor round: poll every registered server concurrently.  A
  /// server that fails its poll is marked unreachable and skipped.
  void pollAll();
  /// Last polled status of a server (all-zero before the first poll).
  protocol::ServerStatusInfo lastStatus(const std::string& server_name) const;
  /// Export the soft liveness state (replication heartbeat payload).
  std::vector<protocol::LivenessRecord> livenessDigest() const;
  /// Adopt a replicated liveness digest (backup side): a promoted backup
  /// starts scheduling from the primary's last view instead of polling
  /// the world cold.  Unknown server names are ignored.
  void adoptLiveness(const std::vector<protocol::LivenessRecord>& digest);

  /// Translate server names to table indices (unknown names skipped) —
  /// the wire ScheduleQuery carries names, the picker wants indices.
  std::vector<std::size_t> indicesOf(
      const std::vector<std::string>& names) const;

  // ---- Directory interface ----
  SchedulingPolicy policy() const override { return policy_; }
  std::size_t serverCount() const override;
  std::vector<Candidate> snapshot(
      const std::string& entry_name,
      std::span<const protocol::ArgValue> args,
      const std::vector<std::size_t>& excluded) override;
  std::size_t pick(const std::string& entry_name,
                   const std::vector<Candidate>& candidates,
                   const std::vector<std::size_t>& excluded) override;
  Target acquireTarget(std::size_t idx) override;
  void noteFailure(std::size_t idx, double cooldown_seconds) override;

 private:
  struct ServerState {
    ServerEntry entry;  // mutable only under the owning directory's mutex_
    /// Registration epoch of the op that produced this entry (0 for
    /// addServer) — half of the idempotency key.
    std::uint64_t reg_epoch = 0;
    /// Guards the lazy dial of `monitor` and the slot, nothing more.
    /// Each poller copies the pointer out and runs its I/O with no
    /// directory lock held, so polls to one server share its channel.
    /// Sits above channel.setup (the dial installs the channel's
    /// reconnect factory); never nested inside another directory lock.
    Mutex poll_mutex{"directory.poll"};
    /// Status channel, dialled on the first poll.
    std::shared_ptr<client::NinfClient> monitor NINF_GUARDED_BY(poll_mutex);
    /// Cached poll results live under a per-state mutex (not the global
    /// table lock), so reading one server's cache never serializes
    /// against dispatches scanning the table.  Lock order: the global
    /// mutex_ may be held while taking this one, never the reverse.
    mutable Mutex mutex{"directory.server"};
    protocol::ServerStatusInfo last_status NINF_GUARDED_BY(mutex);
    /// Steady seconds; 0 = never polled.
    double last_status_time NINF_GUARDED_BY(mutex) = 0.0;
    bool reachable NINF_GUARDED_BY(mutex) = false;
    /// Calls routed here by the metaserver.
    std::uint64_t dispatched NINF_GUARDED_BY(mutex) = 0;
    /// Until this instant the server is shunned after a failed dispatch.
    std::chrono::steady_clock::time_point cooldown_until
        NINF_GUARDED_BY(mutex){};
  };

  /// One status poll in flight.  startPoll sends the request;
  /// finishPoll waits for the reply and records the outcome.
  struct Poll {
    ServerState* state = nullptr;
    std::shared_ptr<client::NinfClient> monitor;
    /// Declared after `monitor`, so it is destroyed first.
    client::NinfClient::StatusPoll reply;
    /// Set when the dial or the send failed.
    std::exception_ptr error;
  };
  Poll startPoll(ServerState& state);
  /// Throws what the poll failed with, after markUnreachable.
  protocol::ServerStatusInfo finishPoll(Poll& poll);
  /// BandwidthAware: the call's bytes and flops on one candidate, from
  /// the interface its monitor client caches.
  void describeCall(ServerState& state, const std::string& entry_name,
                    std::span<const protocol::ArgValue> args, Candidate& c);
  std::shared_ptr<client::NinfClient> monitorOf(ServerState& state);
  /// A poll or query on `failed` failed: mark the server unreachable
  /// and forget that monitor, unless a newer one already replaced it.
  void markUnreachable(ServerState& state,
                       const std::shared_ptr<client::NinfClient>& failed);
  /// The raw policy switch, honoring only the explicit exclusions.
  std::size_t pickAmong(const std::string& entry_name,
                        const std::vector<Candidate>& candidates,
                        const std::vector<std::size_t>& excluded)
      NINF_REQUIRES(mutex_);
  std::vector<ServerState*> states() const;
  ServerState* findByName(const std::string& name) const;
  std::size_t indexOfEndpoint(const std::string& endpoint) const
      NINF_REQUIRES(mutex_);

  SchedulingPolicy policy_;
  double status_freshness_ = 0.25;
  double poll_timeout_ = 1.0;
  FactoryResolver resolver_;  // immutable once serving
  /// Guards the server table itself, the round-robin cursor, and the
  /// applied-op tombstones; cached per-server state lives under each
  /// ServerState's own mutex.
  mutable Mutex mutex_{"directory.global"};
  /// unique_ptr for stable addresses: per-state mutexes are held while
  /// the vector may grow under addServer/apply.
  std::vector<std::unique_ptr<ServerState>> servers_ NINF_GUARDED_BY(mutex_);
  std::size_t rr_next_ NINF_GUARDED_BY(mutex_) = 0;
  /// Last applied (reg_epoch, kind) per endpoint — kept for endpoints
  /// whose server was deregistered too, so stale retries of either op
  /// stay idempotent after the table entry is gone.
  struct AppliedKey {
    std::uint64_t reg_epoch = 0;
    protocol::RegistryOp::Kind kind = protocol::RegistryOp::Kind::Register;
  };
  std::map<std::string, AppliedKey> applied_ NINF_GUARDED_BY(mutex_);
};

}  // namespace ninf::metaserver
