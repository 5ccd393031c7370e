// The metaserver directory layer: registry storage, the liveness cache,
// and the routing decision, so neither dispatcher owns any server state.
//
// Layering (see docs/ARCHITECTURE.md, "Metaserver layering"):
//
//   Metaserver, MetaserverNode                       — callers: each asks
//        │ decide(entry, args, excluded names)          one decision per
//        ▼                                              attempt
//   LocalDirectory                                   — server table,
//        │                                              status cache and
//        │                                              its monitor loop,
//        ▼                                              policy selection
//   replication (log shipping), ring (sharding)      — scale-out
//
// The table is copy-on-write: a decision holds the version it started
// from, and every server state in it, through one shared_ptr, and picks
// by identity among the servers still registered.  So a Deregister
// applied while its poll round runs can neither free a state under it
// nor shift the pick onto another server.
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
#include <thread>
#include <vector>

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

/// Reconstructs a connection factory from a replicated endpoint string.
/// Must be thread-safe; called while applying ops and after promotions.
using FactoryResolver =
    std::function<client::ConnectionFactory(const std::string& endpoint)>;

/// The server table, the liveness cache and the scheduling policies.
/// Thread-safe; see the lock comments on each member.
class LocalDirectory {
 public:
  /// Everything a dispatcher needs to reach one picked server.
  struct Target {
    std::string name;
    std::string endpoint;
    client::ConnectionFactory factory;
    /// Last polled load average (for the observed-load histogram).
    double observed_load = 0.0;
  };

  explicit LocalDirectory(SchedulingPolicy policy = SchedulingPolicy::LeastLoad)
      : policy_(policy) {}
  ~LocalDirectory() { stopMonitoring(); }
  LocalDirectory(const LocalDirectory&) = delete;
  LocalDirectory& operator=(const LocalDirectory&) = delete;

  // ---- tuning (set before concurrent use) ----
  void setStatusFreshness(double seconds) { status_freshness_ = seconds; }
  void setPollTimeout(double seconds) { poll_timeout_ = seconds; }
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
  SchedulingPolicy policy() const { return policy_; }
  std::size_t serverCount() const;

  // ---- scheduling ----
  /// One routing decision for a call of `entry_name`.  Takes the current
  /// table version, then polls every server that is not excluded and
  /// exports the entry (reusing statuses younger than the freshness
  /// window, a failed poll's "unreachable" included) with no lock held:
  /// every poll is sent before any reply is awaited, so one decision
  /// costs at most one poll round, and none while the monitor loop keeps
  /// every status fresh.  Then it picks by policy among the servers
  /// still registered, compared by identity, so a server deregistered
  /// during the round is never picked.  Cooling servers are shunned
  /// while any other candidate remains.  Throws NotFoundError when no
  /// candidate is eligible, an empty table included.
  Target decide(const std::string& entry_name,
                std::span<const protocol::ArgValue> args,
                const std::vector<std::string>& excluded);
  /// A dispatch to `server_name` failed: start its cooldown window so a
  /// flapping server is not immediately re-picked (0 disables).
  void noteFailure(const std::string& server_name, double cooldown_seconds);

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

  // ---- monitoring ----
  /// Background monitoring (section 2.4: the metaserver "monitors
  /// multiple Ninf computing servers"): one pollAll() round now and one
  /// each `interval` after, skipped while `active` returns false (null:
  /// always poll).  With the interval inside the freshness window,
  /// decisions find every status cached.  Restarts a running loop.
  void startMonitoring(std::chrono::steady_clock::duration interval,
                       std::function<bool()> active = nullptr);
  /// Wakes the loop and joins it; a round in flight finishes first, the
  /// interval is never waited out.  Idempotent.
  void stopMonitoring();

 private:
  struct ServerState {
    explicit ServerState(ServerEntry e) : entry(std::move(e)) {}
    /// Immutable: a re-registration installs a fresh state instead.
    const ServerEntry entry;
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
    /// Steady seconds of the last poll, answered or failed, or of the
    /// adopted digest; 0 = never polled.
    double last_status_time NINF_GUARDED_BY(mutex) = 0.0;
    bool reachable NINF_GUARDED_BY(mutex) = false;
    /// Decisions that picked this server since its last completed poll.
    /// The scoring policies add them to the polled jobs, so decisions
    /// that share one cached status spread instead of piling onto one
    /// server.  Kept apart from last_status, which reports only what was
    /// polled (lastStatus(), the replicated digest).
    std::uint64_t picks_since_poll NINF_GUARDED_BY(mutex) = 0;
    /// Until this instant the server is shunned after a failed dispatch.
    std::chrono::steady_clock::time_point cooldown_until
        NINF_GUARDED_BY(mutex){};
  };
  /// Shared between table versions, so a state outlives its Deregister
  /// for as long as a decision or a poll still holds it.
  using StatePtr = std::shared_ptr<ServerState>;
  using Table = std::vector<StatePtr>;

  /// One server as a decision sees it.
  struct Candidate {
    ServerState* state = nullptr;  // kept alive by the decision's Table
    /// Not excluded, exports the entry, and (polling policies) answered.
    bool eligible = false;
    /// Inside its cooldown window when the pick ran.
    bool cooling = false;
    /// Its picks_since_poll when the pick ran.
    std::uint64_t picks = 0;
    double bytes = 0.0;  // wire bytes of this call (BandwidthAware)
    double flops = 0.0;  // flop estimate of this call (BandwidthAware)
    protocol::ServerStatusInfo status;
  };

  /// One status poll in flight.  startPoll sends the request;
  /// finishPoll waits for the reply and records the outcome.
  struct Poll {
    /// Kept alive by the caller's Table or StatePtr.
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
  /// The decision's poll round, with no directory lock held: settles
  /// each candidate's eligibility and status.
  void pollRound(const std::string& entry_name,
                 std::span<const protocol::ArgValue> args,
                 const std::vector<std::string>& excluded,
                 std::vector<Candidate>& candidates);
  /// BandwidthAware: the call's bytes and flops on one candidate, from
  /// the interface its monitor client caches.
  void describeCall(const std::string& entry_name,
                    std::span<const protocol::ArgValue> args, Candidate& c);
  std::shared_ptr<client::NinfClient> monitorOf(ServerState& state);
  /// A poll or query on `failed` failed: mark the server unreachable
  /// and forget that monitor, unless a newer one already replaced it.
  void markUnreachable(ServerState& state,
                       const std::shared_ptr<client::NinfClient>& failed);
  /// The raw policy switch over eligible candidates, skipping cooling
  /// ones when `shun_cooling`.
  const Candidate& pickAmong(const std::string& entry_name,
                             const std::vector<Candidate>& candidates,
                             bool shun_cooling) NINF_REQUIRES(mutex_);
  /// The current table version, for work done with no lock held.
  std::shared_ptr<const Table> table() const;
  StatePtr stateNamed(const std::string& name) const;
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
  /// Never modified once installed: a write installs a modified copy.
  std::shared_ptr<const Table> servers_ NINF_GUARDED_BY(mutex_) =
      std::make_shared<const Table>();
  std::size_t rr_next_ NINF_GUARDED_BY(mutex_) = 0;
  /// Last applied (reg_epoch, kind) per endpoint — kept for endpoints
  /// whose server was deregistered too, so stale retries of either op
  /// stay idempotent after the table entry is gone.
  struct AppliedKey {
    std::uint64_t reg_epoch = 0;
    protocol::RegistryOp::Kind kind = protocol::RegistryOp::Kind::Register;
  };
  std::map<std::string, AppliedKey> applied_ NINF_GUARDED_BY(mutex_);

  Mutex monitor_mutex_{"directory.monitor"};
  CondVar monitor_cv_;
  bool monitor_stop_ NINF_GUARDED_BY(monitor_mutex_) = false;
  std::thread monitor_thread_;  // joined by stopMonitoring()
};

}  // namespace ninf::metaserver
