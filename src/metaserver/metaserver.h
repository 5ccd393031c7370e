// The Ninf metaserver (paper, section 2.4).
//
// "The Ninf metaserver monitors multiple Ninf computing servers on the
//  network, and performs scheduling and load balancing of client
//  requests."
//
// Three policies are provided:
//  * RoundRobin      — oblivious rotation (baseline).
//  * LeastLoad       — NetSolve-style: lowest polled load average.  The
//                      paper shows this "might partially work for LAN ...
//                      but would not scale to WAN settings" (section 6).
//  * BandwidthAware  — the paper's recommendation (sections 4.2.2, 5.1):
//                      estimate per-server completion time from the IDL
//                      byte/flop counts, the declared client-server
//                      bandwidth, and the polled load, then pick the
//                      minimum.
//
// This class is the in-process dispatcher: it routes each attempt through
// one LocalDirectory::decide call and runs the call through the
// retry-elsewhere loop it shares with ShardedMetaserver (failover.h).  It
// also owns the transaction runner.  All server state — the registry
// table, the liveness cache and its monitor loop, and the policy switch
// itself — lives in the LocalDirectory (directory.h).  The sharded
// control plane (ring.h, replication.h, node.h) reuses the same
// directory behind wire RPCs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/connection_pool.h"
#include "client/dispatcher.h"
#include "client/transaction.h"
#include "metaserver/directory.h"
#include "protocol/message.h"

namespace ninf::metaserver {

class Metaserver : public client::CallDispatcher {
 public:
  explicit Metaserver(SchedulingPolicy policy = SchedulingPolicy::LeastLoad)
      : dir_(policy) {}

  /// Fault tolerance (paper, section 2.4: the metaserver "controls the
  /// parallel, fault-tolerant execution" of Ninf_calls): when a dispatch
  /// fails with a transport error, retry on a different server, up to
  /// `retries` failovers.  Servers that failed are skipped while any
  /// healthy alternative remains.
  void setMaxFailovers(std::size_t retries) { max_failovers_ = retries; }

  /// How long a server that just failed a dispatch is shunned by the
  /// scheduling policies.  A cooling server is only picked when every
  /// alternative is excluded too, so a flapping server cannot be
  /// re-picked attempt after attempt.  0 disables the cooldown.
  void setServerCooldown(double seconds) { cooldown_seconds_ = seconds; }

  /// Scheduling reuses a polled server status younger than this instead
  /// of polling again (0 polls on every decision).  Explicit poll() and
  /// the monitoring loop always hit the wire and refill the cache.
  void setStatusFreshness(double seconds) { dir_.setStatusFreshness(seconds); }

  /// Wall-clock bound on each monitor-channel round-trip (status poll,
  /// interface query).  A server that cannot answer within the budget
  /// is treated as unreachable for the round rather than stalling the
  /// dispatch that polled it.  <= 0 removes the bound (not advised).
  void setPollTimeout(double seconds) { dir_.setPollTimeout(seconds); }

  void addServer(ServerEntry entry) { dir_.addServer(std::move(entry)); }
  std::size_t serverCount() const { return dir_.serverCount(); }
  SchedulingPolicy policy() const { return dir_.policy(); }

  /// Poll a server's status.  Always does the wire round-trip; the
  /// result refreshes the scheduling cache.
  protocol::ServerStatusInfo poll(const std::string& server_name) {
    return dir_.poll(server_name);
  }

  /// Background monitoring (section 2.4: the metaserver "monitors
  /// multiple Ninf computing servers"): the directory's loop, one
  /// concurrent poll round over every server each `interval`.
  /// Unreachable servers are skipped (and retried next round).
  /// Idempotent; stopMonitoring() joins the thread.
  void startMonitoring(std::chrono::milliseconds interval) {
    dir_.startMonitoring(interval);
  }
  void stopMonitoring() { dir_.stopMonitoring(); }
  /// Last polled status of a server (all-zero before the first poll).
  protocol::ServerStatusInfo lastStatus(const std::string& server_name) const {
    return dir_.lastStatus(server_name);
  }

  /// Pick a server for the given call per the active policy and execute.
  client::CallResult dispatch(
      const std::string& name,
      std::span<const protocol::ArgValue> args) override;

  /// Deadline/retry-aware dispatch (callWithFailover, failover.h):
  /// opts.deadline_seconds bounds the whole fault-tolerant execution
  /// (every attempt's wire I/O plus the backoff sleeps, which start at
  /// opts.backoff_seconds; TimeoutError on expiry), and opts.retries,
  /// when non-zero, overrides setMaxFailovers() for this call.
  client::CallResult dispatch(const std::string& name,
                              std::span<const protocol::ArgValue> args,
                              const client::CallOptions& opts) override;

  /// Name of the server the policy would pick right now (for tests and
  /// for logging which server served which call).
  std::string chooseServer(const std::string& entry_name,
                           std::span<const protocol::ArgValue> args);

  /// Execute a whole transaction block with this metaserver as the
  /// dispatcher (Ninf_transaction_end).
  std::vector<client::CallResult> runTransaction(
      client::Transaction& transaction, std::size_t max_parallel = 0);

  /// The dispatch connection pool (exposed for tests/ops inspection).
  client::ConnectionPool& pool() { return pool_; }

  /// The underlying directory (exposed for the sharded node layer and
  /// for tests that exercise the registry path directly).
  LocalDirectory& directory() { return dir_; }
  const LocalDirectory& directory() const { return dir_; }

 private:
  // Tuning knobs: set before concurrent dispatch begins.
  std::size_t max_failovers_ = 2;
  double cooldown_seconds_ = 2.0;

  LocalDirectory dir_;
  client::ConnectionPool pool_;
};

}  // namespace ninf::metaserver
