// The retry-elsewhere loop both dispatchers run (paper, section 2.4: the
// metaserver "controls the parallel, fault-tolerant execution" of
// Ninf_calls).  The in-process Metaserver routes through its own
// LocalDirectory, ShardedMetaserver through a ScheduleQuery to the owning
// shard; everything after the routing decision is this one function.
#pragma once

#include <chrono>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "client/connection_pool.h"

namespace ninf::metaserver {

/// Where one attempt of a call goes.
struct Route {
  std::string server_name;  // excluded by this name once it fails
  std::string pool_key;     // the lease's key in the pool
  client::ConnectionPool::Factory factory;
};

/// Picks a server for the next attempt, never one in `excluded`.
/// Throws NotFoundError when no candidate is left.
using RouteFn = std::function<Route(
    const std::vector<std::string>& excluded,
    std::chrono::steady_clock::time_point deadline)>;

/// Called with a server's name after an attempt on it failed.
using FailureFn = std::function<void(const std::string& server_name)>;

/// Run `name(args)` on a routed server, failing over to another one on a
/// TransportError:
///  * opts.deadline_seconds bounds every attempt and backoff sleep; an
///    attempt that would start past it throws TimeoutError;
///  * a failed attempt's connection is discarded, its server excluded
///    by name and reported to `on_failure` (may be empty);
///  * backoff starts at opts.backoff_seconds, doubling, capped at 1 s;
///  * opts.retries, when non-zero, overrides `default_failovers`; past
///    that budget the last TransportError surfaces;
///  * routing that finds no candidate after a failed attempt throws a
///    TransportError naming the excluded servers and the last error;
///    NotFoundError ("no such entry") surfaces only from the first.
client::CallResult callWithFailover(const std::string& name,
                                    std::span<const protocol::ArgValue> args,
                                    const client::CallOptions& opts,
                                    std::size_t default_failovers,
                                    client::ConnectionPool& pool,
                                    const RouteFn& route,
                                    const FailureFn& on_failure);

}  // namespace ninf::metaserver
