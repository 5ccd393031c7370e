#include "metaserver/sharded.h"

#include <algorithm>
#include <map>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "metaserver/failover.h"

namespace ninf::metaserver {

namespace {

using Clock = std::chrono::steady_clock;

constexpr Clock::time_point kUnbounded = Clock::time_point::max();

/// Extra computing servers tried after a dispatch fails (the in-process
/// metaserver's failover loop, shard-routed).
constexpr std::size_t kMaxFailovers = 2;
/// Routing rounds attempted when the caller set no deadline (a round =
/// every endpoint of the owning shard plus a ring refresh).  With a
/// deadline the deadline governs instead.
constexpr std::size_t kMaxRouteRounds = 8;
/// Per-RPC bound on control-plane round-trips (ring query, schedule
/// query, registration) when the caller's deadline is further away.
constexpr double kControlTimeoutSeconds = 2.0;

/// Sleep for `seconds`, but never past `deadline`.
void boundedSleep(double seconds, Clock::time_point deadline) {
  auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
  if (deadline != kUnbounded && until > deadline) until = deadline;
  std::this_thread::sleep_until(until);
}

}  // namespace

ShardedMetaserver::ShardedMetaserver(ShardedOptions opts)
    : opts_(std::move(opts)) {
  NINF_REQUIRE(!opts_.seeds.empty(), "sharded metaserver needs seed endpoints");
  NINF_REQUIRE(opts_.node_dialer != nullptr, "sharded metaserver needs a node dialer");
  NINF_REQUIRE(opts_.server_dialer != nullptr,
               "sharded metaserver needs a server dialer");
}

std::unique_ptr<client::NinfClient> ShardedMetaserver::dialNode(
    const std::string& endpoint) {
  auto node = opts_.node_dialer(endpoint);
  NINF_REQUIRE(node != nullptr, "node dialer returned null");
  return node;
}

double ShardedMetaserver::controlBudget(Clock::time_point deadline) const {
  if (deadline == kUnbounded) return kControlTimeoutSeconds;
  const double remaining =
      std::chrono::duration<double>(deadline - Clock::now()).count();
  return std::clamp(remaining, 0.01, kControlTimeoutSeconds);
}

void ShardedMetaserver::refreshRing() {
  // Fresh (unpooled) connections on purpose: refresh runs exactly when
  // cached topology is suspect.
  bool any = false;
  for (const auto& seed : opts_.seeds) {
    protocol::RingDescriptor view;
    try {
      auto node = dialNode(seed);
      view = node->ringInfo(kControlTimeoutSeconds);
    } catch (const Error& e) {
      NINF_LOG(Debug) << "ring refresh: seed " << seed
                      << " unreachable: " << e.what();
      continue;
    }
    any = true;
    LockGuard lock(mutex_);
    ring_.merge(view);
  }
  if (!any) {
    throw TransportError("ring refresh: no metaserver seed reachable");
  }
}

std::uint64_t ShardedMetaserver::ringEpoch() const {
  LockGuard lock(mutex_);
  return ring_.epoch();
}

protocol::RingDescriptor ShardedMetaserver::ringDescriptor() const {
  LockGuard lock(mutex_);
  return ring_.descriptor();
}

std::uint32_t ShardedMetaserver::ownerOf(const std::string& entry) {
  {
    LockGuard lock(mutex_);
    if (!ring_.empty()) return ring_.ownerOf(entry);
  }
  refreshRing();
  LockGuard lock(mutex_);
  NINF_REQUIRE(!ring_.empty(), "ring empty after a successful refresh");
  return ring_.ownerOf(entry);
}

template <typename Op>
auto ShardedMetaserver::shardLoop(const std::string& routing_entry,
                                  const std::string& what,
                                  Clock::time_point deadline, Op&& op)
    -> decltype(op(std::declval<client::NinfClient&>(), 0.0)) {
  const bool bounded = deadline != kUnbounded;
  double backoff = opts_.retry_backoff;
  std::size_t rounds = 0;
  for (;;) {
    if (bounded && Clock::now() >= deadline) {
      throw TimeoutError(what + ": routing budget exhausted");
    }
    try {
      const std::uint32_t owner = ownerOf(routing_entry);
      protocol::ShardInfo info;
      std::uint64_t generation = 0;
      {
        LockGuard lock(mutex_);
        const protocol::ShardInfo* s = ring_.shard(owner);
        NINF_REQUIRE(s != nullptr, "owning shard missing from the ring");
        info = *s;
        generation = ring_.epoch();
      }
      // Primary first; the backup answers NotPrimary until it promotes,
      // after which it serves (and the next refresh makes it primary).
      std::vector<std::string> endpoints;
      if (!info.primary_endpoint.empty()) {
        endpoints.push_back(info.primary_endpoint);
      }
      if (!info.backup_endpoint.empty() &&
          info.backup_endpoint != info.primary_endpoint) {
        endpoints.push_back(info.backup_endpoint);
      }
      for (const auto& ep : endpoints) {
        try {
          auto lease = node_pool_.acquire(
              ep, [&] { return dialNode(ep); }, generation);
          try {
            return op(*lease, controlBudget(deadline));
          } catch (const WrongShardError&) {
            throw;  // stale routing; the connection itself is fine
          } catch (const FencedError&) {
            throw;  // deposed primary; ditto
          } catch (...) {
            lease.discard();
            throw;
          }
        } catch (const WrongShardError&) {
          // Refresh below and go around with the corrected ring.
          break;
        } catch (const FencedError&) {
          // Somebody with a higher epoch exists — refresh finds it.
          break;
        } catch (const TimeoutError&) {
          if (bounded && Clock::now() >= deadline) throw;
        } catch (const TransportError&) {
          // Dead or unreachable node; try the other endpoint.
        }
      }
      try {
        refreshRing();
      } catch (const TransportError& e) {
        NINF_LOG(Debug) << what << ": " << e.what();
      }
    } catch (const TimeoutError&) {
      throw;
    } catch (const TransportError& e) {
      // Bootstrap/refresh path: no seed reachable this round.
      NINF_LOG(Debug) << what << ": " << e.what();
    }
    ++rounds;
    if (!bounded && rounds >= kMaxRouteRounds) {
      throw TransportError(what + ": shard unreachable after " +
                           std::to_string(rounds) + " routing rounds");
    }
    boundedSleep(backoff, deadline);
    backoff = std::min(backoff * 2, 1.0);
  }
}

void ShardedMetaserver::noteShardEpoch(std::uint32_t shard,
                                       std::uint64_t epoch) {
  LockGuard lock(mutex_);
  const protocol::ShardInfo* s = ring_.shard(shard);
  if (s == nullptr || epoch <= s->epoch) return;
  // We learned only the epoch, not the topology; patch the epoch in
  // place (advancing the pool generation) and let the next redirect or
  // refresh correct the endpoints if they moved too.
  protocol::RingDescriptor patch;
  patch.shards.push_back(*s);
  patch.shards.back().epoch = epoch;
  ring_.merge(patch);
}

protocol::ScheduleChoice ShardedMetaserver::route(
    const std::string& entry, const std::vector<std::string>& excluded,
    Clock::time_point deadline) {
  auto choice = shardLoop(entry, "route('" + entry + "')", deadline,
                          [&](client::NinfClient& node, double budget) {
                            return node.scheduleQuery(entry, excluded, budget);
                          });
  noteShardEpoch(ownerOf(entry), choice.shard_epoch);
  return choice;
}

client::CallResult ShardedMetaserver::dispatch(
    const std::string& name, std::span<const protocol::ArgValue> args) {
  return dispatch(name, args, client::CallOptions{});
}

client::CallResult ShardedMetaserver::dispatch(
    const std::string& name, std::span<const protocol::ArgValue> args,
    const client::CallOptions& opts) {
  // The failed servers ride the next ScheduleQuery, so the owning shard
  // starts their cooldown; no failure callback is needed here.
  return callWithFailover(
      name, args, opts, kMaxFailovers, data_pool_,
      [&](const std::vector<std::string>& excluded,
          Clock::time_point deadline) {
        protocol::ScheduleChoice choice = route(name, excluded, deadline);
        return Route{std::move(choice.server_name), choice.endpoint,
                     [this, endpoint = choice.endpoint] {
                       return opts_.server_dialer(endpoint);
                     }};
      },
      nullptr);
}

std::vector<protocol::RegisterResult> ShardedMetaserver::registerServer(
    const protocol::WireServerDesc& desc, std::uint64_t reg_epoch,
    double deadline_seconds) {
  const auto deadline =
      deadline_seconds > 0
          ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(deadline_seconds))
          : kUnbounded;
  // Partition the export list by owning shard; each shard gets the
  // descriptor narrowed to its slice of the namespace.
  std::map<std::uint32_t, std::vector<std::string>> by_shard;
  if (desc.entries.empty()) {
    by_shard[ownerOf(desc.name)] = {};
  } else {
    for (const auto& entry : desc.entries) {
      by_shard[ownerOf(entry)].push_back(entry);
    }
  }
  std::vector<protocol::RegisterResult> results;
  results.reserve(by_shard.size());
  for (const auto& [shard, entries] : by_shard) {
    (void)shard;
    protocol::WireServerDesc sub = desc;
    sub.entries = entries;
    const std::string& routing_entry =
        entries.empty() ? desc.name : entries.front();
    results.push_back(shardLoop(
        routing_entry, "register('" + desc.name + "')", deadline,
        [&](client::NinfClient& node, double budget) {
          return node.registerServer(sub, reg_epoch, budget);
        }));
  }
  return results;
}

std::vector<protocol::RegisterResult> ShardedMetaserver::deregisterServer(
    const std::string& endpoint, const std::string& name,
    const std::vector<std::string>& entries, std::uint64_t reg_epoch,
    double deadline_seconds) {
  const auto deadline =
      deadline_seconds > 0
          ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(deadline_seconds))
          : kUnbounded;
  std::map<std::uint32_t, std::string> routing;
  if (entries.empty()) {
    routing[ownerOf(name)] = name;
  } else {
    for (const auto& entry : entries) {
      routing.emplace(ownerOf(entry), entry);
    }
  }
  std::vector<protocol::RegisterResult> results;
  results.reserve(routing.size());
  for (const auto& [shard, routing_entry] : routing) {
    (void)shard;
    results.push_back(shardLoop(
        routing_entry, "deregister('" + endpoint + "')", deadline,
        [&](client::NinfClient& node, double budget) {
          return node.deregisterServer(endpoint, reg_epoch, budget);
        }));
  }
  return results;
}

}  // namespace ninf::metaserver
