#include "metaserver/directory.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"

namespace ninf::metaserver {

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* schedulingPolicyName(SchedulingPolicy p) {
  switch (p) {
    case SchedulingPolicy::RoundRobin: return "round-robin";
    case SchedulingPolicy::LeastLoad: return "least-load";
    case SchedulingPolicy::BandwidthAware: return "bandwidth-aware";
  }
  return "?";
}

double estimateCompletion(double bytes, double flops, double bandwidth_bps,
                          double perf_flops, double queue_depth) {
  NINF_REQUIRE(bandwidth_bps > 0 && perf_flops > 0,
               "server capacities must be positive");
  const double comm = bytes / bandwidth_bps;
  const double comp = flops / perf_flops;
  // Jobs already queued or running delay ours by roughly one compute time
  // each (they contend for the PEs, not for our network path).
  return comm + comp * (1.0 + queue_depth);
}

void LocalDirectory::addServer(ServerEntry entry) {
  NINF_REQUIRE(entry.factory != nullptr, "server entry needs a factory");
  NINF_REQUIRE(!entry.name.empty(), "server entry needs a name");
  LockGuard lock(mutex_);
  for (const auto& s : servers_) {
    NINF_REQUIRE(s->entry.name != entry.name, "duplicate server name");
  }
  auto state = std::make_unique<ServerState>();
  state->entry = std::move(entry);
  servers_.push_back(std::move(state));
}

std::size_t LocalDirectory::indexOfEndpoint(const std::string& endpoint) const {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i]->entry.endpoint == endpoint) return i;
  }
  return servers_.size();
}

protocol::RegisterResult::Status LocalDirectory::apply(
    const protocol::RegistryOp& op) {
  using Kind = protocol::RegistryOp::Kind;
  using Status = protocol::RegisterResult::Status;
  NINF_REQUIRE(!op.desc.endpoint.empty(), "registry op needs an endpoint");
  LockGuard lock(mutex_);
  // Idempotency: the identical key applied before answers Duplicate
  // without touching the table.  A register retried after a newer op on
  // the same endpoint (re-register or dereg with a higher epoch) is a
  // stale straggler and must also be a no-op.
  auto applied = applied_.find(op.desc.endpoint);
  if (applied != applied_.end()) {
    if (applied->second.reg_epoch == op.reg_epoch &&
        applied->second.kind == op.kind) {
      return Status::Duplicate;
    }
    if (applied->second.reg_epoch > op.reg_epoch) return Status::Duplicate;
  }

  const std::size_t existing = indexOfEndpoint(op.desc.endpoint);
  if (op.kind == Kind::Deregister) {
    if (existing < servers_.size()) {
      servers_.erase(servers_.begin() +
                     static_cast<std::ptrdiff_t>(existing));
      if (rr_next_ > existing) --rr_next_;
    }
    applied_[op.desc.endpoint] = {op.reg_epoch, op.kind};
    return Status::Applied;
  }

  ServerEntry entry;
  entry.name = op.desc.name;
  entry.endpoint = op.desc.endpoint;
  entry.bandwidth_bps = op.desc.bandwidth_bps;
  entry.perf_flops = op.desc.perf_flops;
  entry.entries = op.desc.entries;
  NINF_REQUIRE(resolver_ != nullptr,
               "registering by endpoint needs a FactoryResolver");
  entry.factory = resolver_(op.desc.endpoint);
  NINF_REQUIRE(entry.factory != nullptr, "resolver produced no factory");

  if (existing < servers_.size()) {
    // Re-registration (newer epoch): refresh the descriptor in place so
    // the candidate list never holds the same endpoint twice.
    servers_[existing]->entry = std::move(entry);
    servers_[existing]->reg_epoch = op.reg_epoch;
  } else {
    for (const auto& s : servers_) {
      if (s->entry.name == entry.name) {
        throw Error("server name '" + entry.name +
                    "' already registered under endpoint " +
                    s->entry.endpoint);
      }
    }
    auto state = std::make_unique<ServerState>();
    state->entry = std::move(entry);
    state->reg_epoch = op.reg_epoch;
    servers_.push_back(std::move(state));
  }
  applied_[op.desc.endpoint] = {op.reg_epoch, op.kind};
  return Status::Applied;
}

std::size_t LocalDirectory::serverCount() const {
  LockGuard lock(mutex_);
  return servers_.size();
}

std::vector<std::string> LocalDirectory::serverNames() const {
  LockGuard lock(mutex_);
  std::vector<std::string> names;
  names.reserve(servers_.size());
  for (const auto& s : servers_) names.push_back(s->entry.name);
  return names;
}

std::vector<std::size_t> LocalDirectory::indicesOf(
    const std::vector<std::string>& names) const {
  LockGuard lock(mutex_);
  std::vector<std::size_t> out;
  for (const auto& name : names) {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      if (servers_[i]->entry.name == name) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

std::vector<LocalDirectory::ServerState*> LocalDirectory::states() const {
  LockGuard lock(mutex_);
  std::vector<ServerState*> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) out.push_back(s.get());
  return out;
}

LocalDirectory::ServerState* LocalDirectory::findByName(
    const std::string& name) const {
  LockGuard lock(mutex_);
  for (auto& s : servers_) {
    if (s->entry.name == name) return s.get();
  }
  return nullptr;
}

std::shared_ptr<client::NinfClient> LocalDirectory::monitorOf(
    ServerState& state) {
  LockGuard dial(state.poll_mutex);
  if (!state.monitor) {
    state.monitor = state.entry.factory();
    if (!state.monitor) {
      throw TransportError("no status connection to '" + state.entry.name +
                           "'");
    }
  }
  return state.monitor;
}

void LocalDirectory::markUnreachable(
    ServerState& state, const std::shared_ptr<client::NinfClient>& failed) {
  {
    // The next poll redials.  The last reference, and with it the
    // channel's teardown, goes with the failed poll, outside this lock.
    LockGuard slot(state.poll_mutex);
    if (state.monitor == failed) state.monitor.reset();
  }
  LockGuard cache(state.mutex);
  state.reachable = false;
}

LocalDirectory::Poll LocalDirectory::startPoll(ServerState& state) {
  static obs::Counter& polls = obs::counter("metaserver.directory.polls");
  Poll poll;
  poll.state = &state;
  try {
    poll.monitor = monitorOf(state);
    polls.add();
    // Bounded by the poll timeout from now: a dead or slow server is
    // simply unreachable for this round.
    poll.reply = poll.monitor->startServerStatus(poll_timeout_);
  } catch (const Error&) {
    poll.error = std::current_exception();
  }
  return poll;
}

protocol::ServerStatusInfo LocalDirectory::finishPoll(Poll& poll) {
  ServerState& state = *poll.state;
  protocol::ServerStatusInfo status;
  try {
    if (poll.error) std::rethrow_exception(poll.error);
    status = poll.reply.get();
  } catch (const Error&) {
    markUnreachable(state, poll.monitor);
    throw;
  }
  LockGuard cache(state.mutex);
  state.last_status = status;
  state.last_status_time = nowSeconds();
  state.reachable = true;
  return status;
}

protocol::ServerStatusInfo LocalDirectory::poll(
    const std::string& server_name) {
  ServerState* state = findByName(server_name);
  if (!state) throw NotFoundError("server '" + server_name + "'");
  Poll p = startPoll(*state);
  return finishPoll(p);
}

void LocalDirectory::pollAll() {
  const std::vector<ServerState*> all = states();
  std::vector<Poll> polls;
  polls.reserve(all.size());
  for (ServerState* state : all) polls.push_back(startPoll(*state));
  for (Poll& p : polls) {
    try {
      finishPoll(p);
    } catch (const Error& e) {
      NINF_LOG(Debug) << "monitor: " << p.state->entry.name << ": "
                      << e.what();
    }
  }
}

protocol::ServerStatusInfo LocalDirectory::lastStatus(
    const std::string& server_name) const {
  ServerState* state = findByName(server_name);
  if (!state) throw NotFoundError("server '" + server_name + "'");
  LockGuard cache(state->mutex);
  return state->last_status;
}

std::vector<protocol::LivenessRecord> LocalDirectory::livenessDigest() const {
  const std::vector<ServerState*> all = states();
  std::vector<protocol::LivenessRecord> out;
  out.reserve(all.size());
  for (ServerState* st : all) {
    protocol::LivenessRecord rec;
    LockGuard cache(st->mutex);
    rec.server_name = st->entry.name;
    rec.reachable = st->reachable ? 1 : 0;
    rec.running = st->last_status.running;
    rec.queued = st->last_status.queued;
    rec.load_average = st->last_status.load_average;
    out.push_back(std::move(rec));
  }
  return out;
}

void LocalDirectory::adoptLiveness(
    const std::vector<protocol::LivenessRecord>& digest) {
  for (const auto& rec : digest) {
    ServerState* state = findByName(rec.server_name);
    if (!state) continue;
    LockGuard cache(state->mutex);
    state->reachable = rec.reachable != 0;
    state->last_status.running = rec.running;
    state->last_status.queued = rec.queued;
    state->last_status.load_average = rec.load_average;
    if (state->reachable) state->last_status_time = nowSeconds();
  }
}

std::vector<Candidate> LocalDirectory::snapshot(
    const std::string& entry_name, std::span<const protocol::ArgValue> args,
    const std::vector<std::size_t>& excluded) {
  // RoundRobin is oblivious: no polling at all.
  if (policy_ == SchedulingPolicy::RoundRobin) return {};

  const std::vector<ServerState*> all = states();
  std::vector<Candidate> out(all.size());
  // First pass, no waiting: settle what the declared entry lists and
  // the status cache can answer, and send a status poll for the rest.
  std::vector<std::pair<std::size_t, Poll>> polls;
  polls.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    Candidate& c = out[i];
    c.idx = i;
    // Excluded: never picked, so never polled either.
    if (std::find(excluded.begin(), excluded.end(), i) != excluded.end()) {
      continue;
    }
    ServerState& st = *all[i];
    // A declared entry list rules the server out without a poll; its
    // liveness comes from monitor rounds and replicated digests.
    const auto& entries = st.entry.entries;
    c.exports = entries.empty() || std::find(entries.begin(), entries.end(),
                                             entry_name) != entries.end();
    bool cached = false;
    {
      LockGuard cache(st.mutex);
      cached = !c.exports ||
               (status_freshness_ > 0 && st.reachable &&
                st.last_status_time > 0 &&
                nowSeconds() - st.last_status_time <= status_freshness_);
      c.reachable = st.reachable;
      c.status = st.last_status;
    }
    if (!cached) polls.emplace_back(i, startPoll(st));
  }
  // Second pass: collect the round.  Each poll runs against its own
  // deadline, so N stalled servers cost one poll timeout, not N.
  for (auto& [i, pending] : polls) {
    try {
      out[i].status = finishPoll(pending);
      out[i].reachable = true;
    } catch (const Error&) {
      out[i].reachable = false;
    }
  }
  if (policy_ == SchedulingPolicy::BandwidthAware) {
    for (Candidate& c : out) {
      if (c.reachable && c.exports) {
        describeCall(*all[c.idx], entry_name, args, c);
      }
    }
  }
  return out;
}

void LocalDirectory::describeCall(ServerState& state,
                                  const std::string& entry_name,
                                  std::span<const protocol::ArgValue> args,
                                  Candidate& c) {
  std::shared_ptr<client::NinfClient> monitor;
  try {
    monitor = monitorOf(state);
    // The interface query rides the monitor connection; the client
    // caches it, so repeat decisions cost no extra I/O.
    const auto& info = monitor->queryInterface(entry_name, poll_timeout_);
    const auto scalars = protocol::scalarArgs(info, args);
    c.bytes = static_cast<double>(info.bytesTotal(scalars));
    c.flops = static_cast<double>(info.flopsEstimate(scalars));
  } catch (const NotFoundError&) {
    c.exports = false;  // reachable, but no such entry there
  } catch (const Error&) {
    markUnreachable(state, monitor);
    c.reachable = false;
  }
}

std::size_t LocalDirectory::pick(const std::string& entry_name,
                                 const std::vector<Candidate>& candidates,
                                 const std::vector<std::size_t>& excluded) {
  bool skipped_cooling = false;
  std::size_t picked = 0;
  {
    LockGuard lock(mutex_);
    // A server inside its post-failure cooldown window is shunned like
    // an excluded one — but only while some other candidate remains, so
    // a fully-cooling pool degrades to "try anyway" instead of failing.
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::size_t> shunned = excluded;
    bool any_cooling = false;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      bool cooling = false;
      {
        LockGuard cache(servers_[i]->mutex);
        cooling = servers_[i]->cooldown_until > now;
      }
      if (cooling &&
          std::find(excluded.begin(), excluded.end(), i) == excluded.end()) {
        shunned.push_back(i);
        any_cooling = true;
      }
    }
    if (any_cooling && shunned.size() < servers_.size()) {
      try {
        picked = pickAmong(entry_name, candidates, shunned);
        skipped_cooling = true;
      } catch (const NotFoundError&) {
        // Every non-cooling candidate was unreachable or lacks the
        // entry; fall through and consider the cooling servers too.
      }
    }
    if (!skipped_cooling) {
      picked = pickAmong(entry_name, candidates, excluded);
    }
  }
  if (skipped_cooling) {
    static obs::Counter& cooldown_skips =
        obs::counter("metaserver.cooldown_skips");
    cooldown_skips.add();
  }
  return picked;
}

std::size_t LocalDirectory::pickAmong(
    const std::string& entry_name, const std::vector<Candidate>& candidates,
    const std::vector<std::size_t>& excluded) {
  NINF_REQUIRE(!servers_.empty(), "metaserver has no servers");
  auto isExcluded = [&](std::size_t i) {
    return std::find(excluded.begin(), excluded.end(), i) != excluded.end();
  };
  // A declared entry list excludes a server from this entry's candidates
  // even for the polling-free RoundRobin policy.
  auto exportsEntry = [&](std::size_t i) {
    const auto& entries = servers_[i]->entry.entries;
    return entries.empty() ||
           std::find(entries.begin(), entries.end(), entry_name) !=
               entries.end();
  };
  switch (policy_) {
    case SchedulingPolicy::RoundRobin: {
      for (std::size_t step = 0; step < servers_.size(); ++step) {
        const std::size_t idx = rr_next_ % servers_.size();
        rr_next_ = (rr_next_ + 1) % servers_.size();
        if (!isExcluded(idx) && exportsEntry(idx)) return idx;
      }
      throw NotFoundError("every server excluded for '" + entry_name + "'");
    }
    case SchedulingPolicy::LeastLoad: {
      std::size_t best = servers_.size();
      double best_load = std::numeric_limits<double>::infinity();
      for (const auto& c : candidates) {
        if (isExcluded(c.idx) || !c.reachable || !c.exports) continue;
        // Include calls we have routed but whose status poll may not yet
        // reflect, so bursts spread instead of piling on one server.
        const double load =
            c.status.load_average + c.status.running + c.status.queued;
        if (load < best_load) {
          best_load = load;
          best = c.idx;
        }
      }
      if (best == servers_.size()) {
        throw NotFoundError("no reachable server for '" + entry_name + "'");
      }
      return best;
    }
    case SchedulingPolicy::BandwidthAware: {
      std::size_t best = servers_.size();
      double best_eta = std::numeric_limits<double>::infinity();
      for (const auto& c : candidates) {
        if (isExcluded(c.idx) || !c.reachable || !c.exports) continue;
        const auto& entry = servers_[c.idx]->entry;
        const double eta = estimateCompletion(
            c.bytes, c.flops, entry.bandwidth_bps, entry.perf_flops,
            static_cast<double>(c.status.running + c.status.queued));
        if (eta < best_eta) {
          best_eta = eta;
          best = c.idx;
        }
      }
      if (best == servers_.size()) {
        throw NotFoundError("no server exports '" + entry_name + "'");
      }
      return best;
    }
  }
  throw Error("unreachable policy");
}

Directory::Target LocalDirectory::acquireTarget(std::size_t idx) {
  ServerState* picked = nullptr;
  {
    LockGuard lock(mutex_);
    NINF_REQUIRE(idx < servers_.size(), "target index out of range");
    picked = servers_[idx].get();
  }
  // entry is immutable while dispatches run and the state address is
  // stable (unique_ptr), so the rest needs no global lock.
  Target target;
  target.name = picked->entry.name;
  target.endpoint = picked->entry.endpoint;
  target.factory = picked->entry.factory;
  {
    LockGuard cache(picked->mutex);
    ++picked->dispatched;
    target.observed_load = picked->last_status.load_average;
  }
  return target;
}

void LocalDirectory::noteFailure(std::size_t idx, double cooldown_seconds) {
  if (cooldown_seconds <= 0) return;
  ServerState* state = nullptr;
  {
    LockGuard lock(mutex_);
    if (idx >= servers_.size()) return;
    state = servers_[idx].get();
  }
  LockGuard cache(state->mutex);
  state->cooldown_until =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(cooldown_seconds));
}

}  // namespace ninf::metaserver
