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
  for (const auto& s : *servers_) {
    NINF_REQUIRE(s->entry.name != entry.name, "duplicate server name");
  }
  auto next = std::make_shared<Table>(*servers_);
  next->push_back(std::make_shared<ServerState>(std::move(entry)));
  servers_ = std::move(next);
}

std::size_t LocalDirectory::indexOfEndpoint(const std::string& endpoint) const {
  for (std::size_t i = 0; i < servers_->size(); ++i) {
    if ((*servers_)[i]->entry.endpoint == endpoint) return i;
  }
  return servers_->size();
}

protocol::RegisterResult::Status LocalDirectory::apply(
    const protocol::RegistryOp& op) {
  using Kind = protocol::RegistryOp::Kind;
  using Status = protocol::RegisterResult::Status;
  NINF_REQUIRE(!op.desc.endpoint.empty(), "registry op needs an endpoint");
  // Declared before the lock, so the replaced table version, and a state
  // only it held, are torn down (status channel closed) after the lock
  // is released.
  std::shared_ptr<const Table> retired;
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
    if (existing < servers_->size()) {
      auto next = std::make_shared<Table>(*servers_);
      next->erase(next->begin() + static_cast<std::ptrdiff_t>(existing));
      retired = std::exchange(servers_, std::move(next));
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

  auto next = std::make_shared<Table>(*servers_);
  auto state = std::make_shared<ServerState>(std::move(entry));
  if (existing < next->size()) {
    // Re-registration (newer epoch): a fresh state in the same slot, so
    // the candidate list never holds the same endpoint twice.
    (*next)[existing] = std::move(state);
  } else {
    for (const auto& s : *next) {
      if (s->entry.name == state->entry.name) {
        throw Error("server name '" + state->entry.name +
                    "' already registered under endpoint " +
                    s->entry.endpoint);
      }
    }
    next->push_back(std::move(state));
  }
  retired = std::exchange(servers_, std::move(next));
  applied_[op.desc.endpoint] = {op.reg_epoch, op.kind};
  return Status::Applied;
}

std::size_t LocalDirectory::serverCount() const {
  LockGuard lock(mutex_);
  return servers_->size();
}

std::shared_ptr<const LocalDirectory::Table> LocalDirectory::table() const {
  LockGuard lock(mutex_);
  return servers_;
}

LocalDirectory::StatePtr LocalDirectory::stateNamed(
    const std::string& name) const {
  LockGuard lock(mutex_);
  for (const auto& s : *servers_) {
    if (s->entry.name == name) return s;
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
  // Stamped like a successful poll: decisions inside the freshness
  // window take the failure from the cache instead of redialling.
  LockGuard cache(state.mutex);
  state.reachable = false;
  state.last_status_time = nowSeconds();
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
  state.picks_since_poll = 0;
  return status;
}

protocol::ServerStatusInfo LocalDirectory::poll(
    const std::string& server_name) {
  const StatePtr state = stateNamed(server_name);
  if (!state) throw NotFoundError("server '" + server_name + "'");
  Poll p = startPoll(*state);
  return finishPoll(p);
}

void LocalDirectory::pollAll() {
  const std::shared_ptr<const Table> all = table();
  std::vector<Poll> polls;
  polls.reserve(all->size());
  for (const StatePtr& state : *all) polls.push_back(startPoll(*state));
  for (Poll& p : polls) {
    try {
      finishPoll(p);
    } catch (const Error& e) {
      NINF_LOG(Debug) << "monitor: " << p.state->entry.name << ": "
                      << e.what();
    }
  }
}

void LocalDirectory::startMonitoring(
    std::chrono::steady_clock::duration interval,
    std::function<bool()> active) {
  NINF_REQUIRE(interval.count() > 0, "monitoring interval must be positive");
  stopMonitoring();
  {
    LockGuard lock(monitor_mutex_);
    monitor_stop_ = false;
  }
  monitor_thread_ = std::thread([this, interval, active = std::move(active)] {
    for (;;) {
      if (!active || active()) pollAll();
      UniqueLock lock(monitor_mutex_);
      if (monitor_cv_.wait_for(lock, interval,
                               [this] { return monitor_stop_; })) {
        return;
      }
    }
  });
}

void LocalDirectory::stopMonitoring() {
  {
    LockGuard lock(monitor_mutex_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_thread_.joinable()) monitor_thread_.join();
}

protocol::ServerStatusInfo LocalDirectory::lastStatus(
    const std::string& server_name) const {
  const StatePtr state = stateNamed(server_name);
  if (!state) throw NotFoundError("server '" + server_name + "'");
  LockGuard cache(state->mutex);
  return state->last_status;
}

std::vector<protocol::LivenessRecord> LocalDirectory::livenessDigest() const {
  const std::shared_ptr<const Table> all = table();
  std::vector<protocol::LivenessRecord> out;
  out.reserve(all->size());
  for (const StatePtr& st : *all) {
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
    const StatePtr state = stateNamed(rec.server_name);
    if (!state) continue;
    LockGuard cache(state->mutex);
    state->reachable = rec.reachable != 0;
    state->last_status.running = rec.running;
    state->last_status.queued = rec.queued;
    state->last_status.load_average = rec.load_average;
    state->last_status_time = nowSeconds();
  }
}

LocalDirectory::Target LocalDirectory::decide(
    const std::string& entry_name, std::span<const protocol::ArgValue> args,
    const std::vector<std::string>& excluded) {
  const std::shared_ptr<const Table> round = table();
  std::vector<Candidate> candidates(round->size());
  for (std::size_t i = 0; i < round->size(); ++i) {
    candidates[i].state = (*round)[i].get();
  }
  pollRound(entry_name, args, excluded, candidates);

  bool skipped_cooling = false;
  ServerState* picked = nullptr;
  double observed_load = 0.0;
  {
    LockGuard lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    bool any_cooling = false;
    for (Candidate& c : candidates) {
      // Compared by identity: a server deregistered (or re-registered)
      // during the round is no longer a candidate.
      if (servers_ != round &&
          std::none_of(servers_->begin(), servers_->end(),
                       [&](const StatePtr& s) { return s.get() == c.state; })) {
        c.eligible = false;
      }
      if (!c.eligible) continue;
      LockGuard cache(c.state->mutex);
      c.cooling = c.state->cooldown_until > now;
      c.picks = c.state->picks_since_poll;
      any_cooling = any_cooling || c.cooling;
    }
    // A server inside its post-failure cooldown window is shunned like
    // an excluded one — but only while some other candidate remains, so
    // a fully-cooling pool degrades to "try anyway" instead of failing.
    if (any_cooling) {
      try {
        picked = pickAmong(entry_name, candidates, true).state;
        skipped_cooling = true;
      } catch (const NotFoundError&) {
        // Every non-cooling candidate was unreachable or lacks the
        // entry; consider the cooling servers too.
      }
    }
    if (!picked) picked = pickAmong(entry_name, candidates, false).state;
    // Counted under the table lock, so the next decision's scores see
    // this pick however soon it runs.
    LockGuard cache(picked->mutex);
    ++picked->picks_since_poll;
    observed_load = picked->last_status.load_average;
  }
  if (skipped_cooling) {
    static obs::Counter& cooldown_skips =
        obs::counter("metaserver.cooldown_skips");
    cooldown_skips.add();
  }
  // entry is immutable and `round` keeps the state alive, so the target
  // needs no table lock.
  return Target{picked->entry.name, picked->entry.endpoint,
                picked->entry.factory, observed_load};
}

void LocalDirectory::pollRound(const std::string& entry_name,
                               std::span<const protocol::ArgValue> args,
                               const std::vector<std::string>& excluded,
                               std::vector<Candidate>& candidates) {
  // First pass, no waiting: settle what the exclusions, the declared
  // entry lists and the status cache can answer, and send a status poll
  // for the rest.
  std::vector<std::pair<Candidate*, Poll>> polls;
  polls.reserve(candidates.size());
  for (Candidate& c : candidates) {
    const ServerEntry& entry = c.state->entry;
    // Excluded: never picked, so never polled either.
    if (std::find(excluded.begin(), excluded.end(), entry.name) !=
        excluded.end()) {
      continue;
    }
    // A declared entry list rules the server out without a poll, even
    // for the polling-free RoundRobin policy; its liveness comes from
    // monitor rounds and replicated digests.
    if (!entry.entries.empty() &&
        std::find(entry.entries.begin(), entry.entries.end(), entry_name) ==
            entry.entries.end()) {
      continue;
    }
    // RoundRobin is oblivious: no polling at all.
    if (policy_ == SchedulingPolicy::RoundRobin) {
      c.eligible = true;
      continue;
    }
    bool cached = false;
    {
      LockGuard cache(c.state->mutex);
      cached = status_freshness_ > 0 && c.state->last_status_time > 0 &&
               nowSeconds() - c.state->last_status_time <= status_freshness_;
      c.eligible = c.state->reachable;
      c.status = c.state->last_status;
    }
    if (!cached) polls.emplace_back(&c, startPoll(*c.state));
  }
  // Second pass: collect the round.  Each poll runs against its own
  // deadline, so N stalled servers cost one poll timeout, not N.
  for (auto& [c, pending] : polls) {
    try {
      c->status = finishPoll(pending);
      c->eligible = true;
    } catch (const Error&) {
      c->eligible = false;
    }
  }
  if (policy_ == SchedulingPolicy::BandwidthAware) {
    for (Candidate& c : candidates) {
      if (c.eligible) describeCall(entry_name, args, c);
    }
  }
}

void LocalDirectory::describeCall(const std::string& entry_name,
                                  std::span<const protocol::ArgValue> args,
                                  Candidate& c) {
  std::shared_ptr<client::NinfClient> monitor;
  try {
    monitor = monitorOf(*c.state);
    // The interface query rides the monitor connection; the client
    // caches it, so repeat decisions cost no extra I/O.
    const auto& info = monitor->queryInterface(entry_name, poll_timeout_);
    const auto scalars = protocol::scalarArgs(info, args);
    c.bytes = static_cast<double>(info.bytesTotal(scalars));
    c.flops = static_cast<double>(info.flopsEstimate(scalars));
  } catch (const NotFoundError&) {
    c.eligible = false;  // reachable, but no such entry there
  } catch (const Error&) {
    markUnreachable(*c.state, monitor);
    c.eligible = false;
  }
}

const LocalDirectory::Candidate& LocalDirectory::pickAmong(
    const std::string& entry_name, const std::vector<Candidate>& candidates,
    bool shun_cooling) {
  auto usable = [&](const Candidate& c) {
    return c.eligible && !(shun_cooling && c.cooling);
  };
  if (policy_ == SchedulingPolicy::RoundRobin) {
    const Table& table = *servers_;
    for (std::size_t step = 0; step < table.size(); ++step) {
      const ServerState* next = table[rr_next_ % table.size()].get();
      rr_next_ = (rr_next_ + 1) % table.size();
      for (const Candidate& c : candidates) {
        if (c.state == next && usable(c)) return c;
      }
    }
    throw NotFoundError("every server excluded for '" + entry_name + "'");
  }
  // LeastLoad and BandwidthAware: the candidate with the lowest score.
  const Candidate* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  for (const Candidate& c : candidates) {
    if (!usable(c)) continue;
    const double jobs = static_cast<double>(c.status.running) +
                        c.status.queued + static_cast<double>(c.picks);
    // LeastLoad adds running and queued calls the load average may not
    // reflect yet, and the picks the last poll cannot have seen, so
    // bursts spread instead of piling on one server.
    const double score =
        policy_ == SchedulingPolicy::LeastLoad
            ? c.status.load_average + jobs
            : estimateCompletion(c.bytes, c.flops,
                                 c.state->entry.bandwidth_bps,
                                 c.state->entry.perf_flops, jobs);
    if (score < best_score) {
      best_score = score;
      best = &c;
    }
  }
  if (!best) {
    throw NotFoundError("no reachable server for '" + entry_name + "'");
  }
  return *best;
}

void LocalDirectory::noteFailure(const std::string& server_name,
                                 double cooldown_seconds) {
  if (cooldown_seconds <= 0) return;
  const StatePtr state = stateNamed(server_name);
  if (!state) return;
  LockGuard cache(state->mutex);
  state->cooldown_until =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(cooldown_seconds));
}

}  // namespace ninf::metaserver
