#include "metaserver/metaserver.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ninf::metaserver {

std::string Metaserver::chooseServer(
    const std::string& entry_name,
    std::span<const protocol::ArgValue> args) {
  const auto candidates = dir_.snapshot(entry_name, args, {});
  const std::size_t idx = dir_.pick(entry_name, candidates, {});
  return dir_.serverNames().at(idx);
}

client::CallResult Metaserver::dispatch(
    const std::string& name, std::span<const protocol::ArgValue> args) {
  return dispatch(name, args, client::CallOptions{});
}

client::CallResult Metaserver::dispatch(const std::string& name,
                                        std::span<const protocol::ArgValue> args,
                                        const client::CallOptions& opts) {
  // One span for the whole dispatch (scheduling + failover + the call):
  // it nests under any caller span and is the parent the scheduling and
  // session-layer spans — and, via wire propagation, the server's
  // queue-wait/compute spans — hang from.
  obs::Span dispatch_span("dispatch");
  dispatch_span.setDetail(name);
  using clock = std::chrono::steady_clock;
  const bool bounded = opts.deadline_seconds > 0;
  const clock::time_point deadline =
      bounded ? clock::now() + std::chrono::duration_cast<clock::duration>(
                                   std::chrono::duration<double>(
                                       opts.deadline_seconds))
              : clock::time_point::max();
  const std::size_t budget =
      opts.retries > 0 ? opts.retries : max_failovers_;
  double backoff = failover_backoff_;

  std::vector<std::size_t> failed;
  std::vector<std::string> failed_names;
  std::string last_error;
  for (std::size_t attempt = 0;; ++attempt) {
    Directory::Target target;
    std::size_t idx;
    try {
      // The decision itself is the interesting latency: least-load and
      // bandwidth-aware policies poll candidate servers (outside the
      // table lock, cached within the freshness window).
      obs::Span schedule("schedule");
      const auto candidates = dir_.snapshot(name, args, failed);
      idx = dir_.pick(name, candidates, failed);
      target = dir_.acquireTarget(idx);
      schedule.setDetail(std::string(schedulingPolicyName(dir_.policy())) +
                         " -> " + target.name);
      static obs::Histogram& observed_load =
          obs::histogram("metaserver.observed_load");
      observed_load.observe(target.observed_load);
    } catch (const NotFoundError&) {
      // Candidates ran out mid-failover.  The root cause is the transport
      // failures that excluded them — rethrow that, not a masking
      // "not found" (which callers read as "entry does not exist").
      if (!failed_names.empty()) {
        std::string who;
        for (const auto& n : failed_names) {
          if (!who.empty()) who += ", ";
          who += n;
        }
        throw TransportError("every candidate server failed for '" + name +
                             "' (excluded: " + who + "); last error: " +
                             last_error);
      }
      throw;
    }
    static obs::Counter& dispatched = obs::counter("metaserver.dispatched");
    dispatched.add();
    NINF_LOG(Debug) << "dispatching " << name << " to " << target.name;
    // Execute outside the lock: a call occupies its connection for its
    // whole duration and other dispatches must proceed concurrently.
    try {
      client::CallOptions attempt_opts;  // one attempt; we do the retrying
      if (bounded) {
        const double remaining =
            std::chrono::duration<double>(deadline - clock::now()).count();
        if (remaining <= 0) {
          throw TimeoutError("dispatch of '" + name + "': deadline exceeded");
        }
        attempt_opts.deadline_seconds = remaining;
      }
      auto lease = pool_.acquire(target.name, target.factory);
      try {
        return lease->call(name, args, attempt_opts);
      } catch (const TransportError&) {
        lease.discard();  // connection is suspect; never pool it again
        throw;
      }
    } catch (const TransportError& e) {
      // Server crashed or unreachable: fail over (paper, section 2.4),
      // and put the failed server in cooldown so a flapping server is
      // not immediately re-picked once the exclusion list resets.
      static obs::Counter& failovers = obs::counter("metaserver.failovers");
      failovers.add();
      dir_.noteFailure(idx, cooldown_seconds_);
      if (attempt >= budget) throw;
      last_error = e.what();
      failed.push_back(idx);
      failed_names.push_back(target.name);
      NINF_LOG(Warn) << "failover from " << target.name << ": " << e.what();
      if (backoff > 0) {
        double sleep_s = std::min(backoff, 1.0);
        if (bounded) {
          const double remaining =
              std::chrono::duration<double>(deadline - clock::now()).count();
          if (remaining <= sleep_s) throw;
          sleep_s = std::min(sleep_s, remaining);
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
        backoff *= 2;
      }
    }
  }
}

void Metaserver::startMonitoring(std::chrono::milliseconds interval) {
  NINF_REQUIRE(interval.count() > 0, "monitoring interval must be positive");
  stopMonitoring();
  {
    LockGuard lock(monitor_mutex_);
    monitor_stop_ = false;
  }
  monitor_thread_ = std::thread([this, interval] {
    for (;;) {
      dir_.pollAll();
      UniqueLock lock(monitor_mutex_);
      if (monitor_cv_.wait_for(lock, interval,
                               [this] { return monitor_stop_; })) {
        return;
      }
    }
  });
}

void Metaserver::stopMonitoring() {
  {
    LockGuard lock(monitor_mutex_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_thread_.joinable()) monitor_thread_.join();
}

std::vector<client::CallResult> Metaserver::runTransaction(
    client::Transaction& transaction, std::size_t max_parallel) {
  return transaction.run(*this, max_parallel);
}

}  // namespace ninf::metaserver
