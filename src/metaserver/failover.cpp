#include "metaserver/failover.h"

#include <algorithm>
#include <thread>

#include "common/error.h"
#include "common/log.h"

namespace ninf::metaserver {

client::CallResult callWithFailover(const std::string& name,
                                    std::span<const protocol::ArgValue> args,
                                    const client::CallOptions& opts,
                                    std::size_t default_failovers,
                                    client::ConnectionPool& pool,
                                    const RouteFn& route,
                                    const FailureFn& on_failure) {
  using Clock = std::chrono::steady_clock;
  const bool bounded = opts.deadline_seconds > 0;
  const Clock::time_point deadline =
      bounded ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       opts.deadline_seconds))
              : Clock::time_point::max();
  auto remaining = [&] {
    return std::chrono::duration<double>(deadline - Clock::now()).count();
  };
  const std::size_t budget =
      opts.retries > 0 ? opts.retries : default_failovers;
  double backoff = opts.backoff_seconds;

  std::vector<std::string> excluded;
  std::string last_error;
  for (std::size_t attempt = 0;; ++attempt) {
    Route target;
    try {
      target = route(excluded, deadline);
    } catch (const NotFoundError&) {
      // Candidates ran out mid-failover.  The root cause is the transport
      // failures that excluded them — rethrow that, not a masking
      // "not found" (which callers read as "entry does not exist").
      if (excluded.empty()) throw;
      std::string who;
      for (const auto& n : excluded) {
        if (!who.empty()) who += ", ";
        who += n;
      }
      throw TransportError("every candidate server failed for '" + name +
                           "' (excluded: " + who + "); last error: " +
                           last_error);
    }
    client::CallOptions attempt_opts;  // one attempt; this loop retries
    if (bounded) {
      attempt_opts.deadline_seconds = remaining();
      if (attempt_opts.deadline_seconds <= 0) {
        throw TimeoutError("dispatch of '" + name + "': deadline exceeded");
      }
    }
    try {
      auto lease = pool.acquire(target.pool_key, target.factory);
      try {
        return lease->call(name, args, attempt_opts);
      } catch (const TransportError&) {
        lease.discard();  // connection is suspect; never pool it again
        throw;
      }
    } catch (const TransportError& e) {
      // Server crashed or unreachable: fail over (paper, section 2.4).
      if (on_failure) on_failure(target.server_name);
      if (attempt >= budget) throw;
      excluded.push_back(target.server_name);
      last_error = e.what();
      NINF_LOG(Warn) << "dispatch of '" << name << "': failover from "
                     << target.server_name << ": " << e.what();
      if (backoff > 0) {
        const double sleep_s = std::min(backoff, 1.0);
        if (bounded && remaining() <= sleep_s) throw;
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
        backoff *= 2;
      }
    }
  }
}

}  // namespace ninf::metaserver
