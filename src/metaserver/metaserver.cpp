#include "metaserver/metaserver.h"

#include "common/error.h"
#include "common/log.h"
#include "metaserver/failover.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ninf::metaserver {

std::string Metaserver::chooseServer(
    const std::string& entry_name,
    std::span<const protocol::ArgValue> args) {
  return dir_.decide(entry_name, args, {}).name;
}

client::CallResult Metaserver::dispatch(
    const std::string& name, std::span<const protocol::ArgValue> args) {
  return dispatch(name, args, client::CallOptions{});
}

client::CallResult Metaserver::dispatch(const std::string& name,
                                        std::span<const protocol::ArgValue> args,
                                        const client::CallOptions& opts) {
  NINF_REQUIRE(dir_.serverCount() > 0, "metaserver has no servers");
  // One span for the whole dispatch (scheduling + failover + the call):
  // it nests under any caller span and is the parent the scheduling and
  // session-layer spans — and, via wire propagation, the server's
  // queue-wait/compute spans — hang from.
  obs::Span dispatch_span("dispatch");
  dispatch_span.setDetail(name);
  return callWithFailover(
      name, args, opts, max_failovers_, pool_,
      [&](const std::vector<std::string>& excluded,
          std::chrono::steady_clock::time_point) {
        // The decision itself is the interesting latency: least-load and
        // bandwidth-aware policies poll candidate servers (outside the
        // table lock, cached within the freshness window).
        obs::Span schedule("schedule");
        LocalDirectory::Target target = dir_.decide(name, args, excluded);
        schedule.setDetail(std::string(schedulingPolicyName(dir_.policy())) +
                           " -> " + target.name);
        static obs::Histogram& observed_load =
            obs::histogram("metaserver.observed_load");
        observed_load.observe(target.observed_load);
        static obs::Counter& dispatched =
            obs::counter("metaserver.dispatched");
        dispatched.add();
        NINF_LOG(Debug) << "dispatching " << name << " to " << target.name;
        return Route{target.name, target.name, std::move(target.factory)};
      },
      [this](const std::string& server_name) {
        // Put the failed server in cooldown so a flapping server is not
        // immediately re-picked by the next call.
        static obs::Counter& failovers = obs::counter("metaserver.failovers");
        failovers.add();
        dir_.noteFailure(server_name, cooldown_seconds_);
      });
}

std::vector<client::CallResult> Metaserver::runTransaction(
    client::Transaction& transaction, std::size_t max_parallel) {
  return transaction.run(*this, max_parallel);
}

}  // namespace ninf::metaserver
