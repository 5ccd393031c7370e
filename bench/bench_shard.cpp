// Sharded-metaserver scaling and failover bench.
//
// Measures aggregate scheduling-dispatch throughput of the sharded
// metaserver control plane as the shard count grows.  A fixed fleet of
// computing servers exports 64 synthetic service names, partitioned over
// the shards by the consistent-hash ring; client threads resolve random
// names through ShardedMetaserver::route() as fast as they can.  The
// nodes poll server status on every decision (status_freshness 0, set
// here because the node default schedules from a monitored cache), so a
// shard's per-decision cost scales with its slice of the server table —
// sharding shrinks the slice AND spreads queries over independent
// primaries.
//
// A final forced-failover step at the largest shard count re-runs the
// storm and kills shard 0's primary a third of the way in: the step's
// p99 and error count show what a promotion costs the clients, and the
// measured promotion latency is printed alongside.
//
//   bench_shard [--shards N1,N2,...] [--duration S] [--trace PATH]
//   bench_shard --shards 1,2,4 --duration 2
//
// The shard counts must ascend and include one of at least 2 (the
// failover step needs a backup to promote).  The exit status is the
// check: 0 when routes/s rose with each shard count, no step saw a client
// error, and promotion took more than 0 and less than 5 s; 1 otherwise;
// 2 on a usage error.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/table.h"
#include "metaserver/node.h"
#include "metaserver/ring.h"
#include "metaserver/sharded.h"
#include "obs/trace_session.h"
#include "server/registry.h"
#include "server/server.h"
#include "transport/tcp_transport.h"

using namespace ninf;

namespace {

struct Config {
  std::vector<std::size_t> shard_steps = {1, 2};
  double duration_s = 2.0;  // measured seconds per step
};

double percentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  std::size_t idx =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
  idx = std::min(idx, sorted.size() - 1);
  return sorted[idx];
}

struct StepResult {
  std::size_t shards = 0;
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  double routes_per_s = 0.0;
  double promotion_s = 0.0;  // failover step only
};

std::string shardEndpointOf(std::uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

std::unique_ptr<client::NinfClient> shardDial(const std::string& endpoint) {
  const auto colon = endpoint.rfind(':');
  return client::NinfClient::connectTcp(
      endpoint.substr(0, colon),
      static_cast<std::uint16_t>(std::stoi(endpoint.substr(colon + 1))),
      2.0);
}

int runShardSweep(const Config& cfg) {
  constexpr std::size_t kComputeServers = 8;
  constexpr std::size_t kEntries = 64;
  constexpr std::size_t kClientThreads = 8;
  constexpr double kHeartbeat = 0.02;
  constexpr std::size_t kMissBudget = 3;
  constexpr double kRouteDeadline = 2.0;
  constexpr double kPromotionLimit = 5.0;

  // One fleet of real computing servers for the whole sweep; each step
  // re-registers it with a freshly built cluster.
  std::vector<std::unique_ptr<server::Registry>> registries;
  std::vector<std::unique_ptr<server::NinfServer>> servers;
  std::vector<std::string> server_eps;
  for (std::size_t i = 0; i < kComputeServers; ++i) {
    registries.push_back(std::make_unique<server::Registry>());
    server::registerStandardExecutables(*registries.back());
    servers.push_back(std::make_unique<server::NinfServer>(
        *registries.back(), server::ServerOptions{.workers = 2}));
    auto listener = std::make_shared<transport::TcpListener>(0);
    server_eps.push_back(shardEndpointOf(listener->port()));
    servers.back()->start(listener);
  }
  std::vector<std::string> entries;
  for (std::size_t k = 0; k < kEntries; ++k) {
    entries.push_back("svc-" + std::to_string(k));
  }

  TextTable table({"shards", "mode", "calls", "err", "routes/s",
                   "lat mean[ms]", "p50", "p95", "p99", "max"});

  auto runShardStep = [&](std::size_t nshards, bool failover) -> StepResult {
    // Cluster: a primary + backup node per shard, all sharing one ring.
    std::vector<std::shared_ptr<transport::TcpListener>> plisten, blisten;
    protocol::RingDescriptor ring;
    for (std::size_t s = 0; s < nshards; ++s) {
      plisten.push_back(std::make_shared<transport::TcpListener>(0));
      blisten.push_back(std::make_shared<transport::TcpListener>(0));
      protocol::ShardInfo info;
      info.id = static_cast<std::uint32_t>(s);
      info.epoch = 1;
      info.primary_endpoint = shardEndpointOf(plisten.back()->port());
      info.backup_endpoint = shardEndpointOf(blisten.back()->port());
      ring.shards.push_back(info);
    }
    const metaserver::HashRing owners(ring);
    const metaserver::FactoryResolver resolver =
        [](const std::string& endpoint) {
          return client::ConnectionFactory(
              [endpoint] { return shardDial(endpoint); });
        };
    std::vector<std::unique_ptr<metaserver::MetaserverNode>> primaries;
    std::vector<std::unique_ptr<metaserver::MetaserverNode>> backups;
    for (std::size_t s = 0; s < nshards; ++s) {
      metaserver::NodeOptions popts;
      popts.shard_id = static_cast<std::uint32_t>(s);
      popts.primary = true;
      popts.status_freshness = 0.0;  // every decision polls its slice
      popts.heartbeat_interval_s = kHeartbeat;
      popts.heartbeat_miss_budget = kMissBudget;
      popts.resolver = resolver;
      const std::string bep = ring.shards[s].backup_endpoint;
      popts.backup_factory = [bep] { return shardDial(bep); };
      popts.self_endpoint = ring.shards[s].primary_endpoint;
      popts.ring = ring;
      primaries.push_back(
          std::make_unique<metaserver::MetaserverNode>(std::move(popts)));
      primaries.back()->serve(plisten[s]);

      metaserver::NodeOptions bopts;
      bopts.shard_id = static_cast<std::uint32_t>(s);
      bopts.primary = false;
      bopts.status_freshness = 0.0;  // as its primary, once promoted
      bopts.heartbeat_interval_s = kHeartbeat;
      bopts.heartbeat_miss_budget = kMissBudget;
      bopts.resolver = resolver;
      bopts.self_endpoint = ring.shards[s].backup_endpoint;
      bopts.ring = ring;
      backups.push_back(
          std::make_unique<metaserver::MetaserverNode>(std::move(bopts)));
      backups.back()->serve(blisten[s]);
    }

    metaserver::ShardedOptions sopts;
    for (const auto& s : ring.shards) {
      sopts.seeds.push_back(s.primary_endpoint);
      sopts.seeds.push_back(s.backup_endpoint);
    }
    sopts.node_dialer = shardDial;
    sopts.server_dialer = shardDial;
    sopts.retry_backoff = 0.005;
    metaserver::ShardedMetaserver shard_client(std::move(sopts));

    // Each computing server is attached to one shard and exports that
    // shard's slice of the namespace, so a shard's directory holds
    // kComputeServers/nshards candidates.
    for (std::size_t i = 0; i < kComputeServers; ++i) {
      protocol::WireServerDesc desc;
      desc.name = "server-" + std::to_string(i);
      desc.endpoint = server_eps[i];
      for (const auto& entry : entries) {
        if (owners.ownerOf(entry) == i % nshards) {
          desc.entries.push_back(entry);
        }
      }
      if (desc.entries.empty()) continue;
      shard_client.registerServer(desc, 1, 10.0);
    }

    std::vector<std::vector<double>> lats(kClientThreads);
    std::vector<std::uint64_t> counts(kClientThreads, 0);
    std::vector<std::uint64_t> errs(kClientThreads, 0);
    std::atomic<bool> stop{false};
    std::vector<std::thread> storm;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < kClientThreads; ++t) {
      storm.emplace_back([&, t] {
        SplitMix64 rng(77 + t);
        lats[t].reserve(4096);
        while (!stop.load(std::memory_order_relaxed)) {
          const std::string& entry = entries[rng.nextBelow(kEntries)];
          const auto t0 = std::chrono::steady_clock::now();
          try {
            (void)shard_client.route(
                entry, {},
                t0 + std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(kRouteDeadline)));
            lats[t].push_back(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
            ++counts[t];
          } catch (const Error&) {
            ++errs[t];
          }
        }
      });
    }

    StepResult step;
    step.shards = nshards;
    std::thread killer;
    if (failover) {
      killer = std::thread([&] {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(cfg.duration_s / 3.0));
        const auto killed = std::chrono::steady_clock::now();
        primaries[0]->stop();
        while (!backups[0]->isPrimary() &&
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             killed)
                       .count() < kPromotionLimit) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        step.promotion_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - killed)
                               .count();
      });
    }

    std::this_thread::sleep_for(
        std::chrono::duration<double>(cfg.duration_s));
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : storm) th.join();
    if (killer.joinable()) killer.join();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

    std::vector<double> all;
    for (std::size_t t = 0; t < kClientThreads; ++t) {
      step.calls += counts[t];
      step.errors += errs[t];
      all.insert(all.end(), lats[t].begin(), lats[t].end());
    }
    std::sort(all.begin(), all.end());
    step.routes_per_s = static_cast<double>(step.calls) / wall;
    const double mean =
        all.empty() ? 0.0
                    : std::accumulate(all.begin(), all.end(), 0.0) /
                          static_cast<double>(all.size());

    table.row()
        .cell(nshards)
        .cell(failover ? "failover" : "steady")
        .cell(static_cast<long long>(step.calls))
        .cell(static_cast<long long>(step.errors))
        .cell(step.routes_per_s, 1)
        .cell(mean, 2)
        .cell(percentileSorted(all, 50), 2)
        .cell(percentileSorted(all, 95), 2)
        .cell(percentileSorted(all, 99), 2)
        .cell(all.empty() ? 0.0 : all.back(), 2);

    for (auto& n : primaries) n->stop();
    for (auto& n : backups) n->stop();
    return step;
  };

  std::printf(
      "Sharded metaserver dispatch: %zu computing servers, %zu entries, "
      "%zu client threads, %.1fs per step\n\n",
      kComputeServers, kEntries, kClientThreads, cfg.duration_s);
  std::vector<StepResult> steady;
  for (const std::size_t nshards : cfg.shard_steps) {
    steady.push_back(runShardStep(nshards, false));
  }
  const StepResult fo = runShardStep(cfg.shard_steps.back(), true);

  std::printf("%s\n", table.str().c_str());
  std::printf(
      "routes/s is aggregate scheduling throughput; each decision polls\n"
      "the shard's slice of the server table (freshness 0), so shards\n"
      "shrink the per-decision cost and parallelize the primaries.\n\n");
  std::printf("failover at %zu shards: promotion took %.0f ms\n", fo.shards,
              fo.promotion_s * 1e3);
  for (auto& s : servers) s->stop();

  bool ok = true;
  for (const StepResult& step : steady) {
    if (step.errors != 0) {
      std::printf("FAIL: steady step at %zu shards surfaced %llu client "
                  "errors\n",
                  step.shards, static_cast<unsigned long long>(step.errors));
      ok = false;
    }
  }
  for (std::size_t i = 1; i < steady.size(); ++i) {
    if (steady[i].routes_per_s <= steady[i - 1].routes_per_s) {
      std::printf("FAIL: %zu shards no faster than %zu: %.0f vs %.0f "
                  "routes/s\n",
                  steady[i].shards, steady[i - 1].shards,
                  steady[i].routes_per_s, steady[i - 1].routes_per_s);
      ok = false;
    }
  }
  if (fo.errors != 0) {
    std::printf("FAIL: failover step surfaced %llu client errors\n",
                static_cast<unsigned long long>(fo.errors));
    ok = false;
  }
  if (!(fo.promotion_s > 0.0 && fo.promotion_s < kPromotionLimit)) {
    std::printf("FAIL: promotion took %.3f s, outside (0, %.0f) s\n",
                fo.promotion_s, kPromotionLimit);
    ok = false;
  }
  if (ok) {
    std::printf("ok: routes/s rose with each shard count, no step saw a "
                "client error, and the failover promoted in (0, %.0f) s\n",
                kPromotionLimit);
  }
  return ok ? 0 : 1;
}

std::vector<std::size_t> parseSweep(const std::string& list) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string tok =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) {
      out.push_back(static_cast<std::size_t>(
          std::strtoull(tok.c_str(), nullptr, 10)));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--shards N1,N2,...] [--duration SECONDS] "
               "[--trace PATH]\n"
               "  shard counts ascend from 1 or more, and the last is at "
               "least 2\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  obs::TraceSession trace(obs::TraceSession::flagFromArgs(argc, argv),
                          "bench_shard");
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    if (arg == "--shards") {
      cfg.shard_steps = parseSweep(argv[++i]);
    } else if (arg == "--duration") {
      cfg.duration_s = std::strtod(argv[++i], nullptr);
    } else {
      return usage(argv[0]);
    }
  }
  const auto& steps = cfg.shard_steps;
  if (steps.empty() || steps.front() == 0 || steps.back() < 2 ||
      std::adjacent_find(steps.begin(), steps.end(),
                         std::greater_equal<>()) != steps.end() ||
      !(cfg.duration_s > 0.0)) {
    return usage(argv[0]);
  }
  return runShardSweep(cfg);
}
