// ninfbench: load generator of the repository benchmark (see README.md).
//
// One process starts the real Ninf stack on loopback TCP -- the epoll
// reactor NinfServer, and for meta-dispatch a sharded metaserver too --
// and drives one named closed-loop workload against it.  Each caller
// thread is one synchronous Ninf client: it sends its next call only
// after the previous reply arrived and was checked (no think time).
// Every input derives from --seed.
//
//   ninfbench --workload rpc-small --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics.  --trace 1 alternates
// untraced and traced load phases (their rate ratio is the tracing
// overhead), records the benchmark's own spans around the calls into
// each layer's public functions, reads the obs counters, and reports the
// per-layer metrics.  The last stdout line is one JSON object, which
// run.py turns into the benchmark's result line.
#include <sys/utsname.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "common/rng.h"
#include "metaserver/node.h"
#include "metaserver/sharded.h"
#include "numlib/ep.h"
#include "numlib/lu.h"
#include "numlib/matrix.h"
#include "numlib/mmul.h"
#include "obs/metrics.h"
#include "protocol/call_marshal.h"
#include "server/registry.h"
#include "server/server.h"
#include "transport/tcp_transport.h"
#include "xdr/xdr.h"

#ifndef NINFBENCH_BUILD_TYPE
#define NINFBENCH_BUILD_TYPE "unknown"
#endif

using namespace ninf;

namespace {

using Clock = std::chrono::steady_clock;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double microsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- statistics ----------------------------------------------------------

/// Nearest-rank percentile, p in [0, 100]; sorts `v` in place.
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(v, 50.0); }

/// The tail percentile n samples support: 99, or below 1000 samples the
/// highest percentile with at least ten samples beyond it.
double tailPercentile(std::size_t n) {
  if (n >= 1000 || n == 0) return 99.0;
  return std::max(50.0, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- obs counters ----------------------------------------------------------

/// The existing obs counters the per-layer metrics are derived from.
const char* const kCounters[] = {
    "channel.batch.frames",        "channel.batch.flushes",
    "server.reactor.batch.frames", "server.reactor.batch.flushes",
    "server.reactor.wakeups",      "server.cache.hits",
    "server.cache.misses",         "server.cache.inflight_merges",
    "transport.tcp.bytes_sent",    "pool.buffers.hits",
    "pool.buffers.misses",         "metaserver.shard.queries",
    "metaserver.shard.redirects",  "pool.hits",
    "pool.misses",
};

using CounterDeltas = std::map<std::string, double>;

CounterDeltas readCounters() {
  CounterDeltas values;
  for (const char* name : kCounters) {
    values[name] = static_cast<double>(obs::counter(name).value());
  }
  return values;
}

/// Adds (now - before) of every counter into `sum`.
void accumulateDeltas(const CounterDeltas& before, CounterDeltas& sum) {
  for (const auto& [name, value] : readCounters()) {
    sum[name] += value - before.at(name);
  }
}

// ---- the stack under test --------------------------------------------------

/// One computing server with the standard executables, on an ephemeral
/// loopback port.
class ComputeServer {
 public:
  explicit ComputeServer(server::ServerOptions options)
      : server_(registry_, std::move(options)),
        listener_(std::make_shared<transport::TcpListener>(0)) {
    server::registerStandardExecutables(registry_);
    server_.start(listener_);
  }
  ~ComputeServer() { server_.stop(); }

  ComputeServer(const ComputeServer&) = delete;
  ComputeServer& operator=(const ComputeServer&) = delete;

  std::uint16_t port() const { return listener_->port(); }
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(port());
  }
  const server::Registry& registry() const { return registry_; }

 private:
  server::Registry registry_;
  server::NinfServer server_;
  std::shared_ptr<transport::TcpListener> listener_;
};

std::unique_ptr<client::NinfClient> dial(const std::string& endpoint) {
  const auto colon = endpoint.rfind(':');
  return client::NinfClient::connectTcp(
      endpoint.substr(0, colon),
      static_cast<std::uint16_t>(std::stoi(endpoint.substr(colon + 1))), 2.0);
}

/// A named closed-loop workload.  Caller c only ever touches its own
/// argument buffers, so call(c)/check(c) run concurrently across callers.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Caller threads; each is one synchronous client.
  virtual std::size_t callers() const = 0;
  /// Client connections the load holds open.
  virtual std::size_t connections() const = 0;
  /// Calls per caller made before the clock starts (warm-up).
  virtual std::size_t warmupCalls() const = 0;
  /// The result-cache path the workload exists to exercise: every timed
  /// call a hit (true) or every one a miss (false).
  virtual bool expectsCacheHits() const = 0;
  virtual std::string entry() const = 0;

  /// Start the stack and connect; inputs come from `seed`.
  virtual void setUp(std::uint64_t seed) = 0;
  virtual void tearDown() = 0;

  /// One call by `caller`; throws on failure.
  virtual client::CallResult call(std::size_t caller) = 0;
  /// Checks the reply of caller's last call; false = wrong reply.
  virtual bool check(std::size_t caller) = 0;
  /// Deferred checks since the last drain; returns the wrong replies.
  virtual std::uint64_t drainChecks() { return 0; }

  // ---- layer probes (traced runs) ----
  /// The workload's own data channel.
  virtual client::NinfClient& channel() = 0;
  /// Arguments of one call like caller 0's (buffers owned by the workload).
  virtual std::vector<protocol::ArgValue> probeArgs() = 0;
  /// The numerical kernel of one call, run locally with no server.
  virtual void runKernel() = 0;
  virtual metaserver::ShardedMetaserver* metaserver() { return nullptr; }

  /// The entry's compiled interface, as every server registers it.
  const idl::InterfaceInfo& info() const {
    return servers_.front()->registry().find(entry()).info;
  }

 protected:
  std::vector<std::unique_ptr<ComputeServer>> servers_;
};

/// ep(first, count = 64) calls with a unique `first` each, so every call
/// is a result-cache miss plus an insert.  Replies are checked after the
/// timed window against numlib::runEp: each caller keeps only a digest
/// of its OUT data per call, so checking adds no think time to the loop.
class EpCalls {
 public:
  static constexpr std::int64_t kCount = 64;

  void reset(std::uint64_t seed, std::size_t callers) {
    base_ = static_cast<std::int64_t>(SplitMix64(seed).next() >> 24);
    next_.store(0, std::memory_order_relaxed);
    slots_ = std::vector<Slot>(callers);
  }

  std::vector<protocol::ArgValue> args(std::size_t caller) {
    Slot& s = slots_[caller];
    s.first = base_ + kCount * next_.fetch_add(1, std::memory_order_relaxed);
    s.out.fill(kNaN);
    return {protocol::ArgValue::inInt(s.first),
            protocol::ArgValue::inInt(kCount),
            protocol::ArgValue::outArray(std::span(s.out).first(2)),
            protocol::ArgValue::outArray(std::span(s.out).subspan(2))};
  }

  void stash(std::size_t caller) {
    Slot& s = slots_[caller];
    s.pending.push_back({s.first, digest(s.out)});
  }

  /// Checks every stashed reply, one thread per caller's stash.
  std::uint64_t drain() {
    std::vector<std::uint64_t> wrong(slots_.size(), 0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < slots_.size(); ++c) {
      threads.emplace_back([this, &wrong, c] {
        for (const Pending& p : slots_[c].pending) {
          if (digest(expected(p.first)) != p.digest) ++wrong[c];
        }
        slots_[c].pending.clear();
      });
    }
    for (auto& t : threads) t.join();
    std::uint64_t total = 0;
    for (auto w : wrong) total += w;
    return total;
  }

  /// The kernel of one call, run locally (a fresh offset each time).
  void runKernel() { probe_result_ = numlib::runEp(probe_first_++, kCount); }

 private:
  using Out = std::array<double, 12>;  // sums[2] then q[10]
  struct Pending {
    std::int64_t first;
    std::uint64_t digest;
  };
  struct alignas(64) Slot {
    std::int64_t first = 0;
    Out out{};
    std::vector<Pending> pending;
  };

  static Out expected(std::int64_t first) {
    const numlib::EpResult r = numlib::runEp(first, kCount);
    Out out{r.sx, r.sy};
    for (std::size_t i = 0; i < r.q.size(); ++i) {
      out[2 + i] = static_cast<double>(r.q[i]);
    }
    return out;
  }

  /// FNV-1a over the bit patterns of the OUT doubles.
  static std::uint64_t digest(const Out& out) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (double v : out) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      h = (h ^ bits) * 0x100000001b3ull;
    }
    return h;
  }

  std::int64_t base_ = 0;
  std::atomic<std::int64_t> next_{0};
  std::vector<Slot> slots_;
  std::int64_t probe_first_ = 1;
  numlib::EpResult probe_result_;
};

// rpc-small: 4 callers share one multiplexed v2 channel, each calling
// ep(first, 64) with a unique first; 2 server workers.  Compute is near
// zero, so per-call cost sets the rate.  The result cache is kept small
// and filled during warm-up, so every timed call inserts and evicts.
class RpcSmall : public Workload {
 public:
  static constexpr std::size_t kCacheBytes = 256 * 1024;

  std::size_t callers() const override { return 4; }
  std::size_t connections() const override { return 1; }
  std::size_t warmupCalls() const override { return 1500; }
  bool expectsCacheHits() const override { return false; }
  std::string entry() const override { return "ep"; }

  void setUp(std::uint64_t seed) override {
    servers_.push_back(std::make_unique<ComputeServer>(server::ServerOptions{
        .workers = 2, .cache_max_bytes = kCacheBytes}));
    client_ = dial(servers_.front()->endpoint());
    ep_.reset(seed, callers());
  }
  void tearDown() override {
    client_.reset();
    servers_.clear();
  }

  client::CallResult call(std::size_t caller) override {
    const auto args = ep_.args(caller);
    return client_->call("ep", args);
  }
  bool check(std::size_t caller) override {
    ep_.stash(caller);
    return true;
  }
  std::uint64_t drainChecks() override { return ep_.drain(); }

  client::NinfClient& channel() override { return *client_; }
  std::vector<protocol::ArgValue> probeArgs() override {
    return ep_.args(0);
  }
  void runKernel() override { ep_.runKernel(); }

 private:
  std::unique_ptr<client::NinfClient> client_;
  EpCalls ep_;
};

// linpack-multi: the paper's multi-client LAN scenario at c = 4.  Four
// clients, each on its own connection, solve A x = b with n = 350
// (a ~1 MB request) and opt = 0 on a 2-worker server, so calls queue.
// Each call perturbs A[0][0] and b[0] by the same amount, which makes
// every request unique while the solution stays all-ones.
class LinpackMulti : public Workload {
 public:
  static constexpr std::size_t kN = 350;
  static constexpr std::size_t kCacheBytes = 64 * 1024;

  std::size_t callers() const override { return 4; }
  std::size_t connections() const override { return 4; }
  std::size_t warmupCalls() const override { return 8; }
  bool expectsCacheHits() const override { return false; }
  std::string entry() const override { return "linpack"; }

  void setUp(std::uint64_t seed) override {
    servers_.push_back(std::make_unique<ComputeServer>(server::ServerOptions{
        .workers = 2, .cache_max_bytes = kCacheBytes}));
    SplitMix64 seeds(seed);
    callers_.clear();
    for (std::size_t c = 0; c < callers(); ++c) {
      auto& k = callers_.emplace_back();
      k.client = dial(servers_.front()->endpoint());
      k.a = numlib::randomMatrix(kN, seeds.next());
      k.b = numlib::onesRhs(k.a);
      k.x.assign(kN, 0.0);
      k.a00 = k.a(0, 0);
      k.b0 = k.b[0];
      k.rng = SplitMix64(seeds.next());
    }
  }
  void tearDown() override {
    callers_.clear();
    servers_.clear();
  }

  client::CallResult call(std::size_t caller) override {
    Caller& k = callers_[caller];
    const double d = 0.5 + 0.5 * k.rng.nextDouble();
    k.a(0, 0) = k.a00 + d;
    k.b[0] = k.b0 + d;
    std::fill(k.x.begin(), k.x.end(), kNaN);
    const auto args = argsOf(k);
    return k.client->call("linpack", args);
  }
  bool check(std::size_t caller) override {
    double err = 0.0;
    for (double v : callers_[caller].x) err = std::max(err, std::abs(v - 1.0));
    return err <= 1e-6;  // false for NaN too
  }

  client::NinfClient& channel() override { return *callers_.front().client; }
  std::vector<protocol::ArgValue> probeArgs() override {
    return argsOf(callers_.front());
  }
  void runKernel() override {
    numlib::Matrix a = callers_.front().a;
    std::vector<double> x = callers_.front().b;
    numlib::luSolve(a, x, numlib::LuVariant::Reference);
  }

 private:
  struct Caller {
    std::unique_ptr<client::NinfClient> client;
    numlib::Matrix a;
    std::vector<double> b, x;
    double a00 = 0.0, b0 = 0.0;
    SplitMix64 rng{0};
  };

  static std::vector<protocol::ArgValue> argsOf(Caller& k) {
    return {protocol::ArgValue::inInt(static_cast<std::int64_t>(kN)),
            protocol::ArgValue::inInt(0),
            protocol::ArgValue::inArray(k.a.flat()),
            protocol::ArgValue::inArray(k.b),
            protocol::ArgValue::outArray(k.x)};
  }

  std::vector<Caller> callers_;
};

// dmmul-cached: 4 callers share one channel and send byte-identical
// dmmul calls with n = 256 (1 MiB in, 512 KiB out).  After the cache
// owner's first compute (warm-up) every call is a cached-reply replay.
class DmmulCached : public Workload {
 public:
  static constexpr std::size_t kN = 256;

  std::size_t callers() const override { return 4; }
  std::size_t connections() const override { return 1; }
  std::size_t warmupCalls() const override { return 8; }
  bool expectsCacheHits() const override { return true; }
  std::string entry() const override { return "dmmul"; }

  void setUp(std::uint64_t seed) override {
    servers_.push_back(std::make_unique<ComputeServer>(
        server::ServerOptions{.workers = 2}));
    client_ = dial(servers_.front()->endpoint());
    SplitMix64 seeds(seed);
    a_ = numlib::randomMatrix(kN, seeds.next());
    b_ = numlib::randomMatrix(kN, seeds.next());
    reference_ = numlib::dmmul(a_, b_);  // computed locally, once
    out_.assign(callers(), std::vector<double>(kN * kN, 0.0));
  }
  void tearDown() override {
    client_.reset();
    servers_.clear();
  }

  client::CallResult call(std::size_t caller) override {
    std::vector<double>& c = out_[caller];
    c.front() = c.back() = kNaN;  // a reply that skipped C cannot pass
    const auto args = argsOf(c);
    return client_->call("dmmul", args);
  }
  bool check(std::size_t caller) override {
    const std::vector<double>& c = out_[caller];
    const auto ref = reference_.flat();
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (!(std::abs(c[i] - ref[i]) <= 1e-9)) return false;
    }
    return true;
  }

  client::NinfClient& channel() override { return *client_; }
  std::vector<protocol::ArgValue> probeArgs() override {
    return argsOf(out_.front());
  }
  void runKernel() override {
    numlib::dmmul(kN, a_.flat(), b_.flat(), out_.front());
  }

 private:
  std::vector<protocol::ArgValue> argsOf(std::vector<double>& c) const {
    return {protocol::ArgValue::inInt(static_cast<std::int64_t>(kN)),
            protocol::ArgValue::inArray(a_.flat()),
            protocol::ArgValue::inArray(b_.flat()),
            protocol::ArgValue::outArray(c)};
  }

  std::unique_ptr<client::NinfClient> client_;
  numlib::Matrix a_, b_, reference_;
  std::vector<std::vector<double>> out_;
};

// meta-dispatch: a ShardedMetaserver over 2 shards, each a primary and a
// backup node (production NodeOptions defaults), fronting 2 computing
// servers.  One caller runs dispatch("ep", ...) with unique arguments:
// one node-pool connection plus at most one data-pool connection per
// computing server keeps the client at 3 connections or fewer.
class MetaDispatch : public Workload {
 public:
  static constexpr std::size_t kShards = 2;
  static constexpr std::size_t kCacheBytes = 64 * 1024;

  std::size_t callers() const override { return 1; }
  std::size_t connections() const override {
    if (!meta_) return 0;
    return meta_->nodePool().idleCount() + meta_->nodePool().inUseCount() +
           meta_->dataPool().idleCount() + meta_->dataPool().inUseCount();
  }
  std::size_t warmupCalls() const override { return 1500; }
  bool expectsCacheHits() const override { return false; }
  std::string entry() const override { return "ep"; }

  void setUp(std::uint64_t seed) override {
    for (int i = 0; i < 2; ++i) {
      servers_.push_back(std::make_unique<ComputeServer>(server::ServerOptions{
          .workers = 2, .cache_max_bytes = kCacheBytes}));
    }
    protocol::RingDescriptor ring;
    std::vector<std::shared_ptr<transport::TcpListener>> listeners;
    for (std::size_t s = 0; s < kShards; ++s) {
      protocol::ShardInfo info;
      info.id = static_cast<std::uint32_t>(s);
      info.epoch = 1;
      for (std::string* ep : {&info.primary_endpoint, &info.backup_endpoint}) {
        listeners.push_back(std::make_shared<transport::TcpListener>(0));
        *ep = "127.0.0.1:" + std::to_string(listeners.back()->port());
      }
      ring.shards.push_back(info);
    }
    const metaserver::FactoryResolver resolver =
        [](const std::string& endpoint) {
          return client::ConnectionFactory([endpoint] { return dial(endpoint); });
        };
    for (std::size_t s = 0; s < kShards; ++s) {
      for (bool primary : {true, false}) {
        metaserver::NodeOptions opts;
        opts.shard_id = static_cast<std::uint32_t>(s);
        opts.primary = primary;
        opts.resolver = resolver;
        opts.ring = ring;
        const auto& shard = ring.shards[s];
        opts.self_endpoint =
            primary ? shard.primary_endpoint : shard.backup_endpoint;
        if (primary) {
          const std::string backup = shard.backup_endpoint;
          opts.backup_factory = [backup] { return dial(backup); };
        }
        nodes_.push_back(
            std::make_unique<metaserver::MetaserverNode>(std::move(opts)));
        nodes_.back()->serve(listeners[2 * s + (primary ? 0 : 1)]);
      }
    }
    metaserver::ShardedOptions sopts;
    for (const auto& s : ring.shards) {
      sopts.seeds.push_back(s.primary_endpoint);
      sopts.seeds.push_back(s.backup_endpoint);
    }
    sopts.node_dialer = dial;
    sopts.server_dialer = dial;
    meta_ = std::make_unique<metaserver::ShardedMetaserver>(std::move(sopts));
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      protocol::WireServerDesc desc;
      desc.name = "server-" + std::to_string(i);
      desc.endpoint = servers_[i]->endpoint();
      desc.entries = {"ep"};
      meta_->registerServer(desc, 1, 10.0);
    }
    ep_.reset(seed, callers());
  }
  void tearDown() override {
    probe_lease_ = {};
    meta_.reset();
    for (auto& n : nodes_) n->stop();
    nodes_.clear();
    servers_.clear();
  }

  client::CallResult call(std::size_t caller) override {
    const auto args = ep_.args(caller);
    return meta_->dispatch("ep", args);
  }
  bool check(std::size_t caller) override {
    ep_.stash(caller);
    return true;
  }
  std::uint64_t drainChecks() override { return ep_.drain(); }

  client::NinfClient& channel() override {
    if (!probe_lease_) {
      const std::string endpoint = servers_.front()->endpoint();
      probe_lease_ = meta_->dataPool().acquire(
          endpoint, [endpoint] { return dial(endpoint); });
    }
    return *probe_lease_;
  }
  std::vector<protocol::ArgValue> probeArgs() override {
    return ep_.args(0);
  }
  void runKernel() override { ep_.runKernel(); }
  metaserver::ShardedMetaserver* metaserver() override { return meta_.get(); }

 private:
  std::vector<std::unique_ptr<metaserver::MetaserverNode>> nodes_;
  std::unique_ptr<metaserver::ShardedMetaserver> meta_;
  client::ConnectionPool::Lease probe_lease_;
  EpCalls ep_;
};

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "rpc-small") return std::make_unique<RpcSmall>();
  if (name == "linpack-multi") return std::make_unique<LinpackMulti>();
  if (name == "dmmul-cached") return std::make_unique<DmmulCached>();
  if (name == "meta-dispatch") return std::make_unique<MetaDispatch>();
  return nullptr;
}

// ---- the closed loop ---------------------------------------------------------

/// The benchmark's span around one call (traced phases only), with the
/// server's timeline from CallResult, all in microseconds.
struct CallSpan {
  double span_us = 0.0;     // around NinfClient::call / dispatch
  double elapsed_us = 0.0;  // CallResult.elapsed
  double wait_us = 0.0;     // T_dequeue - T_enqueue (the paper's T_wait)
  double compute_us = 0.0;  // T_complete - T_dequeue
  double window_us = 0.0;   // T_complete - T_enqueue
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double payload_bytes = 0.0;
  std::vector<double> latency_ms;
  std::vector<CallSpan> spans;

  void merge(Tally&& o) {
    attempted += o.attempted;
    failed += o.failed;
    payload_bytes += o.payload_bytes;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  }
};

struct Phase {
  double wall_s = 0.0;
  std::size_t calls = 0;  // completed and checked
  Tally tally;

  double callsPerSecond() const { return static_cast<double>(calls) / wall_s; }
  double payloadMBps() const { return tally.payload_bytes / wall_s / 1e6; }
};

/// Runs every caller in a closed loop for `seconds` (or, with
/// seconds <= 0, for `calls` calls each), then drains deferred checks.
Phase runLoad(Workload& w, double seconds, std::size_t calls, bool traced) {
  const std::size_t n = w.callers();
  std::vector<Tally> per(n);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Tally& t = per[c];
      t.latency_ms.reserve(1 << 16);
      while (!stop.load(std::memory_order_relaxed) &&
             (seconds > 0 || t.attempted < calls)) {
        ++t.attempted;
        try {
          const auto t0 = Clock::now();
          const client::CallResult r = w.call(c);
          const auto t1 = Clock::now();
          if (!w.check(c)) {
            ++t.failed;
            continue;
          }
          const double us = microsBetween(t0, t1);
          t.latency_ms.push_back(us / 1e3);
          t.payload_bytes +=
              static_cast<double>(r.bytes_sent + r.bytes_received);
          if (traced) {
            const auto& s = r.server;
            t.spans.push_back({us, r.elapsed * 1e6, s.waitTime() * 1e6,
                               (s.complete - s.dequeue) * 1e6,
                               (s.complete - s.enqueue) * 1e6});
          }
        } catch (const std::exception& e) {
          ++t.failed;
          std::fprintf(stderr, "call failed: %s\n", e.what());
        }
      }
    });
  }
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
  }
  for (auto& th : threads) th.join();
  Phase p;
  p.wall_s = secondsSince(start);
  for (auto& t : per) p.tally.merge(std::move(t));
  p.calls = p.tally.latency_ms.size();
  p.tally.failed += w.drainChecks();
  return p;
}

/// The benchmark's spans around `fn`, called repeatedly -- up to
/// `max_reps` times or `budget_s` seconds, whichever ends first -- in us.
template <typename Fn>
std::vector<double> spansMicros(Fn&& fn, std::size_t max_reps,
                                double budget_s) {
  std::vector<double> us;
  const auto start = Clock::now();
  while (us.size() < max_reps &&
         (us.empty() || secondsSince(start) < budget_s)) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(microsBetween(t0, Clock::now()));
  }
  return us;
}

// ---- output ------------------------------------------------------------------

class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Where and how this binary runs, read at run time.
std::string hostJson() {
  utsname u{};
  const std::string kernel = uname(&u) == 0 ? u.release : "unknown";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"cpu_count\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + jsonString(cpuModel()) +
         ", \"kernel\": " + jsonString(kernel) +
         ", \"compiler\": " + jsonString(compiler) +
         ", \"build_type\": " + jsonString(NINFBENCH_BUILD_TYPE) + "}";
}

/// Resident memory of this process now (VmRSS), MB.
double residentMB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Stacks set up per run; each is measured for an equal share of it.
constexpr std::size_t kStacks = 5;

int usage() {
  std::fprintf(stderr,
               "usage: ninfbench --workload rpc-small|linpack-multi|"
               "dmmul-cached|meta-dispatch\n"
               "                 [--seed N] [--seconds S] [--trace 0|1]\n");
  return 2;
}

// ---- per-layer probes (traced runs) -------------------------------------------

/// Calls each layer's public functions directly on the workload's own
/// arguments and channel, and records the benchmark's spans around them.
void probeLayers(Workload& w, MetricSet& m) {
  const idl::InterfaceInfo& info = w.info();
  const auto args = w.probeArgs();
  constexpr std::size_t kReps = 2000;
  constexpr double kBudget = 0.3;

  // protocol: the client prologue's marshal, the server prologue's
  // unmarshal, the epilogue's reply marshal, the client's unmarshal.
  xdr::VectorSink request;
  m.add("protocol.encode_request_us.p50", median(spansMicros([&] {
          xdr::VectorSink sink;
          protocol::buildCallRequest(info, args).emitTo(sink);
          request = std::move(sink);
        }, kReps, kBudget)), "us");
  protocol::ServerCallData data;
  m.add("protocol.decode_args_us.p50", median(spansMicros([&] {
          xdr::Decoder src(request.bytes());
          (void)src.getString();  // entry name
          data = protocol::decodeCallArgs(info, src);
        }, kReps, kBudget)), "us");
  xdr::VectorSink reply;
  m.add("protocol.encode_reply_us.p50", median(spansMicros([&] {
          xdr::VectorSink sink;
          protocol::buildCallReply(info, data, {}).emitTo(sink);
          reply = std::move(sink);
        }, kReps, kBudget)), "us");
  m.add("protocol.decode_reply_us.p50", median(spansMicros([&] {
          (void)protocol::decodeCallReply(info, reply.bytes(), args);
        }, kReps, kBudget)), "us");

  // transport: a bare round trip on the workload's own channel.
  client::NinfClient& ch = w.channel();
  m.add("transport.ping_us.p50",
        median(spansMicros([&] { ch.ping(0); }, kReps, kBudget)), "us");

  // numlib: one call's kernel with no server in the way.
  m.add("numlib.kernel_us.p50",
        median(spansMicros([&] { w.runKernel(); }, kReps, 0.5)), "us");

  // metaserver: the routing step of dispatch() on its own.
  std::vector<double> route_us;
  if (auto* meta = w.metaserver()) {
    route_us = spansMicros([&] {
      (void)meta->route(w.entry(), {}, Clock::now() + std::chrono::seconds(2));
    }, kReps, kBudget);
  }
  const std::size_t routes = route_us.size();
  m.add("metaserver.route_us.p50", percentile(route_us, 50), "us");
  m.add("metaserver.route_us.p99",
        percentile(route_us, tailPercentile(routes)), "us");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage();
    }
  }
  auto w = makeWorkload(opts.workload);
  if (!w || !(opts.seconds > 0)) return usage();

  try {
    // The run sets the stack up kStacks times and measures each stack
    // for an equal share of the phases (about one second each), so one
    // run samples several thread placements instead of betting on one.
    // Set-up starts the stack, connects, negotiates, queries the
    // interface and warms up (buffer pools, the result cache).  A traced
    // run alternates untraced and traced phases, starting untraced.
    std::size_t per_stack = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(opts.seconds)) / kStacks);
    if (opts.trace) per_stack += per_stack % 2;
    const std::size_t phases = kStacks * per_stack;
    const double phase_s = opts.seconds / static_cast<double>(phases);

    std::vector<double> setup_s;
    std::vector<Phase> untraced, traced;
    CounterDeltas traced_deltas, all_deltas;
    std::string phase_cps;
    // Per-phase latency percentiles of the untraced phases; the samples
    // themselves are dropped after each phase, so the benchmark's memory
    // does not grow with the call count and blur peak_rss_mb.
    std::vector<double> phase_p50_ms, phase_p90_ms, phase_tail_ms,
        phase_tail_pct;
    std::size_t samples = 0;
    double peak_rss_mb = 0.0;  // resident memory sampled after each phase
    std::size_t connections = 0;
    for (std::size_t i = 0; i < phases; ++i) {
      if (i % per_stack == 0) {
        if (i > 0) w->tearDown();
        const auto t0 = Clock::now();
        w->setUp(opts.seed);
        const Phase warm = runLoad(*w, 0.0, w->warmupCalls(), false);
        setup_s.push_back(secondsSince(t0));
        if (warm.tally.failed > 0) {
          throw Error("warm-up: " + std::to_string(warm.tally.failed) +
                      " calls failed");
        }
      }
      const bool trace_phase = opts.trace && i % 2 == 1;
      const CounterDeltas before = readCounters();
      Phase p = runLoad(*w, phase_s, 0, trace_phase);
      accumulateDeltas(before, trace_phase ? traced_deltas : all_deltas);
      peak_rss_mb = std::max(peak_rss_mb, residentMB());
      connections = std::max(connections, w->connections());
      phase_cps += (i ? ", " : "") + std::to_string(p.callsPerSecond());
      if (!trace_phase) {
        std::vector<double>& lat = p.tally.latency_ms;
        samples += lat.size();
        phase_p50_ms.push_back(percentile(lat, 50));
        phase_p90_ms.push_back(percentile(lat, 90));
        phase_tail_pct.push_back(tailPercentile(lat.size()));
        phase_tail_ms.push_back(percentile(lat, phase_tail_pct.back()));
        lat = {};
      }
      (trace_phase ? traced : untraced).push_back(std::move(p));
    }
    for (const auto& [name, value] : traced_deltas) all_deltas[name] += value;

    Tally load, load_traced;
    std::vector<double> cps, mbps, cps_traced;
    for (auto& p : untraced) {
      cps.push_back(p.callsPerSecond());
      mbps.push_back(p.payloadMBps());
      load.merge(std::move(p.tally));
    }
    for (auto& p : traced) {
      cps_traced.push_back(p.callsPerSecond());
      load_traced.merge(std::move(p.tally));
    }
    const std::uint64_t attempted = load.attempted + load_traced.attempted;
    const std::uint64_t failed = load.failed + load_traced.failed;

    // Guards: each workload must exercise the cache path it claims.
    std::vector<std::string> problems;
    const double hits = all_deltas["server.cache.hits"] +
                        all_deltas["server.cache.inflight_merges"];
    const double lookups = hits + all_deltas["server.cache.misses"];
    const double hit_ratio = ratio(hits, lookups);
    if (w->expectsCacheHits() ? hit_ratio < 0.99 : hits > 0) {
      problems.push_back("server.cache.hit_ratio " +
                         std::to_string(hit_ratio) + " over " +
                         std::to_string(static_cast<long long>(lookups)) +
                         " lookups is off this workload's cache path");
    }
    if (failed > 0) {
      problems.push_back(std::to_string(failed) + " of " +
                         std::to_string(attempted) +
                         " calls failed or returned a wrong reply");
    }
    if (connections > 4 || w->callers() > 4) {
      problems.push_back("more than 4 caller threads or client connections");
    }

    // The tail (p99, or the highest percentile with ten calls beyond it)
    // is reported but not a gated metric: host noise alone moves it
    // beyond any bound the benchmark may set.
    const double tail = median(phase_tail_pct);
    const double tail_ms = median(phase_tail_ms);
    MetricSet m;
    const double flops = static_cast<double>(w->info().flopsEstimate(
        protocol::scalarArgs(w->info(), w->probeArgs())));
    if (!opts.trace) {
      // Rates and latencies are medians over the phases, which shrugs off
      // a phase slowed by other tenants of the host.  P = flops / latency
      // falls as the latency rises, so the median P is flops / the median
      // latency.
      const double p50_ms = median(phase_p50_ms);
      m.add("setup_s", median(setup_s), "s");
      m.add("calls_per_s", median(cps), "1/s");
      m.add("latency_p50_ms", p50_ms, "ms");
      m.add("latency_p90_ms", median(phase_p90_ms), "ms");
      m.add("payload_mb_per_s", median(mbps), "MB/s");
      m.add("mflops_p50", flops / (p50_ms * 1e3), "Mflops");
      m.add("peak_rss_mb", peak_rss_mb, "MB");
    } else {
      // The benchmark's call spans against CallResult.elapsed: the span
      // holds the whole call, so it may exceed elapsed only by the
      // benchmark's own overhead (plus routing, under dispatch()).
      std::vector<double> call_us, excess, wait, compute, outside;
      for (const CallSpan& s : load_traced.spans) {
        call_us.push_back(s.span_us);
        excess.push_back(s.span_us - s.elapsed_us);
        wait.push_back(s.wait_us);
        compute.push_back(s.compute_us);
        outside.push_back(s.span_us - s.window_us);
      }
      const std::size_t n = call_us.size();
      const double span_p50 = percentile(call_us, 50);
      const double excess_p50 = percentile(excess, 50);  // sorts `excess`
      if (!excess.empty() && excess.front() < -1.0) {
        problems.push_back("a call span is shorter than CallResult.elapsed");
      }
      if (!w->metaserver() && excess_p50 > 50.0 + 0.05 * span_p50) {
        problems.push_back("call spans disagree with CallResult.elapsed");
      }
      const double calls = static_cast<double>(n);
      auto& d = traced_deltas;
      m.add("client.call_us.p50", span_p50, "us");
      m.add("client.call_us.p99", percentile(call_us, tailPercentile(n)), "us");
      m.add("client.span_excess_us.p50", excess_p50, "us");
      m.add("client.frames_per_writev",
            ratio(d["channel.batch.frames"], d["channel.batch.flushes"]),
            "ratio");
      m.add("transport.bytes_per_call",
            ratio(d["transport.tcp.bytes_sent"], calls), "bytes");
      m.add("server.queue_wait_us.p50", percentile(wait, 50), "us");
      m.add("server.queue_wait_us.p99", percentile(wait, tailPercentile(n)),
            "us");
      m.add("server.compute_us.p50", percentile(compute, 50), "us");
      m.add("server.outside_us.p50", percentile(outside, 50), "us");
      m.add("server.frames_per_writev",
            ratio(d["server.reactor.batch.frames"],
                  d["server.reactor.batch.flushes"]),
            "ratio");
      m.add("server.wakeups_per_call",
            ratio(d["server.reactor.wakeups"], calls), "ratio");
      m.add("server.cache.hit_ratio", hit_ratio, "ratio");
      m.add("server.cache.lookups", lookups, "count");
      m.add("server.cache.bytes", obs::gauge("server.cache.bytes").value(),
            "bytes");
      m.add("common.buffer_pool.miss_ratio",
            ratio(d["pool.buffers.misses"],
                  d["pool.buffers.hits"] + d["pool.buffers.misses"]),
            "ratio");
      m.add("common.buffer_pool.resident_bytes",
            obs::gauge("pool.buffers.resident_bytes").value(), "bytes");
      m.add("metaserver.shard_queries_per_call",
            ratio(d["metaserver.shard.queries"], calls), "ratio");
      m.add("metaserver.redirects", d["metaserver.shard.redirects"], "count");
      m.add("metaserver.pool_hit_ratio",
            ratio(d["pool.hits"], d["pool.hits"] + d["pool.misses"]),
            "ratio");
      probeLayers(*w, m);
      const double cps_u = median(cps), cps_t = median(cps_traced);
      m.add("trace.untraced_calls_per_s", cps_u, "1/s");
      m.add("trace.traced_calls_per_s", cps_t, "1/s");
      m.add("trace.overhead_ratio", ratio(cps_u, cps_t), "ratio");
      m.add("load.callers", static_cast<double>(w->callers()), "count");
      m.add("load.connections", static_cast<double>(connections), "count");
    }
    w->tearDown();

    for (const auto& p : problems) std::fprintf(stderr, "CHECK: %s\n", p.c_str());
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"seconds\": %g, "
        "\"callers\": %zu, \"connections\": %zu, \"setups\": %zu, "
        "\"phases\": %zu, \"phase_calls_per_s\": [%s], "
        "\"latency_samples\": %zu, "
        "\"latency_tail_pct\": %.6g, \"latency_tail_ms\": %.17g, "
        "\"cache_hit_ratio\": %.6g, "
        "\"cache_lookups\": %.0f, \"attempted\": %llu, \"failed\": %llu, "
        "\"correct\": %s, \"host\": %s, \"metrics\": %s}\n",
        jsonString(opts.workload).c_str(),
        static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
        opts.seconds, w->callers(), connections, kStacks, phases,
        phase_cps.c_str(), samples,
        tail, tail_ms, hit_ratio, lookups, static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed),
        problems.empty() ? "true" : "false", hostJson().c_str(),
        m.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ninfbench: %s\n", e.what());
    return 1;
  }
}
