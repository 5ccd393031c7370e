#include "common/sync.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <span>
#include <type_traits>

namespace ninf::lockdep {

namespace {

/// The order graph and lock-class registry.  Internals deliberately use
/// raw std primitives (never ninf::Mutex) and never call into obs/log,
/// so checker bookkeeping cannot recurse into itself.
struct Graph {
  std::mutex mu;
  std::map<std::string, std::uint32_t> ids;  // class name -> id
  std::vector<std::string> names;            // id -> class name (id 0 unused)
  /// Recorded acquisition site that first established an edge.
  struct Edge {
    std::string site;
  };
  std::map<std::uint32_t, std::map<std::uint32_t, Edge>> out;
};

Graph& graph() {
  static Graph* g = new Graph;  // never destroyed: mutexes outlive main
  return *g;
}

struct HandlerSlot {
  std::mutex mu;
  std::function<void(const Violation&)> fn;
};

HandlerSlot& handlerSlot() {
  static HandlerSlot* h = new HandlerSlot;
  return *h;
}

std::atomic<std::uint64_t> g_violations{0};

/// Held lock-class ids of one thread, outermost first.  Trivially
/// destructible on purpose: a thread-local destructor that takes a lock
/// (the buffer pool's thread cache) may run after the thread's other
/// thread-locals are gone, and this storage must still be usable then.
struct HeldStack {
  static constexpr std::size_t kMaxDepth = 64;
  std::array<std::uint32_t, kMaxDepth> ids{};
  std::size_t depth = 0;

  std::span<const std::uint32_t> held() const { return {ids.data(), depth}; }

  void push(std::uint32_t id) {
    if (depth == kMaxDepth) {
      std::fprintf(stderr, "ninf lockdep: more than %zu locks held by one "
                           "thread\n", kMaxDepth);
      std::abort();
    }
    ids[depth++] = id;
  }

  /// Drop the innermost entry of class `id`, if held.
  void remove(std::uint32_t id) {
    for (std::size_t i = depth; i-- > 0;) {
      if (ids[i] == id) {
        std::copy(ids.begin() + i + 1, ids.begin() + depth, ids.begin() + i);
        --depth;
        return;
      }
    }
  }
};
static_assert(std::is_trivially_destructible_v<HeldStack>);

thread_local HeldStack t_held;
/// Reentrancy guard: handler callbacks (and any locking they do) must
/// not re-enter the checker.
thread_local bool t_busy = false;

std::uint32_t threadTag() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tag =
      next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

std::uint32_t internLocked(Graph& g, const std::string& name) {
  auto it = g.ids.find(name);
  if (it != g.ids.end()) return it->second;
  if (g.names.empty()) g.names.emplace_back("<none>");  // burn id 0
  const auto id = static_cast<std::uint32_t>(g.names.size());
  g.names.push_back(name);
  g.ids.emplace(name, id);
  return id;
}

std::string describeStackLocked(const Graph& g,
                                std::span<const std::uint32_t> held,
                                std::uint32_t acquiring) {
  std::string s = "thread #" + std::to_string(threadTag()) + " holding [";
  for (std::size_t i = 0; i < held.size(); ++i) {
    if (i > 0) s += ", ";
    s += g.names[held[i]];
  }
  s += "] acquired '" + g.names[acquiring] + "'";
  return s;
}

/// Depth-first search for a path from -> to over recorded edges,
/// appending the class ids of the path (excluding `from`) to `path`.
bool findPathLocked(const Graph& g, std::uint32_t from, std::uint32_t to,
                    std::set<std::uint32_t>& visited,
                    std::vector<std::uint32_t>& path) {
  if (from == to) return true;
  if (!visited.insert(from).second) return false;
  auto it = g.out.find(from);
  if (it == g.out.end()) return false;
  for (const auto& [next, edge] : it->second) {
    path.push_back(next);
    if (findPathLocked(g, next, to, visited, path)) return true;
    path.pop_back();
  }
  return false;
}

void report(const Violation& v) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  std::function<void(const Violation&)> fn;
  {
    HandlerSlot& h = handlerSlot();
    std::lock_guard<std::mutex> lock(h.mu);
    fn = h.fn;
  }
  if (fn) {
    fn(v);
    return;
  }
  std::fprintf(stderr,
               "\n==== ninf lockdep: lock-order violation ====\n"
               "potential deadlock cycle: %s\n"
               "attempted now:  %s\n"
               "established by:\n%s"
               "============================================\n",
               v.cycle.c_str(), v.attempted.c_str(), v.established.c_str());
  std::fflush(stderr);
  std::abort();
}

/// Record held->acquiring edges; on a cycle, build the two-sided report.
/// Returns a violation to deliver after the graph lock is dropped.
bool checkAndRecord(std::uint32_t acquiring, Violation* out) {
  Graph& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  for (const std::uint32_t held : t_held.held()) {
    auto& edges = g.out[held];
    if (edges.find(acquiring) != edges.end()) continue;  // known-safe order
    if (held == acquiring) {
      // Two locks of one class nested: with a single-class hierarchy
      // there is no defined order between instances, so a parallel
      // thread nesting them the other way deadlocks.
      out->cycle = g.names[held] + " -> " + g.names[acquiring];
      out->attempted = describeStackLocked(g, t_held.held(), acquiring);
      out->established =
          "  (self-edge: '" + g.names[held] + "' nested inside itself)\n";
      return true;
    }
    std::vector<std::uint32_t> path;
    std::set<std::uint32_t> visited;
    if (findPathLocked(g, acquiring, held, visited, path)) {
      // acquiring -> ... -> held already exists, so held -> acquiring
      // closes a cycle.
      out->cycle = g.names[held] + " -> " + g.names[acquiring];
      std::uint32_t prev = acquiring;
      for (const std::uint32_t step : path) {
        out->cycle += " -> " + g.names[step];
        out->established += "  '" + g.names[prev] + "' before '" +
                            g.names[step] + "': " +
                            g.out[prev][step].site + "\n";
        prev = step;
      }
      out->attempted = describeStackLocked(g, t_held.held(), acquiring);
      // Record the edge anyway: the violation is reported once (the
      // next identical acquisition short-circuits on the known edge)
      // and the DFS tolerates cyclic graphs via the visited set.
      edges[acquiring] = {describeStackLocked(g, t_held.held(), acquiring)};
      return true;
    }
    edges[acquiring] = {describeStackLocked(g, t_held.held(), acquiring)};
  }
  return false;
}

}  // namespace

void declareCanonicalHierarchy() {
  // Metaserver directory: the table lock may wrap a per-server cache
  // lock.  The per-server poll lock wraps only the lazy dial of the
  // status channel, which installs that channel's reconnect factory;
  // the poll I/O itself runs with no directory lock held.  The monitor
  // loop's lock (directory.monitor) guards its stop flag alone: rounds
  // run with it released, so it stays a leaf with no edge to declare.
  declareOrder({"directory.global", "directory.server"});
  declareOrder({"directory.poll", "channel.setup", "channel.send",
                "channel.pending"});
  // Session wire path: a v1 exchange holds the channel setup lock across
  // transport sends (and may log); v2 sends hold the send lock, with
  // fault injection beneath it, and the fault plan bumps obs counters.
  declareOrder({"channel.setup", "obs.registry"});
  declareOrder({"channel.setup", "log.sink"});
  declareOrder({"channel.send", "faultplan", "obs.registry"});
  // Reactor: the solo hand-off queue is a strict leaf — postSolo writes
  // the wakeup eventfd under it but never takes another lock, and the
  // reactor thread drains it via swap so solo tasks and the inline
  // prologue (which take the pending/queue/metrics locks) run with it
  // released.
  declareOrder({"server.pending", "server.reactor.solo"});
  declareOrder({"jobqueue", "server.reactor.solo"});
  // Leaf instruments.
  declareOrder({"server.metrics", "obs.registry"});
  declareOrder({"obs.trace.registry", "obs.trace.buffer"});
  // Hot-path pooling/batching/caching (PR 8).  The buffer-pool global
  // list is a strict leaf: PooledBuffers can be destroyed while the
  // reactor drains its solo queue, while a channel drains its batch
  // queue, or under the result cache's eviction path, so every one of
  // those locks must sit above it.
  declareOrder({"server.reactor.solo", "pool.buffers"});
  declareOrder({"channel.batch", "pool.buffers"});
  declareOrder({"server.cache", "pool.buffers"});
  // The channel's group-commit flusher collects frames under the batch
  // lock, releases it, then sends under the send lock — it never holds
  // both, but enqueuers run under startV2 which may later take the
  // send lock, so the canonical order is batch above send.
  declareOrder({"channel.batch", "channel.send"});
  declareOrder({"channel.batch", "obs.registry"});
  declareOrder({"server.cache", "obs.registry"});
}

namespace {

std::once_flag g_hierarchy_once;

bool initialEnable() {
  if (const char* env = std::getenv("NINF_LOCKDEP")) {
    return env[0] != '\0' && env[0] != '0';
  }
#ifdef NINF_LOCKDEP_DEFAULT_ON
  return true;
#else
  return false;
#endif
}

}  // namespace

namespace detail {

std::atomic<bool> g_enabled{initialEnable()};

std::uint32_t classIdOf(Mutex& m) {
  std::uint32_t id = m.class_id_.load(std::memory_order_acquire);
  if (id != 0) return id;
  Graph& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  id = internLocked(g, m.lockClassName());
  m.class_id_.store(id, std::memory_order_release);
  return id;
}

void acquireSlow(Mutex& m) {
  if (t_busy) return;
  t_busy = true;
  std::call_once(g_hierarchy_once, declareCanonicalHierarchy);
  const std::uint32_t id = classIdOf(m);
  Violation v;
  const bool violated = checkAndRecord(id, &v);
  t_held.push(id);
  t_busy = false;
  if (violated) {
    t_busy = true;  // the handler may lock ninf mutexes freely
    report(v);
    t_busy = false;
  }
}

void releaseSlow(Mutex& m) {
  if (t_busy) return;
  const std::uint32_t id = m.class_id_.load(std::memory_order_acquire);
  if (id == 0) return;  // acquired while the checker was off
  t_held.remove(id);
}

void cvReleaseSlow(Mutex& m) { releaseSlow(m); }

void cvReacquireSlow(Mutex& m) { acquireSlow(m); }

}  // namespace detail

void setEnabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

void setViolationHandler(std::function<void(const Violation&)> handler) {
  HandlerSlot& h = handlerSlot();
  std::lock_guard<std::mutex> lock(h.mu);
  h.fn = std::move(handler);
}

void declareOrder(std::initializer_list<const char*> outer_to_inner) {
  Graph& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  const char* prev = nullptr;
  for (const char* name : outer_to_inner) {
    if (prev != nullptr) {
      const std::uint32_t from = internLocked(g, prev);
      const std::uint32_t to = internLocked(g, name);
      auto& edges = g.out[from];
      if (edges.find(to) == edges.end()) {
        edges[to] = {"declared lock hierarchy"};
      }
    }
    prev = name;
  }
}

std::uint64_t violationCount() {
  return g_violations.load(std::memory_order_relaxed);
}

std::size_t edgeCount() {
  Graph& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  std::size_t n = 0;
  for (const auto& [from, edges] : g.out) n += edges.size();
  return n;
}

bool hasEdge(const char* from, const char* to) {
  Graph& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  auto f = g.ids.find(from);
  auto t = g.ids.find(to);
  if (f == g.ids.end() || t == g.ids.end()) return false;
  auto it = g.out.find(f->second);
  return it != g.out.end() && it->second.find(t->second) != it->second.end();
}

std::vector<std::string> heldLockNames() {
  Graph& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  std::vector<std::string> out;
  out.reserve(t_held.depth);
  for (const std::uint32_t id : t_held.held()) out.push_back(g.names[id]);
  return out;
}

void resetGraphForTesting() {
  Graph& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  g.out.clear();
  g_violations.store(0, std::memory_order_relaxed);
  t_held.depth = 0;
}

}  // namespace ninf::lockdep
