// Idempotent result cache with single-flight coalescing (PR 8).
//
// Entries registered with the IDL `Idempotent` clause are pure functions of
// their IN arguments, so the server may replay a previously computed reply
// instead of re-running the numerical kernel.  The cache key is a 128-bit
// digest of the raw CallRequest body bytes (entry name + marshalled IN
// data), which makes "identical call" mean "byte-identical request" --
// no IDL-aware canonicalisation.  Every idempotent call pays the digest
// over its whole body in its prologue (on the reactor thread for a small
// request), so it reads words, not bytes.  A hit
// compares digests only, never bodies, so the digest is keyed with a
// per-process secret: a client that cannot compute the lane states
// cannot build a body that collides with another client's call.
//
// Single-flight: when N identical calls arrive concurrently, exactly one
// (the Owner) computes; the other N-1 (Waiters) park a callback and are
// fulfilled with the very same flattened reply payload the owner produced.
// This is what turns a 256-client thundering herd of `dmmul(n=512, A, B)`
// into one kernel execution and 256 byte-identical replies.
//
// Locking: `server.cache` is a leaf below the channel/reactor locks (see
// declareCanonicalHierarchy).  Payload destruction and waiter callbacks
// always happen OUTSIDE the cache mutex so a multi-megabyte eviction or a
// reply flatten can never stall concurrent lookups.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/sync.h"

namespace ninf::server {

/// Cache of flattened reply payloads keyed by request-body digest.
class ResultCache {
 public:
  struct Options {
    /// Total payload bytes the cache may retain; completed entries beyond
    /// this are evicted LRU-first.  0 disables retention entirely (every
    /// lookup misses), though single-flight coalescing still works.
    std::size_t max_bytes = 0;
    /// Completed entries older than this are dropped by sweep() and by
    /// lookups that touch them.  <= 0 means entries never expire by age.
    double ttl_seconds = 0.0;
  };

  /// 128-bit request digest.  Word-at-a-time: four independent 64-bit
  /// lanes fold two 8-byte words per step through a 64x64->128-bit
  /// multiply, the tail and length are folded in, and a final mix feeds
  /// every lane into both halves.  Both halves are functions of the same
  /// four lane states, so two bodies whose lanes collide collide in the
  /// whole digest; what keeps that out of a client's reach is the key.
  /// Process-local and not cryptographic.
  struct Digest {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    bool operator==(const Digest&) const = default;
  };

  /// Lane start values and per-lane word keys.  Whoever knows them can
  /// compute every lane state and, from those, a colliding body in
  /// closed form; digestOf(body) therefore uses a key drawn from
  /// std::random_device once per process, and no digest leaves it.
  struct DigestKey {
    std::array<std::uint64_t, 4> seed{};
    std::array<std::uint64_t, 4> key{};
  };

  /// The cached unit: the flattened CallReply *payload* (body bytes, no
  /// frame header) -- header fields (call id, trace context) differ per
  /// caller, so each consumer sends these very bytes, by reference,
  /// behind a frame header of its own.
  using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// Waiter completion.  Invoked outside the cache lock, on the fulfilling
  /// owner's thread.  A null payload means the owner aborted (server
  /// shutdown) and the waiter must fail the call itself.
  using ReadyFn = std::function<void(Payload)>;

  enum class Role {
    Hit,    ///< payload is ready in Lookup::payload
    Owner,  ///< caller computes; MUST call fulfill() exactly once
    Waiter  ///< on_ready was parked; it fires when the owner fulfills
  };

  struct Lookup {
    Role role = Role::Owner;
    Payload payload;  // set when role == Hit
  };

  explicit ResultCache(Options options);
  /// Fails any still-parked waiters with a null payload.
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Digest under this process's secret key.
  static Digest digestOf(std::span<const std::uint8_t> body);

  /// Test hooks: the digest under an explicit key, and the four lane
  /// states after the body's whole 64-byte stripes under that key.
  static Digest digestOf(std::span<const std::uint8_t> body,
                         const DigestKey& key);
  static std::array<std::uint64_t, 4> stripeLanes(
      std::span<const std::uint8_t> body, const DigestKey& key);

  /// One call per incoming idempotent request.  `on_ready` must be
  /// non-empty; it is consumed only when the result is Waiter.
  Lookup lookupOrJoin(const Digest& digest, ReadyFn on_ready);

  /// Owner completes its computation.  `cacheable` is false for error
  /// replies: current waiters still receive the payload (byte-identical
  /// failure), but nothing is retained for future hits.
  void fulfill(const Digest& digest, Payload payload, bool cacheable);

  /// Drop completed entries older than ttl_seconds.  Called from the
  /// server's pending-result sweeper thread.
  void sweep();

  /// Retained payload bytes (also exported as the server.cache.bytes gauge).
  std::size_t bytes() const;
  /// Completed (hit-servable) entries currently resident.
  std::size_t entries() const;

 private:
  struct DigestHash {
    std::size_t operator()(const Digest& d) const noexcept {
      return static_cast<std::size_t>(d.a ^ (d.b * 0x9e3779b97f4a7c15ull));
    }
  };

  struct Entry {
    bool inflight = true;
    Payload payload;                                // set once completed
    std::vector<ReadyFn> waiters;                   // only while inflight
    std::chrono::steady_clock::time_point ready_at{};
    std::list<Digest>::iterator lru_it{};           // only once completed
  };

  using Map = std::unordered_map<Digest, Entry, DigestHash>;

  /// Unlink a completed entry; the payload is returned to the caller so its
  /// destruction happens outside the lock.
  Payload eraseCompletedLocked(Map::iterator it) NINF_REQUIRES(mutex_);

  Options options_;
  mutable Mutex mutex_{"server.cache"};
  Map map_ NINF_GUARDED_BY(mutex_);
  std::list<Digest> lru_ NINF_GUARDED_BY(mutex_);  // front = most recent
  std::size_t bytes_ NINF_GUARDED_BY(mutex_) = 0;
};

}  // namespace ninf::server
