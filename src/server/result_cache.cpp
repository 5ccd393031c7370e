#include "server/result_cache.h"

#include <array>
#include <bit>
#include <cstring>
#include <random>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"

namespace ninf::server {

namespace {

struct Metrics {
  obs::Counter& hits = obs::counter("server.cache.hits");
  obs::Counter& misses = obs::counter("server.cache.misses");
  obs::Counter& merges = obs::counter("server.cache.inflight_merges");
  obs::Gauge& bytes = obs::gauge("server.cache.bytes");
};

Metrics& metrics() {
  static Metrics m;
  return m;
}

}  // namespace

ResultCache::ResultCache(Options options) : options_(options) {}

ResultCache::~ResultCache() {
  // Collect parked waiters under the lock, fail them outside it.
  std::vector<ReadyFn> orphans;
  {
    LockGuard lock(mutex_);
    for (auto& [digest, entry] : map_) {
      for (auto& w : entry.waiters) {
        if (w) orphans.push_back(std::move(w));
      }
      entry.waiters.clear();
    }
    map_.clear();
    lru_.clear();
    bytes_ = 0;
  }
  for (auto& w : orphans) w(nullptr);
}

namespace {

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// 64x64 -> 128-bit multiply, folded back to 64 bits.
std::uint64_t mulFold(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
}

/// One lane consumes two words.  The lane's state enters the multiply,
/// so the digest depends on word order.  When w1 equals the state the
/// step reduces to w0 ^ key: whoever knew the state and the key could
/// replace any pair with one of the same output, which is why both are
/// secret (DigestKey).
std::uint64_t laneStep(std::uint64_t acc, std::uint64_t w0, std::uint64_t w1,
                       std::uint64_t key) {
  const std::uint64_t a = w0 ^ key;
  const std::uint64_t b = w1 ^ acc;
  return mulFold(a, b) + a + std::rotl(b, 31);
}

/// Bijective 64-bit finalizer (MurmurHash3 fmix64).
std::uint64_t avalanche(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Four independent lanes, each taking 16 bytes of every 64-byte
/// stripe, so the multiplies of one stripe overlap in the pipeline.
/// Consumes the whole stripes of `body`; returns how many bytes that was.
std::size_t consumeStripes(std::array<std::uint64_t, 4>& acc,
                           std::span<const std::uint8_t> body,
                           const ResultCache::DigestKey& key) {
  const std::uint8_t* p = body.data();
  const std::size_t whole = body.size() & ~std::size_t{63};
  for (const std::uint8_t* end = p + whole; p != end; p += 64) {
    for (std::size_t i = 0; i < 4; ++i) {
      acc[i] = laneStep(acc[i], load64(p + 16 * i), load64(p + 16 * i + 8),
                        key.key[i]);
    }
  }
  return whole;
}

/// Two 32-bit draws per 64-bit value.
ResultCache::DigestKey drawDigestKey() {
  std::random_device device;
  const auto draw = [&device] {
    return (static_cast<std::uint64_t>(device()) << 32) | device();
  };
  ResultCache::DigestKey k;
  for (auto& v : k.seed) v = draw();
  for (auto& v : k.key) v = draw();
  return k;
}

}  // namespace

ResultCache::Digest ResultCache::digestOf(std::span<const std::uint8_t> body) {
  static const DigestKey key = drawDigestKey();
  return digestOf(body, key);
}

std::array<std::uint64_t, 4> ResultCache::stripeLanes(
    std::span<const std::uint8_t> body, const DigestKey& key) {
  std::array<std::uint64_t, 4> acc = key.seed;
  consumeStripes(acc, body, key);
  return acc;
}

ResultCache::Digest ResultCache::digestOf(std::span<const std::uint8_t> body,
                                          const DigestKey& key) {
  std::array<std::uint64_t, 4> acc = key.seed;
  const std::size_t done = consumeStripes(acc, body, key);
  const std::uint8_t* p = body.data() + done;
  std::size_t left = body.size() - done;
  // Tail: whole 16-byte pairs to lanes 0..2, then the last < 16 bytes
  // zero-padded into the next lane.  Padding is unambiguous because the
  // length is folded in below.
  std::size_t lane = 0;
  for (; left >= 16; p += 16, left -= 16, ++lane) {
    acc[lane] = laneStep(acc[lane], load64(p), load64(p + 8), key.key[lane]);
  }
  if (left > 0) {
    std::array<std::uint8_t, 16> last{};
    std::memcpy(last.data(), p, left);
    acc[lane] = laneStep(acc[lane], load64(last.data()),
                         load64(last.data() + 8), key.key[lane]);
  }
  // Each half combines every lane and the length through a bijection of
  // each single lane, then avalanches: changing any one lane changes
  // both halves.
  const std::uint64_t len = body.size();
  const std::uint64_t a =
      acc[0] + std::rotl(acc[1], 16) + std::rotl(acc[2], 32) +
      std::rotl(acc[3], 48) + len * 0x9e3779b97f4a7c15ull;
  const std::uint64_t b = std::rotl(acc[0], 23) ^ std::rotl(acc[1], 47) ^
                          std::rotl(acc[2], 7) ^ acc[3] ^
                          (len * 0xc2b2ae3d27d4eb4full);
  return Digest{avalanche(a), avalanche(b)};
}

ResultCache::Payload ResultCache::eraseCompletedLocked(Map::iterator it) {
  Payload doomed = std::move(it->second.payload);
  if (doomed) bytes_ -= doomed->size();
  lru_.erase(it->second.lru_it);
  map_.erase(it);
  return doomed;
}

ResultCache::Lookup ResultCache::lookupOrJoin(const Digest& digest,
                                              ReadyFn on_ready) {
  auto& m = metrics();
  const auto now = std::chrono::steady_clock::now();
  Payload expired;  // destroyed outside the lock
  Lookup result;
  bool merged = false;
  {
    LockGuard lock(mutex_);
    auto it = map_.find(digest);
    if (it != map_.end() && !it->second.inflight && options_.ttl_seconds > 0) {
      const std::chrono::duration<double> age = now - it->second.ready_at;
      if (age.count() > options_.ttl_seconds) {
        expired = eraseCompletedLocked(it);
        it = map_.end();
      }
    }
    if (it == map_.end()) {
      Entry entry;
      entry.inflight = true;
      map_.emplace(digest, std::move(entry));
      result.role = Role::Owner;
    } else if (it->second.inflight) {
      NINF_REQUIRE(on_ready != nullptr, "inflight join needs a callback");
      it->second.waiters.push_back(std::move(on_ready));
      result.role = Role::Waiter;
      merged = true;
    } else {
      // Completed entry: refresh LRU position and serve.
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      result.role = Role::Hit;
      result.payload = it->second.payload;
    }
  }
  if (result.role == Role::Hit) {
    m.hits.add();
  } else if (merged) {
    m.merges.add();
  } else {
    m.misses.add();
  }
  return result;
}

void ResultCache::fulfill(const Digest& digest, Payload payload,
                          bool cacheable) {
  std::vector<ReadyFn> waiters;
  std::vector<Payload> evicted;  // destroyed outside the lock
  std::size_t resident = 0;
  {
    LockGuard lock(mutex_);
    auto it = map_.find(digest);
    if (it == map_.end()) return;  // entry raced away (shutdown)
    waiters = std::move(it->second.waiters);
    it->second.waiters.clear();
    const bool retain = cacheable && payload && options_.max_bytes > 0 &&
                        payload->size() <= options_.max_bytes;
    if (!retain) {
      map_.erase(it);
    } else {
      it->second.inflight = false;
      it->second.payload = payload;
      it->second.ready_at = std::chrono::steady_clock::now();
      lru_.push_front(digest);
      it->second.lru_it = lru_.begin();
      bytes_ += payload->size();
      while (bytes_ > options_.max_bytes && !lru_.empty()) {
        auto victim = map_.find(lru_.back());
        if (victim == map_.end()) {  // defensive; lru_ and map_ move together
          lru_.pop_back();
          continue;
        }
        if (victim == it) break;  // never evict the entry just inserted
        evicted.push_back(eraseCompletedLocked(victim));
      }
    }
    resident = bytes_;
  }
  metrics().bytes.set(static_cast<double>(resident));
  for (auto& w : waiters) {
    if (w) w(payload);
  }
}

void ResultCache::sweep() {
  if (options_.ttl_seconds <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<Payload> expired;
  std::size_t resident = 0;
  {
    LockGuard lock(mutex_);
    // Oldest completions cluster at the LRU tail only if access order
    // tracks completion order, which it need not -- walk the whole map.
    for (auto it = map_.begin(); it != map_.end();) {
      auto cur = it++;
      if (cur->second.inflight) continue;
      const std::chrono::duration<double> age = now - cur->second.ready_at;
      if (age.count() > options_.ttl_seconds) {
        expired.push_back(eraseCompletedLocked(cur));
      }
    }
    resident = bytes_;
  }
  metrics().bytes.set(static_cast<double>(resident));
}

std::size_t ResultCache::bytes() const {
  LockGuard lock(mutex_);
  return bytes_;
}

std::size_t ResultCache::entries() const {
  LockGuard lock(mutex_);
  return lru_.size();
}

}  // namespace ninf::server
