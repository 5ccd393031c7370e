// Idempotent result cache: digesting, single-flight coalescing, LRU/TTL
// eviction (server/result_cache.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "server/result_cache.h"
#include "xdr/xdr.h"

namespace ninf::server {
namespace {

using Digest = ResultCache::Digest;
using Payload = ResultCache::Payload;
using Role = ResultCache::Role;

std::vector<std::uint8_t> bytesOf(const char* s) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(s);
  return {p, p + std::char_traits<char>::length(s)};
}

Payload payloadOf(const char* s) {
  return std::make_shared<const std::vector<std::uint8_t>>(bytesOf(s));
}

ResultCache::ReadyFn noReady() {
  return [](Payload) { FAIL() << "callback must not fire for this role"; };
}

TEST(ResultCacheDigest, DeterministicAndCollisionResistant) {
  const auto body = bytesOf("dmmul n=64 ...");
  EXPECT_EQ(ResultCache::digestOf(body), ResultCache::digestOf(body));

  // Any perturbation — flipped byte, extension, truncation — must move
  // the digest; so must permuting the same bytes.
  auto flipped = body;
  flipped[3] ^= 1;
  EXPECT_NE(ResultCache::digestOf(body), ResultCache::digestOf(flipped));
  EXPECT_NE(ResultCache::digestOf(body),
            ResultCache::digestOf(bytesOf("dmmul n=64 ....")));
  EXPECT_NE(ResultCache::digestOf(bytesOf("ab")),
            ResultCache::digestOf(bytesOf("ba")));
  EXPECT_NE(ResultCache::digestOf(bytesOf("")),
            ResultCache::digestOf(std::vector<std::uint8_t>{0}));
}

std::vector<std::uint8_t> randomBytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& byte : out) byte = static_cast<std::uint8_t>(rng.next());
  return out;
}

TEST(ResultCacheDigest, EverySingleBitFlipMovesBothHalves) {
  const auto body = randomBytes(4096, 1);
  const Digest base = ResultCache::digestOf(body);
  auto flipped = body;
  int same_a = 0, same_b = 0;
  for (std::size_t bit = 0; bit < body.size() * 8; ++bit) {
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const Digest d = ResultCache::digestOf(flipped);
    same_a += d.a == base.a;
    same_b += d.b == base.b;
    flipped[bit / 8] = body[bit / 8];
  }
  EXPECT_EQ(same_a, 0);
  EXPECT_EQ(same_b, 0);
}

TEST(ResultCacheDigest, ZeroBodiesOfEveryLengthDiffer) {
  // Zero padding of a short tail must not alias a longer body.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (std::size_t len = 0; len <= 130; ++len) {
    const Digest d = ResultCache::digestOf(std::vector<std::uint8_t>(len, 0));
    EXPECT_TRUE(seen.emplace(d.a, d.b).second) << "length " << len;
  }
}

TEST(ResultCacheDigest, SwappingTwoWordsMovesTheDigest) {
  // Words of one lane, of different lanes, of the tail, and far apart;
  // on a random body and on a zero body holding just the two words (an
  // order-blind accumulator would miss the latter).
  constexpr std::size_t kWords = 4096 / 8 + 5;  // 4 KiB plus a tail
  const auto random = randomBytes(kWords * 8, 2);
  for (const bool sparse : {false, true}) {
    for (std::size_t i = 0; i < kWords; i += 7) {
      for (std::size_t j = i + 1; j < kWords; j += 13) {
        auto body = sparse ? std::vector<std::uint8_t>(kWords * 8, 0) : random;
        if (sparse) {
          std::copy_n(random.begin(), 8, body.begin() + 8 * i);
          std::copy_n(random.begin() + 8, 8, body.begin() + 8 * j);
        }
        const Digest before = ResultCache::digestOf(body);
        std::swap_ranges(body.begin() + 8 * i, body.begin() + 8 * i + 8,
                         body.begin() + 8 * j);
        EXPECT_NE(ResultCache::digestOf(body), before)
            << "words " << i << " and " << j << (sparse ? " (sparse)" : "");
      }
    }
  }
}

TEST(ResultCacheDigest, AppendingAZeroByteMovesTheDigest) {
  for (std::size_t len = 0; len <= 200; ++len) {
    auto body = randomBytes(len, 3 + len);
    const Digest before = ResultCache::digestOf(body);
    body.push_back(0);
    EXPECT_NE(ResultCache::digestOf(body), before) << "length " << len;
  }
}

TEST(ResultCacheDigest, KnownKeyForgeryDoesNotCollideUnderTheProcessKey) {
  // With the key known, any word pair of a full stripe can be replaced in
  // closed form: set w1 to the lane's state before the step and the step
  // returns w0 ^ key, so w0 = V ^ key reproduces the step's output V.
  ResultCache::DigestKey known;
  known.seed = {0x243f6a8885a308d3ull, 0x13198a2e03707345ull,
                0xa4093822299f31d1ull, 0x082efa98ec4e6c89ull};
  known.key = {0x452821e638d01377ull, 0xbe5466cf34e90c6dull,
               0xc0ac29b7c97c50ddull, 0x3f84d5b5b5470917ull};
  const auto body = randomBytes(4 * 64 + 9, 5);
  const std::span<const std::uint8_t> view(body);
  constexpr std::size_t kLane = 2;
  constexpr std::size_t kPair = 64 + 16 * kLane;  // lane 2, second stripe
  const std::uint64_t state =
      ResultCache::stripeLanes(view.first(64), known)[kLane];
  const std::uint64_t output =
      ResultCache::stripeLanes(view.first(128), known)[kLane];
  auto forged = body;
  const std::uint64_t words[2] = {output ^ known.key[kLane], state};
  std::memcpy(forged.data() + kPair, words, sizeof(words));
  ASSERT_NE(forged, body);

  // The forgery holds under the key it was built with...
  EXPECT_EQ(ResultCache::digestOf(forged, known),
            ResultCache::digestOf(body, known));
  // ...but not under the process's own key, which no client knows.
  EXPECT_NE(ResultCache::digestOf(forged), ResultCache::digestOf(body));
}

TEST(ResultCacheDigest, EpBodiesDifferingOnlyInFirstNeverCollide) {
  // The rpc-small request shape: ep(first, 64), unique first per call.
  // A collision on either 64-bit half would alias two distinct calls in
  // the cache's map if the other half ever collided too.
  constexpr std::int64_t kBodies = 1'000'000;
  std::vector<std::uint64_t> a, b;
  a.reserve(kBodies);
  b.reserve(kBodies);
  for (std::int64_t first = 0; first < kBodies; ++first) {
    xdr::Encoder enc;
    enc.putString("ep");
    enc.putI64(first * 64);
    enc.putI64(64);
    const Digest d = ResultCache::digestOf(enc.bytes());
    a.push_back(d.a);
    b.push_back(d.b);
  }
  for (auto* half : {&a, &b}) {
    std::sort(half->begin(), half->end());
    EXPECT_EQ(std::adjacent_find(half->begin(), half->end()), half->end());
  }
}

TEST(ResultCache, OwnerComputesThenHitsServeTheSamePayload) {
  ResultCache cache({/*max_bytes=*/1 << 20, /*ttl_seconds=*/0.0});
  const Digest d = ResultCache::digestOf(bytesOf("req"));

  auto first = cache.lookupOrJoin(d, noReady());
  ASSERT_EQ(first.role, Role::Owner);

  const Payload reply = payloadOf("reply-bytes");
  cache.fulfill(d, reply, /*cacheable=*/true);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), reply->size());

  auto hit = cache.lookupOrJoin(d, noReady());
  ASSERT_EQ(hit.role, Role::Hit);
  // The very same payload object: hits share bytes, they never copy.
  EXPECT_EQ(hit.payload.get(), reply.get());
}

TEST(ResultCache, ConcurrentIdenticalCallsCoalesceIntoOneOwner) {
  ResultCache cache({1 << 20, 0.0});
  const Digest d = ResultCache::digestOf(bytesOf("herd"));

  auto owner = cache.lookupOrJoin(d, noReady());
  ASSERT_EQ(owner.role, Role::Owner);

  const double merges0 =
      obs::counter("server.cache.inflight_merges").value();
  constexpr int kWaiters = 8;
  std::atomic<int> delivered{0};
  Payload seen[kWaiters];
  for (int i = 0; i < kWaiters; ++i) {
    auto join = cache.lookupOrJoin(d, [&, i](Payload p) {
      seen[i] = std::move(p);
      delivered.fetch_add(1);
    });
    EXPECT_EQ(join.role, Role::Waiter);
  }
  EXPECT_EQ(delivered.load(), 0);  // nothing fires before fulfill

  const Payload reply = payloadOf("one compute, many replies");
  cache.fulfill(d, reply, /*cacheable=*/true);
  EXPECT_EQ(delivered.load(), kWaiters);
  for (const auto& p : seen) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p.get(), reply.get());  // byte-identical shared payload
  }
  EXPECT_DOUBLE_EQ(
      obs::counter("server.cache.inflight_merges").value() - merges0,
      static_cast<double>(kWaiters));
}

TEST(ResultCache, ErrorRepliesReachWaitersButAreNeverRetained) {
  ResultCache cache({1 << 20, 0.0});
  const Digest d = ResultCache::digestOf(bytesOf("will-fail"));

  ASSERT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Owner);
  Payload waiter_got;
  ASSERT_EQ(cache.lookupOrJoin(d, [&](Payload p) { waiter_got = p; }).role,
            Role::Waiter);

  const Payload error_reply = payloadOf("status!=0");
  cache.fulfill(d, error_reply, /*cacheable=*/false);
  EXPECT_EQ(waiter_got.get(), error_reply.get());  // in-flight still served
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);

  // The next identical call recomputes rather than replaying the failure.
  EXPECT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Owner);
}

TEST(ResultCache, AbortedOwnerFailsWaitersWithNullPayload) {
  ResultCache cache({1 << 20, 0.0});
  const Digest d = ResultCache::digestOf(bytesOf("aborted"));

  ASSERT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Owner);
  bool fired = false;
  Payload waiter_got = payloadOf("sentinel");
  ASSERT_EQ(cache
                .lookupOrJoin(d,
                              [&](Payload p) {
                                fired = true;
                                waiter_got = std::move(p);
                              })
                .role,
            Role::Waiter);

  cache.fulfill(d, nullptr, /*cacheable=*/true);  // owner gave up
  EXPECT_TRUE(fired);
  EXPECT_EQ(waiter_got, nullptr);
  EXPECT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Owner);
}

TEST(ResultCache, DestructionFailsParkedWaiters) {
  bool fired = false;
  Payload got = payloadOf("sentinel");
  {
    ResultCache cache({1 << 20, 0.0});
    const Digest d = ResultCache::digestOf(bytesOf("orphan"));
    ASSERT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Owner);
    ASSERT_EQ(cache
                  .lookupOrJoin(d,
                                [&](Payload p) {
                                  fired = true;
                                  got = std::move(p);
                                })
                  .role,
              Role::Waiter);
  }  // server shutdown with the owner's job never run
  EXPECT_TRUE(fired);
  EXPECT_EQ(got, nullptr);
}

TEST(ResultCache, MaxBytesEvictsLeastRecentlyUsedFirst)
{
  // Three 8-byte payloads against a 20-byte budget: inserting C must
  // evict exactly one entry, and touching A first must make B the victim.
  ResultCache cache({20, 0.0});
  const Digest a = ResultCache::digestOf(bytesOf("a"));
  const Digest b = ResultCache::digestOf(bytesOf("b"));
  const Digest c = ResultCache::digestOf(bytesOf("c"));

  ASSERT_EQ(cache.lookupOrJoin(a, noReady()).role, Role::Owner);
  cache.fulfill(a, payloadOf("aaaaaaaa"), true);
  ASSERT_EQ(cache.lookupOrJoin(b, noReady()).role, Role::Owner);
  cache.fulfill(b, payloadOf("bbbbbbbb"), true);
  EXPECT_EQ(cache.entries(), 2u);

  ASSERT_EQ(cache.lookupOrJoin(a, noReady()).role, Role::Hit);  // A is MRU

  ASSERT_EQ(cache.lookupOrJoin(c, noReady()).role, Role::Owner);
  cache.fulfill(c, payloadOf("cccccccc"), true);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_LE(cache.bytes(), 20u);
  EXPECT_EQ(cache.lookupOrJoin(a, noReady()).role, Role::Hit);
  EXPECT_EQ(cache.lookupOrJoin(c, noReady()).role, Role::Hit);
  // B was the LRU victim; its digest now misses.
  EXPECT_EQ(cache.lookupOrJoin(b, noReady()).role, Role::Owner);

  // The bytes gauge tracks the retained total.
  EXPECT_DOUBLE_EQ(obs::gauge("server.cache.bytes").value(),
                   static_cast<double>(cache.bytes()));
}

TEST(ResultCache, OversizePayloadIsServedButNotRetained) {
  ResultCache cache({/*max_bytes=*/4, 0.0});
  const Digest d = ResultCache::digestOf(bytesOf("big"));
  ASSERT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Owner);
  cache.fulfill(d, payloadOf("way-more-than-four-bytes"), true);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Owner);
}

TEST(ResultCache, TtlExpiresEntriesOnSweepAndOnLookup) {
  ResultCache cache({1 << 20, /*ttl_seconds=*/0.05});
  const Digest d = ResultCache::digestOf(bytesOf("stale"));
  const Digest d2 = ResultCache::digestOf(bytesOf("stale2"));

  ASSERT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Owner);
  cache.fulfill(d, payloadOf("v"), true);
  ASSERT_EQ(cache.lookupOrJoin(d2, noReady()).role, Role::Owner);
  cache.fulfill(d2, payloadOf("w"), true);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Hit);

  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  // A lookup that touches an expired entry recomputes...
  EXPECT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Owner);
  // ...and the sweeper reclaims the rest without being looked up.
  cache.sweep();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_DOUBLE_EQ(obs::gauge("server.cache.bytes").value(), 0.0);
}

TEST(ResultCache, HitAndMissCountersTrackLookups) {
  ResultCache cache({1 << 20, 0.0});
  const double hits0 = obs::counter("server.cache.hits").value();
  const double misses0 = obs::counter("server.cache.misses").value();

  const Digest d = ResultCache::digestOf(bytesOf("counted"));
  ASSERT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Owner);
  cache.fulfill(d, payloadOf("v"), true);
  ASSERT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Hit);
  ASSERT_EQ(cache.lookupOrJoin(d, noReady()).role, Role::Hit);

  EXPECT_DOUBLE_EQ(obs::counter("server.cache.hits").value() - hits0, 2.0);
  EXPECT_DOUBLE_EQ(obs::counter("server.cache.misses").value() - misses0,
                   1.0);
}

TEST(ResultCache, ParallelMixedDigestsKeepSingleFlightInvariant) {
  // 8 threads x 64 rounds over 4 digests: every digest must see exactly
  // one Owner per computed generation, and every waiter must observe the
  // owner's payload (never a torn or foreign one).
  ResultCache cache({1 << 20, 0.0});
  constexpr int kThreads = 8;
  constexpr int kDigests = 4;
  std::atomic<int> owners{0};
  std::atomic<int> mismatches{0};
  std::vector<Digest> digests;
  for (int i = 0; i < kDigests; ++i) {
    digests.push_back(
        ResultCache::digestOf(bytesOf(("key" + std::to_string(i)).c_str())));
  }
  std::vector<Payload> replies;
  for (int i = 0; i < kDigests; ++i) {
    replies.push_back(payloadOf(("reply" + std::to_string(i)).c_str()));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 64; ++round) {
        const int i = round % kDigests;
        auto check = [&, i](const Payload& p) {
          if (!p || p->size() != replies[i]->size() ||
              !std::equal(p->begin(), p->end(), replies[i]->begin())) {
            mismatches.fetch_add(1);
          }
        };
        auto r = cache.lookupOrJoin(digests[i], check);
        if (r.role == Role::Owner) {
          owners.fetch_add(1);
          cache.fulfill(digests[i], replies[i], true);
        } else if (r.role == Role::Hit) {
          check(r.payload);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Nothing expires and nothing is evicted, so each digest was computed
  // exactly once no matter how the threads interleaved.
  EXPECT_EQ(owners.load(), kDigests);
  EXPECT_EQ(cache.entries(), static_cast<std::size_t>(kDigests));
}

}  // namespace
}  // namespace ninf::server
