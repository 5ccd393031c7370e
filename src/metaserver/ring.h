// Consistent-hash ring over N metaserver shards.
//
// The service namespace is sharded by entry name: each shard projects a
// fixed number of virtual points onto a 64-bit hash circle, and an entry
// belongs to the shard owning the first point at or after the entry's
// hash.  Virtual points smooth the partition (~64 per shard keeps the
// imbalance within a few percent) and make ownership a pure function of
// the shard id set — every node and every client computes the same
// answer from the same RingDescriptor, no coordination needed.
//
// Epochs: each shard carries its own fencing epoch (bumped on backup
// promotion); the ring epoch is the sum of shard epochs, so any
// promotion anywhere advances it.  merge() folds in another view by
// per-shard max epoch — the promoted backup's higher epoch wins over the
// deposed primary's stale claim — and clients hand the ring epoch to the
// connection pool as the reuse generation, flushing connections routed
// under the old topology.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "protocol/meta_wire.h"

namespace ninf::metaserver {

/// FNV-1a, the ring's hash.  Stable across builds by definition (the
/// wire protocol depends on every party hashing alike).
std::uint64_t fnv1a64(std::string_view bytes);

class HashRing {
 public:
  /// Virtual points per shard on the circle.
  static constexpr std::size_t kVnodesPerShard = 64;

  HashRing() = default;
  explicit HashRing(protocol::RingDescriptor desc);

  bool empty() const { return desc_.shards.empty(); }
  std::uint64_t epoch() const { return desc_.ring_epoch; }
  const protocol::RingDescriptor& descriptor() const { return desc_; }

  /// Shard id owning `entry_name`.  Requires a non-empty ring.
  std::uint32_t ownerOf(std::string_view entry_name) const;

  /// Shard info by id; nullptr when unknown.
  const protocol::ShardInfo* shard(std::uint32_t id) const;

  /// Fold in another view: unknown shards are added, known ones adopt
  /// the higher per-shard epoch (and its endpoints — a promotion moves
  /// the primary).  The ring epoch is recomputed as the epoch sum.
  /// Returns true when anything changed.
  bool merge(const protocol::RingDescriptor& other);

  /// The canonical ring epoch of a descriptor: the sum of its shard
  /// epochs.  Monotone under per-shard max merging, identical on every
  /// node once views converge.
  static std::uint64_t epochOf(const protocol::RingDescriptor& desc);

 private:
  void rebuild();

  protocol::RingDescriptor desc_;
  /// (point hash, shard id), sorted by hash.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
};

}  // namespace ninf::metaserver
