#include "common/buffer_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <new>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace ninf::common {

namespace {

constexpr std::size_t classBytes(std::size_t idx) {
  return BufferPool::kMinClassBytes << (2 * idx);
}

/// Smallest class whose slab fits `n`; callers have already rejected
/// n > kMaxClassBytes.
std::size_t classIndexFor(std::size_t n) {
  std::size_t idx = 0;
  while (classBytes(idx) < n) ++idx;
  return idx;
}

/// Exact class of a slab being released, or kClasses when the capacity
/// is not a class size (heap-fallback buffers).
std::size_t classIndexOfCapacity(std::size_t cap) {
  for (std::size_t idx = 0; idx < BufferPool::kClasses; ++idx) {
    if (classBytes(idx) == cap) return idx;
  }
  return BufferPool::kClasses;
}

struct Metrics {
  obs::Counter& hits = obs::counter("pool.buffers.hits");
  obs::Counter& misses = obs::counter("pool.buffers.misses");
  obs::Gauge& resident = obs::gauge("pool.buffers.resident_bytes");
};

Metrics& metrics() {
  static Metrics m;
  return m;
}

/// Bytes currently parked in free lists (thread caches + global).  The
/// gauge is set from this atomic after every change so concurrent
/// updates never lose increments (obs::Gauge is set-only).
std::atomic<std::int64_t> g_resident_bytes{0};

void addResident(std::int64_t delta) {
  const std::int64_t now =
      g_resident_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  metrics().resident.set(static_cast<double>(now));
}

/// Global overflow free lists.  Leaked on purpose: thread-cache
/// destructors run at thread exit, possibly after static destruction.
struct GlobalLists {
  ninf::Mutex mutex{"pool.buffers"};
  std::array<std::vector<std::uint8_t*>, BufferPool::kClasses> free_lists
      NINF_GUARDED_BY(mutex);
};

GlobalLists& global() {
  static GlobalLists* g = new GlobalLists();
  return *g;
}

/// Park a slab in the global list, or free it if the class is full.
/// Returns the resident-bytes delta the caller must apply (0 when the
/// slab moved lists, -cap when it was freed after being resident).
void parkOrFree(std::uint8_t* data, std::size_t idx, bool was_resident) {
  bool parked = false;
  {
    ninf::LockGuard lock(global().mutex);
    auto& list = global().free_lists[idx];
    if (list.size() < BufferPool::kGlobalSlots) {
      list.push_back(data);
      parked = true;
    }
  }
  const auto cap = static_cast<std::int64_t>(classBytes(idx));
  if (!parked) {
    ::operator delete(data);
    if (was_resident) addResident(-cap);
  } else if (!was_resident) {
    addResident(cap);
  }
}

struct ThreadCache {
  std::array<std::array<std::uint8_t*, BufferPool::kThreadCacheSlots>,
             BufferPool::kClasses>
      slots{};
  std::array<std::size_t, BufferPool::kClasses> count{};

  ~ThreadCache() { flush(); }

  void flush() {
    for (std::size_t idx = 0; idx < BufferPool::kClasses; ++idx) {
      while (count[idx] > 0) {
        parkOrFree(slots[idx][--count[idx]], idx, /*was_resident=*/true);
      }
    }
  }
};

ThreadCache& threadCache() {
  thread_local ThreadCache tc;
  return tc;
}

}  // namespace

// ------------------------------------------------------------ PooledBuffer

PooledBuffer::~PooledBuffer() {
  if (data_ != nullptr) BufferPool::instance().release(data_, cap_);
}

PooledBuffer& PooledBuffer::operator=(PooledBuffer&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) BufferPool::instance().release(data_, cap_);
    data_ = other.data_;
    size_ = other.size_;
    cap_ = other.cap_;
    other.data_ = nullptr;
    other.size_ = other.cap_ = 0;
  }
  return *this;
}

void PooledBuffer::resize(std::size_t n) {
  if (n > cap_) {
    throw Error("PooledBuffer::resize beyond capacity (" + std::to_string(n) +
                " > " + std::to_string(cap_) + ")");
  }
  size_ = n;
}

void PooledBuffer::append(std::span<const std::uint8_t> bytes) {
  if (size_ + bytes.size() > cap_) {
    throw Error("PooledBuffer::append beyond capacity (" +
                std::to_string(size_ + bytes.size()) + " > " +
                std::to_string(cap_) + ")");
  }
  std::copy(bytes.begin(), bytes.end(), data_ + size_);
  size_ += bytes.size();
}

// -------------------------------------------------------------- BufferPool

BufferPool& BufferPool::instance() {
  static BufferPool pool;
  return pool;
}

PooledBuffer BufferPool::acquire(std::size_t min_capacity) {
  if (min_capacity > kMaxClassBytes) {
    // Oversized: plain heap allocation, freed (not pooled) on release.
    metrics().misses.add();
    auto* data = static_cast<std::uint8_t*>(::operator new(min_capacity));
    return PooledBuffer(data, min_capacity);
  }
  const std::size_t idx = classIndexFor(min_capacity);
  const std::size_t cap = classBytes(idx);

  auto& tc = threadCache();
  if (tc.count[idx] > 0) {
    metrics().hits.add();
    addResident(-static_cast<std::int64_t>(cap));
    return PooledBuffer(tc.slots[idx][--tc.count[idx]], cap);
  }

  std::uint8_t* data = nullptr;
  {
    ninf::LockGuard lock(global().mutex);
    auto& list = global().free_lists[idx];
    if (!list.empty()) {
      data = list.back();
      list.pop_back();
    }
  }
  if (data != nullptr) {
    metrics().hits.add();
    addResident(-static_cast<std::int64_t>(cap));
    return PooledBuffer(data, cap);
  }

  metrics().misses.add();
  data = static_cast<std::uint8_t*>(::operator new(cap));
  return PooledBuffer(data, cap);
}

void BufferPool::release(std::uint8_t* data, std::size_t cap) {
  const std::size_t idx = classIndexOfCapacity(cap);
  if (idx >= kClasses) {
    ::operator delete(data);
    return;
  }
  auto& tc = threadCache();
  if (tc.count[idx] < kThreadCacheSlots) {
    tc.slots[idx][tc.count[idx]++] = data;
    addResident(static_cast<std::int64_t>(cap));
    return;
  }
  parkOrFree(data, idx, /*was_resident=*/false);
}

void BufferPool::trimThreadCache() { threadCache().flush(); }

void BufferPool::drainGlobal() {
  std::array<std::vector<std::uint8_t*>, kClasses> drained;
  {
    ninf::LockGuard lock(global().mutex);
    for (std::size_t idx = 0; idx < kClasses; ++idx) {
      drained[idx].swap(global().free_lists[idx]);
    }
  }
  for (std::size_t idx = 0; idx < kClasses; ++idx) {
    for (auto* data : drained[idx]) {
      ::operator delete(data);
      addResident(-static_cast<std::int64_t>(classBytes(idx)));
    }
  }
}

PooledBuffer acquireBuffer(std::size_t min_capacity) {
  // A typed receiver, so call-graph tools resolve acquire() to this pool
  // rather than to every acquire() in the tree.
  BufferPool& pool = BufferPool::instance();
  return pool.acquire(min_capacity);
}

}  // namespace ninf::common
