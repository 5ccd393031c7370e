// Concurrency primitives with machine-checked discipline.
//
// Two independent layers, one set of types:
//
//  * Compile time — every primitive carries Clang thread-safety-analysis
//    attributes (the NINF_GUARDED_BY / NINF_REQUIRES / ... macros below),
//    so a Clang build with -Wthread-safety proves that every annotated
//    field is only touched with its mutex held and every *Locked method
//    is only called by a lock holder.  On GCC (and on Clang without the
//    analysis) the macros compile away to nothing; the CMake option
//    NINF_THREAD_SAFETY turns the analysis on as an error.
//
//  * Runtime (lockdep) — every ninf::Mutex belongs to a named lock
//    class ("channel.pending", "pool.mutex", ...).  When the checker is
//    enabled, each acquisition records "class A was held while class B
//    was acquired" edges into a global order graph; the moment an
//    acquisition would close a cycle (a potential deadlock, even if this
//    particular schedule would not actually deadlock), the checker
//    reports both acquisition sites.  The documented hierarchy in
//    docs/ANALYSIS.md is pre-seeded into the graph, so a violation of
//    the declared order fails deterministically — no unlucky
//    interleaving required.  The checker is on by default in Debug and
//    sanitizer builds (NINF_LOCKDEP_DEFAULT_ON) and can be forced either
//    way with the NINF_LOCKDEP=0/1 environment variable; when disabled,
//    the per-acquisition cost is a single relaxed atomic load.
//
// Usage mirrors the standard library:
//
//   ninf::Mutex mutex_{"pool.mutex"};
//   std::size_t in_use_ NINF_GUARDED_BY(mutex_) = 0;
//
//   void touch() { ninf::LockGuard lock(mutex_); ++in_use_; }
//   void touchLocked() NINF_REQUIRES(mutex_);  // caller holds mutex_
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

// ------------------------------------------------------------------ macros
// Thin wrappers over Clang's thread-safety attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).  Empty on
// toolchains without the attribute so annotated headers stay portable.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define NINF_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef NINF_THREAD_ANNOTATION
#define NINF_THREAD_ANNOTATION(x)
#endif

/// Declares a type to be a lockable capability (mutexes below use it).
#define NINF_CAPABILITY(name) NINF_THREAD_ANNOTATION(capability(name))
/// Declares an RAII type that acquires on construction, releases on
/// destruction (LockGuard / UniqueLock).
#define NINF_SCOPED_CAPABILITY NINF_THREAD_ANNOTATION(scoped_lockable)
/// Field may only be read or written with the given mutex held.
#define NINF_GUARDED_BY(x) NINF_THREAD_ANNOTATION(guarded_by(x))
/// Pointer field whose *pointee* is guarded by the given mutex.
#define NINF_PT_GUARDED_BY(x) NINF_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function requires the given mutex(es) held on entry (and exit).
#define NINF_REQUIRES(...) \
  NINF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the mutex(es) and returns with them held.
#define NINF_ACQUIRE(...) \
  NINF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the mutex(es).
#define NINF_RELEASE(...) \
  NINF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the mutex only when returning the given value.
#define NINF_TRY_ACQUIRE(...) \
  NINF_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function must NOT be called with the given mutex(es) held
/// (deadlock-by-reentry documentation).
#define NINF_EXCLUDES(...) NINF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Asserts (at runtime, for the analysis) that the mutex is held.
#define NINF_ASSERT_CAPABILITY(x) \
  NINF_THREAD_ANNOTATION(assert_capability(x))
/// Documents static acquisition order between two mutex members.
#define NINF_ACQUIRED_BEFORE(...) \
  NINF_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define NINF_ACQUIRED_AFTER(...) \
  NINF_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// Escape hatch, always paired with a comment explaining why.
#define NINF_NO_THREAD_SAFETY_ANALYSIS \
  NINF_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------- ninf-tidy
// Markers consumed by tools/ninf_tidy (see docs/ANALYSIS.md).  They
// compile to nothing; the checker reads them off the token stream.

/// The function runs on the reactor thread: it is an entry point of
/// the event loop or a solo-stage callback.  Everything reachable from
/// it must be non-blocking — no connects, joins, condvar waits, or
/// non-leaf lock acquisitions (ninf-tidy's reactor-blocking check
/// walks the call graph from these roots).
#define NINF_REACTOR_CONTEXT
/// The function may block the calling thread (network I/O, waits,
/// joins).  Reactor-context code must never reach it.
#define NINF_BLOCKING
/// Audited waiver for one ninf-tidy diagnostic on the statement below.
/// `check` names the suppressed check; `reason` must be a real
/// justification sentence — CI rejects empty or trivial ones.
#define NINF_TIDY_SUPPRESS(check, reason) \
  static_assert(sizeof(check) > 0 && sizeof(reason) > 1, "audited waiver")

namespace ninf {

class Mutex;
class UniqueLock;

namespace lockdep {

/// One detected lock-order violation: acquiring `cycle`'s last class
/// would close an ordering cycle in the global graph.
struct Violation {
  /// Human-readable cycle, e.g. "test.B -> test.A -> test.B".
  std::string cycle;
  /// The acquisition being attempted now (thread, held stack, target).
  std::string attempted;
  /// The previously recorded acquisition site(s) that established the
  /// conflicting edge(s), one line per edge of the cycle.
  std::string established;
};

/// Enable/disable the checker process-wide.  Toggle at quiescent points
/// (threads holding ninf mutexes across a toggle keep a stale held
/// stack until they release them).
void setEnabled(bool on);
bool enabled();

/// Replace the violation handler.  An empty function restores the
/// default, which prints the report to stderr and aborts.
void setViolationHandler(std::function<void(const Violation&)> handler);

/// Pre-seed "outer acquired before inner" edges for each consecutive
/// pair, so a reversed acquisition anywhere violates deterministically
/// even if the forward order is never observed at runtime.
void declareOrder(std::initializer_list<const char*> outer_to_inner);

/// Violations reported since process start (or resetGraphForTesting).
std::uint64_t violationCount();

/// Directed edges currently in the order graph (includes declared ones).
std::size_t edgeCount();
/// True when the graph holds the edge `from` acquired-before `to`.
bool hasEdge(const char* from, const char* to);

/// Lock-class names held by the calling thread, outermost first.
/// Empty while the checker is disabled.
std::vector<std::string> heldLockNames();

/// Seed the documented lock hierarchy (docs/ANALYSIS.md).  The checker
/// does this once, on the first acquisition it observes, so reversing a
/// documented order fails even on schedules where the forward order
/// never runs.  Tests call it again after resetGraphForTesting().
void declareCanonicalHierarchy();

/// Test hook: drop every recorded/declared edge, the violation tally,
/// and this thread's held stack (lock-class names stay interned).  Not
/// safe while other threads hold ninf mutexes.
void resetGraphForTesting();

namespace detail {

/// Single branch on the hot path; false means no TLS access, no
/// bookkeeping, nothing — the disabled checker costs exactly this load.
extern std::atomic<bool> g_enabled;

void acquireSlow(Mutex& m);
void releaseSlow(Mutex& m);
void cvReleaseSlow(Mutex& m);
void cvReacquireSlow(Mutex& m);
std::uint32_t classIdOf(Mutex& m);

}  // namespace detail

inline void noteAcquire(Mutex& m) {
  if (detail::g_enabled.load(std::memory_order_relaxed)) {
    detail::acquireSlow(m);
  }
}

inline void noteRelease(Mutex& m) {
  if (detail::g_enabled.load(std::memory_order_relaxed)) {
    detail::releaseSlow(m);
  }
}

/// A condition-variable wait genuinely releases the mutex: pop it from
/// the held stack for the duration so ordering edges recorded by other
/// acquisitions while parked are truthful...
inline void noteCondVarRelease(Mutex& m) {
  if (detail::g_enabled.load(std::memory_order_relaxed)) {
    detail::cvReleaseSlow(m);
  }
}

/// ...and the wakeup re-acquires it: re-check ordering edges against
/// everything still held and push it back.
inline void noteCondVarReacquire(Mutex& m) {
  if (detail::g_enabled.load(std::memory_order_relaxed)) {
    detail::cvReacquireSlow(m);
  }
}

}  // namespace lockdep

/// std::mutex with a lock-class name (for the order checker) and Clang
/// thread-safety attributes.  Same blocking semantics and (checker off)
/// essentially the same cost as the std::mutex it wraps.
class NINF_CAPABILITY("mutex") Mutex {
 public:
  /// `lock_class` must be a string with static storage duration (it is
  /// kept by pointer); every mutex sharing the name shares ordering
  /// constraints.
  explicit Mutex(const char* lock_class = "mutex") noexcept
      : class_name_(lock_class) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NINF_ACQUIRE() {
    lockdep::noteAcquire(*this);
    m_.lock();
  }

  void unlock() NINF_RELEASE() {
    m_.unlock();
    lockdep::noteRelease(*this);
  }

  bool try_lock() NINF_TRY_ACQUIRE(true) {
    if (!m_.try_lock()) return false;
    lockdep::noteAcquire(*this);
    return true;
  }

  const char* lockClassName() const { return class_name_; }

 private:
  friend class UniqueLock;
  friend void lockdep::detail::releaseSlow(Mutex&);
  friend std::uint32_t lockdep::detail::classIdOf(Mutex&);

  std::mutex m_;
  const char* class_name_;
  /// Lock-class id, resolved lazily on the first checked acquisition
  /// (0 = not yet registered) so construction costs nothing while the
  /// checker is off.
  std::atomic<std::uint32_t> class_id_{0};
};

/// std::lock_guard over ninf::Mutex.
class NINF_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) NINF_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~LockGuard() NINF_RELEASE() { m_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

/// std::unique_lock over ninf::Mutex: relockable, condvar-compatible.
class NINF_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) NINF_ACQUIRE(m) : m_(&m) {
    lockdep::noteAcquire(m);
    lk_ = std::unique_lock<std::mutex>(m.m_);
  }

  UniqueLock(Mutex& m, std::defer_lock_t) NINF_EXCLUDES(m)
      : m_(&m), lk_(m.m_, std::defer_lock) {}

  ~UniqueLock() NINF_RELEASE() {
    if (lk_.owns_lock()) {
      lk_.unlock();
      lockdep::noteRelease(*m_);
    }
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() NINF_ACQUIRE() {
    lockdep::noteAcquire(*m_);
    lk_.lock();
  }

  void unlock() NINF_RELEASE() {
    lk_.unlock();
    lockdep::noteRelease(*m_);
  }

  bool owns_lock() const noexcept { return lk_.owns_lock(); }
  Mutex* mutex() const noexcept { return m_; }

 private:
  friend class CondVar;
  Mutex* m_;
  std::unique_lock<std::mutex> lk_;
};

/// std::condition_variable over ninf::UniqueLock.  Waits inform the
/// order checker that the mutex is released for the park and re-acquired
/// on wake (the re-acquisition re-checks ordering against every lock the
/// thread still holds).
class CondVar {
 public:
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(UniqueLock& lk) NINF_BLOCKING {
    lockdep::noteCondVarRelease(*lk.m_);
    cv_.wait(lk.lk_);
    lockdep::noteCondVarReacquire(*lk.m_);
  }

  template <typename Pred>
  void wait(UniqueLock& lk, Pred pred) {
    while (!pred()) wait(lk);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      UniqueLock& lk, const std::chrono::time_point<Clock, Duration>& tp) {
    lockdep::noteCondVarRelease(*lk.m_);
    const std::cv_status status = cv_.wait_until(lk.lk_, tp);
    lockdep::noteCondVarReacquire(*lk.m_);
    return status;
  }

  template <typename Clock, typename Duration, typename Pred>
  bool wait_until(UniqueLock& lk,
                  const std::chrono::time_point<Clock, Duration>& tp,
                  Pred pred) {
    while (!pred()) {
      if (wait_until(lk, tp) == std::cv_status::timeout) return pred();
    }
    return true;
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(UniqueLock& lk,
                          const std::chrono::duration<Rep, Period>& d) {
    return wait_until(lk, std::chrono::steady_clock::now() + d);
  }

  template <typename Rep, typename Period, typename Pred>
  bool wait_for(UniqueLock& lk, const std::chrono::duration<Rep, Period>& d,
                Pred pred) {
    return wait_until(lk, std::chrono::steady_clock::now() + d,
                      std::move(pred));
  }

 private:
  std::condition_variable cv_;
};

}  // namespace ninf
