// Tests for the annotated sync layer (common/sync.h): primitive
// semantics, and the runtime lock-order checker (lockdep) — seeded
// inversions must be reported with both acquisition sites even when no
// schedule actually deadlocks.
#include "common/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace {

using ninf::CondVar;
using ninf::LockGuard;
using ninf::Mutex;
using ninf::UniqueLock;

/// Every test runs with the checker on, a capturing handler installed
/// (so violations fail the test instead of aborting the process), and a
/// clean order graph.
class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = ninf::lockdep::enabled();
    ninf::lockdep::setEnabled(true);
    ninf::lockdep::resetGraphForTesting();
    ninf::lockdep::setViolationHandler(
        [this](const ninf::lockdep::Violation& v) {
          violations_.push_back(v);
        });
  }

  void TearDown() override {
    ninf::lockdep::setViolationHandler(nullptr);
    ninf::lockdep::resetGraphForTesting();
    ninf::lockdep::setEnabled(was_enabled_);
  }

  std::vector<ninf::lockdep::Violation> violations_;
  bool was_enabled_ = false;
};

TEST_F(LockdepTest, MutexRoundTrip) {
  Mutex m{"test.roundtrip"};
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        LockGuard lock(m);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 4000);
  EXPECT_TRUE(violations_.empty());
  EXPECT_STREQ(m.lockClassName(), "test.roundtrip");
}

TEST_F(LockdepTest, TryLockReportsOwnership) {
  Mutex m{"test.trylock"};
  ASSERT_TRUE(m.try_lock());
  const auto held = ninf::lockdep::heldLockNames();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0], "test.trylock");
  // Contended try_lock from another thread fails without any bookkeeping.
  std::thread other([&] {
    EXPECT_FALSE(m.try_lock());
    EXPECT_TRUE(ninf::lockdep::heldLockNames().empty());
  });
  other.join();
  m.unlock();
  EXPECT_TRUE(ninf::lockdep::heldLockNames().empty());
  EXPECT_TRUE(violations_.empty());
}

TEST_F(LockdepTest, CondVarWaitWakesOnNotify) {
  Mutex m{"test.cv"};
  CondVar cv;
  bool flag = false;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    {
      LockGuard lock(m);
      flag = true;
    }
    cv.notify_one();
  });
  {
    UniqueLock lock(m);
    cv.wait(lock, [&] { return flag; });
    EXPECT_TRUE(flag);
  }
  producer.join();
  EXPECT_TRUE(violations_.empty());
}

TEST_F(LockdepTest, CondVarWaitForTimesOut) {
  Mutex m{"test.cv.timeout"};
  CondVar cv;
  UniqueLock lock(m);
  const bool ready = cv.wait_for(lock, std::chrono::milliseconds(5),
                                 [] { return false; });
  EXPECT_FALSE(ready);
  EXPECT_TRUE(lock.owns_lock());
  EXPECT_TRUE(violations_.empty());
}

// The core lockdep promise: an A->B / B->A inversion is reported from
// the order graph alone — single-threaded, with no deadlock schedule
// ever occurring — and the report names both acquisition sites.
TEST_F(LockdepTest, DetectsSeededInversionWithoutDeadlockSchedule) {
  Mutex a{"test.A"};
  Mutex b{"test.B"};
  {
    LockGuard la(a);
    LockGuard lb(b);  // establishes A -> B
  }
  ASSERT_TRUE(ninf::lockdep::hasEdge("test.A", "test.B"));
  ASSERT_TRUE(violations_.empty());
  {
    LockGuard lb(b);
    LockGuard la(a);  // closes the cycle: B -> A
  }
  ASSERT_EQ(violations_.size(), 1u);
  const auto& v = violations_[0];
  // The cycle names both classes...
  EXPECT_NE(v.cycle.find("test.A"), std::string::npos);
  EXPECT_NE(v.cycle.find("test.B"), std::string::npos);
  // ...the attempted site shows what this thread held at the bad acquire...
  EXPECT_NE(v.attempted.find("holding [test.B]"), std::string::npos);
  EXPECT_NE(v.attempted.find("acquired 'test.A'"), std::string::npos);
  // ...and the established side records where A -> B was first observed.
  EXPECT_NE(v.established.find("holding [test.A]"), std::string::npos);
  EXPECT_NE(v.established.find("acquired 'test.B'"), std::string::npos);
}

// Ordering is a property of lock *classes*, so the inversion is caught
// even when the two halves run on different threads at different times.
TEST_F(LockdepTest, DetectsCrossThreadInversion) {
  Mutex a{"test.xthread.A"};
  Mutex b{"test.xthread.B"};
  std::thread forward([&] {
    LockGuard la(a);
    LockGuard lb(b);
  });
  forward.join();
  std::thread reverse([&] {
    LockGuard lb(b);
    LockGuard la(a);
  });
  reverse.join();
  EXPECT_EQ(violations_.size(), 1u);
}

// A declared (documented) hierarchy is pre-seeded: violating it fails
// deterministically even though the forward order never ran.
TEST_F(LockdepTest, DeclaredHierarchyViolatesWithoutForwardObservation) {
  ninf::lockdep::declareOrder({"test.outer", "test.inner"});
  ASSERT_TRUE(ninf::lockdep::hasEdge("test.outer", "test.inner"));
  Mutex outer{"test.outer"};
  Mutex inner{"test.inner"};
  {
    LockGuard li(inner);
    LockGuard lo(outer);  // inner-before-outer: reverses the declaration
  }
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_NE(violations_[0].established.find("declared lock hierarchy"),
            std::string::npos);
}

// Transitive cycles: A->B and B->C recorded, then C->A closes the loop.
TEST_F(LockdepTest, DetectsTransitiveCycle) {
  Mutex a{"test.t.A"};
  Mutex b{"test.t.B"};
  Mutex c{"test.t.C"};
  {
    LockGuard la(a);
    LockGuard lb(b);
  }
  {
    LockGuard lb(b);
    LockGuard lc(c);
  }
  ASSERT_TRUE(violations_.empty());
  {
    LockGuard lc(c);
    LockGuard la(a);
  }
  ASSERT_EQ(violations_.size(), 1u);
  // The report walks the whole A -> B -> C chain that conflicts.
  EXPECT_NE(violations_[0].cycle.find("test.t.B"), std::string::npos);
}

// Nesting two locks of one class has no defined inter-instance order: a
// parallel thread nesting them the other way would deadlock.
TEST_F(LockdepTest, SameClassNestingIsAViolation) {
  Mutex first{"test.selfclass"};
  Mutex second{"test.selfclass"};
  {
    LockGuard l1(first);
    LockGuard l2(second);
  }
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_NE(violations_[0].established.find("self-edge"), std::string::npos);
}

// Each violation is reported once (the recorded edge short-circuits the
// repeat), so a hot path cannot flood the handler.
TEST_F(LockdepTest, ViolationReportedOnce) {
  Mutex a{"test.once.A"};
  Mutex b{"test.once.B"};
  for (int i = 0; i < 3; ++i) {
    LockGuard la(a);
    LockGuard lb(b);
  }
  for (int i = 0; i < 3; ++i) {
    LockGuard lb(b);
    LockGuard la(a);
  }
  EXPECT_EQ(violations_.size(), 1u);
  EXPECT_EQ(ninf::lockdep::violationCount(), 1u);
}

// A condvar wait genuinely releases the mutex and re-acquires on wake:
// the held stack drops the lock for the park, and the re-acquisition is
// re-checked (and re-recorded) against everything still held.
TEST_F(LockdepTest, CondVarWaitTracksReleaseAndReacquire) {
  Mutex outer{"test.cvorder.outer"};
  Mutex inner{"test.cvorder.inner"};
  CondVar cv;
  bool flag = false;

  LockGuard hold_outer(outer);
  UniqueLock lock(inner);
  ASSERT_EQ(ninf::lockdep::heldLockNames().size(), 2u);

  // Drop the recorded outer->inner edge so the wake-up re-acquisition
  // is what re-records it (resetGraphForTesting keeps class names but
  // clears edges; this thread's held stack is preserved by re-pushing).
  ninf::lockdep::resetGraphForTesting();
  ASSERT_TRUE(ninf::lockdep::heldLockNames().empty());

  std::thread producer([&] {
    // The helper can take `inner` only because the waiter released it —
    // proof the park really dropped the mutex.
    LockGuard g(inner);
    flag = true;
    cv.notify_one();
  });
  cv.wait(lock, [&] { return flag; });
  producer.join();

  // The wait pushed `inner` back... (outer was wiped from the stack by
  // the reset, so only the re-acquired mutex is tracked afterwards).
  const auto held = ninf::lockdep::heldLockNames();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0], "test.cvorder.inner");
  EXPECT_TRUE(violations_.empty());
}

// Disabled checker: no edges recorded, no held-stack bookkeeping — the
// per-acquisition cost is a single relaxed atomic load.
TEST_F(LockdepTest, DisabledCheckerRecordsNothing) {
  ninf::lockdep::setEnabled(false);
  Mutex a{"test.off.A"};
  Mutex b{"test.off.B"};
  {
    LockGuard la(a);
    LockGuard lb(b);
    EXPECT_TRUE(ninf::lockdep::heldLockNames().empty());
  }
  {
    LockGuard lb(b);
    LockGuard la(a);  // an inversion the disabled checker must not see
  }
  EXPECT_EQ(ninf::lockdep::edgeCount(), 0u);
  EXPECT_EQ(ninf::lockdep::violationCount(), 0u);
  EXPECT_TRUE(violations_.empty());
}

// Toggling mid-stream: locks acquired while disabled release cleanly
// after the checker turns on (release of an unregistered class is a
// no-op, not a corruption).
TEST_F(LockdepTest, EnableAfterAcquireIsSafe) {
  ninf::lockdep::setEnabled(false);
  Mutex m{"test.toggle"};
  m.lock();
  ninf::lockdep::setEnabled(true);
  m.unlock();  // class never registered: must not underflow anything
  EXPECT_TRUE(ninf::lockdep::heldLockNames().empty());
  EXPECT_EQ(ninf::lockdep::violationCount(), 0u);
}

// The repo's documented hierarchy (seeded on first checked acquisition)
// is active in this process: reversing a documented edge trips the
// checker even though the forward path never ran in this test binary.
TEST_F(LockdepTest, CanonicalHierarchyIsEnforced) {
  // Force the one-time seeding, then reset and re-declare a known pair
  // to keep this test independent of which edges other tests recorded.
  {
    Mutex warm{"test.warmup"};
    LockGuard g(warm);
  }
  ninf::lockdep::resetGraphForTesting();
  ninf::lockdep::declareOrder(
      {"channel.setup", "channel.send", "channel.pending"});
  Mutex setup{"channel.setup"};
  Mutex pending{"channel.pending"};
  {
    LockGuard lp(pending);
    LockGuard ls(setup);  // pending-before-setup reverses the hierarchy
  }
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_NE(violations_[0].cycle.find("channel.setup"), std::string::npos);
}

// The seeded hierarchy names the directory's real lock classes, so a
// server's cache lock taken before the table lock is reported on its
// first occurrence, with no forward acquisition in this process.
TEST_F(LockdepTest, CanonicalHierarchyNamesTheDirectoryLocks) {
  ninf::lockdep::declareCanonicalHierarchy();
  EXPECT_TRUE(ninf::lockdep::hasEdge("directory.poll", "channel.setup"));
  Mutex global{"directory.global"};
  Mutex server{"directory.server"};
  {
    LockGuard ls(server);
    LockGuard lg(global);  // server-before-global reverses the hierarchy
  }
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_NE(violations_[0].cycle.find("directory.global"), std::string::npos);
  EXPECT_NE(violations_[0].established.find("declared lock hierarchy"),
            std::string::npos);
}

}  // namespace
