// Job queue policies: FCFS (the paper's server) and SJF (its proposed
// improvement, section 5.2).
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "obs/metrics.h"
#include "server/job_queue.h"

namespace ninf::server {
namespace {

Job makeJob(std::uint64_t id, double flops) {
  Job j;
  j.id = id;
  j.estimated_flops = flops;
  j.run = [] {};
  return j;
}

TEST(JobQueue, FcfsPreservesArrivalOrder) {
  JobQueue q(QueuePolicy::Fcfs);
  q.push(makeJob(1, 100));
  q.push(makeJob(2, 1));
  q.push(makeJob(3, 50));
  EXPECT_EQ(q.pop()->id, 1u);
  EXPECT_EQ(q.pop()->id, 2u);
  EXPECT_EQ(q.pop()->id, 3u);
}

TEST(JobQueue, DepthGaugesArePerQueue) {
  // Two live queues in one process (the inproc test topology, or any
  // multi-server simulation) must not stomp each other's depth gauge.
  JobQueue first(QueuePolicy::Fcfs, "gauge-a");
  JobQueue second(QueuePolicy::Fcfs, "gauge-b");
  first.push(makeJob(1, 0));
  first.push(makeJob(2, 0));
  second.push(makeJob(3, 0));
  EXPECT_EQ(obs::gauge("server.queue.depth.gauge-a").value(), 2.0);
  EXPECT_EQ(obs::gauge("server.queue.depth.gauge-b").value(), 1.0);
  first.pop();
  EXPECT_EQ(obs::gauge("server.queue.depth.gauge-a").value(), 1.0);
  EXPECT_EQ(obs::gauge("server.queue.depth.gauge-b").value(), 1.0);
}

TEST(JobQueue, UnnamedQueuesGetDistinctLabels) {
  JobQueue a;
  JobQueue b;
  EXPECT_FALSE(a.name().empty());
  EXPECT_NE(a.name(), b.name());
}

TEST(JobQueue, SjfPicksShortestEstimate) {
  JobQueue q(QueuePolicy::Sjf);
  q.push(makeJob(1, 100));
  q.push(makeJob(2, 1));
  q.push(makeJob(3, 50));
  EXPECT_EQ(q.pop()->id, 2u);
  EXPECT_EQ(q.pop()->id, 3u);
  EXPECT_EQ(q.pop()->id, 1u);
}

TEST(JobQueue, SjfTreatsUnknownAsLongest) {
  JobQueue q(QueuePolicy::Sjf);
  q.push(makeJob(1, 0));  // no CalcOrder hint
  q.push(makeJob(2, 1e12));
  q.push(makeJob(3, 0));
  EXPECT_EQ(q.pop()->id, 2u);
  // Among unknowns, FCFS order.
  EXPECT_EQ(q.pop()->id, 1u);
  EXPECT_EQ(q.pop()->id, 3u);
}

Job makePrologue(std::uint64_t id) {
  Job j = makeJob(id, 0);
  j.prologue = true;
  return j;
}

TEST(JobQueue, ProloguesRunAheadOfComputeUnderBothPolicies) {
  // A prologue decodes a request whose estimate is not known yet; it
  // must not rank as "unknown, longest" behind hinted compute jobs.
  for (const QueuePolicy policy : {QueuePolicy::Fcfs, QueuePolicy::Sjf}) {
    JobQueue q(policy);
    q.push(makeJob(1, 10));
    q.push(makeJob(2, 5));
    q.push(makePrologue(3));
    q.push(makePrologue(4));
    EXPECT_EQ(q.depth(), 4u);
    EXPECT_EQ(q.pop()->id, 3u) << queuePolicyName(policy);
    EXPECT_EQ(q.pop()->id, 4u) << queuePolicyName(policy);
    // Compute jobs keep their policy order.
    EXPECT_EQ(q.pop()->id, policy == QueuePolicy::Fcfs ? 1u : 2u);
    EXPECT_EQ(q.pop()->id, policy == QueuePolicy::Fcfs ? 2u : 1u);
  }
}

TEST(JobQueue, DepthTracksContents) {
  JobQueue q;
  EXPECT_EQ(q.depth(), 0u);
  q.push(makeJob(1, 0));
  q.push(makeJob(2, 0));
  EXPECT_EQ(q.depth(), 2u);
  q.pop();
  EXPECT_EQ(q.depth(), 1u);
}

TEST(JobQueue, PopBlocksUntilPush) {
  JobQueue q;
  auto fut = std::async(std::launch::async, [&] { return q.pop(); });
  EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(30)),
            std::future_status::timeout);
  q.push(makeJob(42, 0));
  EXPECT_EQ(fut.get()->id, 42u);
}

TEST(JobQueue, CloseDrainsThenReturnsNullopt) {
  JobQueue q;
  q.push(makeJob(1, 0));
  q.close();
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());
}

TEST(JobQueue, CloseWakesBlockedPop) {
  JobQueue q;
  auto fut = std::async(std::launch::async, [&] { return q.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  EXPECT_FALSE(fut.get().has_value());
}

TEST(JobQueue, PushAfterCloseThrows) {
  JobQueue q;
  q.close();
  EXPECT_THROW(q.push(makeJob(1, 0)), std::logic_error);
}

TEST(JobQueue, TryPushAfterCloseDropsTheJob) {
  JobQueue q;
  EXPECT_TRUE(q.tryPush(makeJob(1, 0)));
  q.close();
  EXPECT_FALSE(q.tryPush(makePrologue(2)));
  EXPECT_EQ(q.pop()->id, 1u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(JobQueue, PolicyNames) {
  EXPECT_STREQ(queuePolicyName(QueuePolicy::Fcfs), "FCFS");
  EXPECT_STREQ(queuePolicyName(QueuePolicy::Sjf), "SJF");
}

}  // namespace
}  // namespace ninf::server
