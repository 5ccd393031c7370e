#include "server/job_queue.h"

#include <atomic>
#include <limits>

#include "common/error.h"
#include "obs/metrics.h"

namespace ninf::server {

namespace {
std::string queueName(std::string name) {
  if (!name.empty()) return name;
  static std::atomic<std::uint64_t> next{0};
  return "q" + std::to_string(next.fetch_add(1));
}
}  // namespace

JobQueue::JobQueue(QueuePolicy policy, std::string name)
    : policy_(policy),
      name_(queueName(std::move(name))),
      depth_gauge_(obs::gauge("server.queue.depth." + name_)) {}

const char* queuePolicyName(QueuePolicy p) {
  switch (p) {
    case QueuePolicy::Fcfs: return "FCFS";
    case QueuePolicy::Sjf: return "SJF";
  }
  return "?";
}

void JobQueue::push(Job job) {
  const bool open = tryPush(std::move(job));
  NINF_REQUIRE(open, "push to closed job queue");
}

bool JobQueue::tryPush(Job job) {
  std::size_t depth = 0;
  {
    LockGuard lock(mutex_);
    if (closed_) return false;
    (job.prologue ? prologues_ : jobs_).push_back(std::move(job));
    depth = prologues_.size() + jobs_.size();
  }
  depth_gauge_.set(static_cast<double>(depth));
  cv_.notify_one();
  return true;
}

std::size_t JobQueue::pickIndex() const {
  if (policy_ == QueuePolicy::Fcfs) return 0;
  // SJF: smallest CalcOrder estimate first; unknown (0) estimates are
  // treated as longest so hinted short jobs overtake them, with FCFS
  // order as the tie-break (stable because we scan front to back).
  std::size_t best = 0;
  auto keyOf = [](const Job& j) {
    return j.estimated_flops > 0 ? j.estimated_flops
                                 : std::numeric_limits<double>::infinity();
  };
  double best_key = keyOf(jobs_[0]);
  for (std::size_t i = 1; i < jobs_.size(); ++i) {
    const double key = keyOf(jobs_[i]);
    if (key < best_key) {
      best_key = key;
      best = i;
    }
  }
  return best;
}

std::optional<Job> JobQueue::pop() {
  UniqueLock lock(mutex_);
  cv_.wait(lock, [this] {
    return closed_ || !prologues_.empty() || !jobs_.empty();
  });
  Job job;
  if (!prologues_.empty()) {
    job = std::move(prologues_.front());
    prologues_.pop_front();
  } else if (!jobs_.empty()) {
    const std::size_t idx = pickIndex();
    job = std::move(jobs_[idx]);
    jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(idx));
  } else {
    return std::nullopt;
  }
  const std::size_t depth = prologues_.size() + jobs_.size();
  lock.unlock();
  depth_gauge_.set(static_cast<double>(depth));
  return job;
}

std::size_t JobQueue::depth() const {
  LockGuard lock(mutex_);
  return prologues_.size() + jobs_.size();
}

void JobQueue::close() {
  {
    LockGuard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

}  // namespace ninf::server
