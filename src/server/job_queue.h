// Job queue of a Ninf computational server.
//
// The paper's server "merely fork & execs a Ninf executable in a
// First-Come-First-Served (FCFS) manner" (section 5.2) and proposes
// Shortest-Job-First using the IDL CalcOrder complexity hint; both
// policies are implemented here and compared in the ablation bench.
// The policy orders compute jobs only: a prologue job (argument decode
// of a large request, see server.h) runs ahead of every compute job, so
// a call's CalcOrder hint is known before it competes for a worker.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "common/sync.h"

namespace ninf::obs {
class Gauge;
}

namespace ninf::server {

enum class QueuePolicy { Fcfs, Sjf };

const char* queuePolicyName(QueuePolicy p);

/// One queued call awaiting a worker.
struct Job {
  std::uint64_t id = 0;
  std::function<void()> run;      // executes the call and publishes results
  double estimated_flops = 0.0;   // CalcOrder hint; 0 when absent
  double enqueue_time = 0.0;      // server-clock seconds
  /// Decodes a request and enqueues its compute job; dispatched ahead of
  /// every compute job, FCFS among prologues, under either policy.
  bool prologue = false;
};

/// Thread-safe job queue with pluggable dispatch order.
///
/// Each queue publishes its depth under its own gauge,
/// `server.queue.depth.<name>` — a process-global gauge would be stomped
/// by concurrent servers in one process (the inproc test topology and
/// any multi-server simulation).  When `name` is empty a unique "qN"
/// label is generated.
class JobQueue {
 public:
  explicit JobQueue(QueuePolicy policy = QueuePolicy::Fcfs,
                    std::string name = {});

  QueuePolicy policy() const { return policy_; }
  /// Label of this queue's depth gauge (after "server.queue.depth.").
  const std::string& name() const { return name_; }

  /// Enqueue; wakes one waiting worker.  Throws after close().
  void push(Job job);

  /// push() for a producer that may race close(): a prologue job still
  /// draining at shutdown enqueues its compute job this way.  Returns
  /// false, dropping `job`, once the queue is closed.
  bool tryPush(Job job);

  /// Block until a job is available or the queue is closed.
  /// Returns nullopt when closed and drained.
  std::optional<Job> pop();

  /// Jobs currently waiting, prologues included.
  std::size_t depth() const;

  /// Close: pending pops drain remaining jobs, then return nullopt.
  void close();

 private:
  /// Index in jobs_ of the next compute job; jobs_ must be non-empty.
  std::size_t pickIndex() const NINF_REQUIRES(mutex_);

  QueuePolicy policy_;
  std::string name_;
  obs::Gauge& depth_gauge_;  // resolved once in the ctor; set() is atomic
  mutable Mutex mutex_{"jobqueue"};
  CondVar cv_;
  std::deque<Job> prologues_ NINF_GUARDED_BY(mutex_);
  std::deque<Job> jobs_ NINF_GUARDED_BY(mutex_);  // compute jobs
  bool closed_ NINF_GUARDED_BY(mutex_) = false;
};

}  // namespace ninf::server
