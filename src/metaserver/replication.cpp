#include "metaserver/replication.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"

namespace ninf::metaserver {

namespace {

/// Bound on each append/heartbeat round-trip.
constexpr double kIoTimeoutSeconds = 0.5;

obs::Gauge& lagGauge() {
  static obs::Gauge& g = obs::gauge("metaserver.replication.lag");
  return g;
}

}  // namespace

ReplicationLink::ReplicationLink(client::ConnectionFactory backup_factory,
                                 double heartbeat_interval_s)
    : factory_(std::move(backup_factory)),
      heartbeat_interval_s_(heartbeat_interval_s) {
  NINF_REQUIRE(factory_ != nullptr, "replication link needs a backup factory");
  NINF_REQUIRE(heartbeat_interval_s_ > 0, "heartbeat interval");
}

ReplicationLink::~ReplicationLink() { stop(); }

void ReplicationLink::start(std::uint64_t shard_epoch, LivenessSource liveness,
                            FenceCallback on_fenced) {
  {
    LockGuard lock(mutex_);
    NINF_REQUIRE(!running_, "replication link already started");
    running_ = true;
    stop_ = false;
  }
  shard_epoch_ = shard_epoch;
  liveness_ = std::move(liveness);
  on_fenced_ = std::move(on_fenced);
  shipper_ = std::thread([this] { shipperLoop(); });
}

void ReplicationLink::stop() {
  {
    LockGuard lock(mutex_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (shipper_.joinable()) shipper_.join();
  LockGuard lock(mutex_);
  running_ = false;
}

std::uint64_t ReplicationLink::append(protocol::RegistryOp op) {
  std::uint64_t seq;
  std::uint64_t lag;
  {
    LockGuard lock(mutex_);
    if (fenced_) {
      throw FencedError("shard log is fenced; registration refused");
    }
    seq = ++next_seq_;
    op.seq = seq;
    queue_.push_back(std::move(op));
    lag = next_seq_ - last_acked_;
  }
  lagGauge().set(static_cast<double>(lag));
  cv_.notify_all();
  return seq;
}

void ReplicationLink::setPaused(bool paused) {
  {
    LockGuard lock(mutex_);
    paused_ = paused;
  }
  cv_.notify_all();
}

bool ReplicationLink::handleAck(const protocol::ReplAckMsg& ack) {
  if (ack.status == protocol::ReplAckMsg::Status::StaleEpoch) {
    FenceCallback notify;
    {
      LockGuard lock(mutex_);
      if (!fenced_) {
        fenced_ = true;
        notify = on_fenced_;
      }
    }
    NINF_LOG(Warn) << "replication fenced: backup is at epoch "
                   << ack.shard_epoch << ", ours " << shard_epoch_;
    if (notify) notify(ack.shard_epoch);
    return false;
  }
  std::uint64_t lag;
  {
    LockGuard lock(mutex_);
    // A backup still holding a longer log from an earlier primary acks
    // past this log's head; only this log's ops count.
    last_acked_ = std::max(last_acked_, std::min(ack.seq, next_seq_));
    lag = next_seq_ - last_acked_;
  }
  lagGauge().set(static_cast<double>(lag));
  return true;
}

void ReplicationLink::shipperLoop() {
  std::unique_ptr<client::NinfClient> backup;
  const auto interval =
      std::chrono::duration<double>(heartbeat_interval_s_);
  auto next_heartbeat = std::chrono::steady_clock::now();
  for (;;) {
    protocol::RegistryOp op;
    bool have_op = false;
    bool do_heartbeat = false;
    {
      UniqueLock lock(mutex_);
      cv_.wait_until(lock, next_heartbeat, [this] {
        return stop_ || (!paused_ && !fenced_ && !queue_.empty());
      });
      if (stop_) return;
      if (paused_ || fenced_) {
        // Partitioned (or deposed): ship nothing, let heartbeats lapse.
        next_heartbeat = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(interval);
        continue;
      }
      if (!queue_.empty()) {
        op = queue_.front();  // popped only after the backup acks
        have_op = true;
      } else if (std::chrono::steady_clock::now() >= next_heartbeat) {
        do_heartbeat = true;
      }
    }

    try {
      if (!backup) backup = factory_();
      if (have_op) {
        protocol::ReplAppendMsg msg;
        msg.shard_epoch = shard_epoch_;
        msg.op = op;
        const auto ack = backup->replAppend(msg, kIoTimeoutSeconds);
        if (!handleAck(ack)) continue;
        LockGuard lock(mutex_);
        if (!queue_.empty() && queue_.front().seq == op.seq) {
          queue_.pop_front();
        }
      } else if (do_heartbeat) {
        protocol::ReplHeartbeatMsg hb;
        hb.shard_epoch = shard_epoch_;
        if (liveness_) hb.liveness = liveness_();
        const auto ack = backup->replHeartbeat(hb, kIoTimeoutSeconds);
        if (!handleAck(ack)) continue;
        next_heartbeat = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(interval);
      }
    } catch (const Error& e) {
      // Backup unreachable: drop the connection and retry next round.
      // Ops stay queued (the lag gauge shows the backlog); a reconnect
      // re-ships from the unacked front, and the backup's idempotent
      // apply shrugs off any duplicates.
      NINF_LOG(Debug) << "replication ship failed: " << e.what();
      backup.reset();
      next_heartbeat = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(interval);
    }
  }
}

}  // namespace ninf::metaserver
