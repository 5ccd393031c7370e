// Primary/backup log-shipping replication for a metaserver shard.
//
// The primary assigns every registry op a sequence number and ships the
// op stream to its backup over an ordinary Ninf connection (ReplAppend
// frames), interleaved with ReplHeartbeat frames carrying the soft
// liveness digest so a promoted backup starts scheduling from the
// primary's last view.  Shipping is asynchronous: registrations ack to
// the client as soon as the op is applied locally and queued — the log
// preserves order, the backup replays it verbatim, and idempotent ops
// (directory.h) make duplicate delivery after a reconnect harmless.
// Every ack, to an append or a heartbeat, reports the highest op seq the
// backup has applied, so the metaserver.replication.lag gauge (ops
// appended here minus that) counts ops still queued or in flight.
//
// Fencing: every frame carries the primary's shard epoch.  A backup that
// promoted itself (missed heartbeats) bumped its epoch, so the deposed
// primary's next append or heartbeat draws a StaleEpoch ack — the link
// fences itself, the on_fenced callback flips the node read-only, and
// every later append throws FencedError.  A fenced primary can therefore
// never accept a registration that the rest of the cluster won't see.
//
// setPaused(true) is the test/chaos hook simulating a partition: queued
// ops accumulate and no heartbeats go out, so the backup's miss budget
// runs down exactly as if the wire were cut.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "client/dispatcher.h"
#include "common/sync.h"
#include "protocol/meta_wire.h"

namespace ninf::metaserver {

class ReplicationLink {
 public:
  using LivenessSource =
      std::function<std::vector<protocol::LivenessRecord>()>;
  /// Invoked (from the shipper thread, once) when the backup answered
  /// with a higher epoch: this primary is deposed.
  using FenceCallback = std::function<void(std::uint64_t observed_epoch)>;

  /// `heartbeat_interval_s` is the heartbeat cadence; the backup's
  /// promotion budget is a multiple of it
  /// (NodeOptions::heartbeat_miss_budget).
  ReplicationLink(client::ConnectionFactory backup_factory,
                  double heartbeat_interval_s);
  ~ReplicationLink();

  ReplicationLink(const ReplicationLink&) = delete;
  ReplicationLink& operator=(const ReplicationLink&) = delete;

  /// Start the shipper thread.  `liveness` feeds heartbeat payloads
  /// (may be null for none); `on_fenced` may be null.
  void start(std::uint64_t shard_epoch, LivenessSource liveness,
             FenceCallback on_fenced);
  void stop();

  /// Assign the next sequence number to `op`, queue it for shipping,
  /// and return the seq.  Throws FencedError once the link is fenced.
  std::uint64_t append(protocol::RegistryOp op);

  /// Test/chaos hook: a paused link ships nothing (ops queue up, no
  /// heartbeats), simulating a partition between primary and backup.
  void setPaused(bool paused);

 private:
  void shipperLoop();
  /// Returns false when the link just fenced (shipping must cease).
  bool handleAck(const protocol::ReplAckMsg& ack);

  client::ConnectionFactory factory_;
  double heartbeat_interval_s_;

  mutable Mutex mutex_{"repl.link"};
  CondVar cv_;
  std::deque<protocol::RegistryOp> queue_ NINF_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ NINF_GUARDED_BY(mutex_) = 0;
  /// Highest seq the backup reported applied (every ReplAck carries it).
  std::uint64_t last_acked_ NINF_GUARDED_BY(mutex_) = 0;
  bool paused_ NINF_GUARDED_BY(mutex_) = false;
  bool fenced_ NINF_GUARDED_BY(mutex_) = false;
  bool stop_ NINF_GUARDED_BY(mutex_) = false;
  bool running_ NINF_GUARDED_BY(mutex_) = false;

  std::uint64_t shard_epoch_ = 0;  // immutable between start/stop
  LivenessSource liveness_;
  FenceCallback on_fenced_;
  std::thread shipper_;
};

}  // namespace ninf::metaserver
