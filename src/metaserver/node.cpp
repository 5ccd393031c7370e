#include "metaserver/node.h"

#include <algorithm>
#include <chrono>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "protocol/message.h"
#include "xdr/xdr.h"

namespace ninf::metaserver {

using protocol::MessageType;
using protocol::WireMode;

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A reply body: one wire payload, encoded.
template <typename Payload>
xdr::Encoder encoded(const Payload& payload) {
  xdr::Encoder enc;
  payload.encode(enc);
  return enc;
}

}  // namespace

MetaserverNode::MetaserverNode(NodeOptions opts)
    : opts_(std::move(opts)), dir_(opts_.policy), ownership_(opts_.ring),
      primary_(opts_.primary), epoch_(1) {
  NINF_REQUIRE(opts_.policy != SchedulingPolicy::BandwidthAware,
               "bandwidth-aware scheduling is in-process only");
  NINF_REQUIRE(!ownership_.empty(), "node needs a ring descriptor");
  NINF_REQUIRE(ownership_.shard(opts_.shard_id) != nullptr,
               "node's shard id missing from the ring");
  dir_.setStatusFreshness(opts_.status_freshness);
  if (opts_.resolver) dir_.setResolver(opts_.resolver);
  epoch_.store(ownership_.shard(opts_.shard_id)->epoch,
               std::memory_order_release);
}

MetaserverNode::~MetaserverNode() { stop(); }

void MetaserverNode::serve(std::shared_ptr<transport::Listener> listener) {
  NINF_REQUIRE(listener != nullptr, "null listener");
  NINF_REQUIRE(!listener_, "node already serving");
  listener_ = std::move(listener);

  if (primary_.load(std::memory_order_acquire) && opts_.backup_factory) {
    repl_ = std::make_unique<ReplicationLink>(opts_.backup_factory,
                                              opts_.heartbeat_interval_s);
    repl_->start(
        epoch_.load(std::memory_order_acquire),
        [this] { return dir_.livenessDigest(); },
        [this](std::uint64_t observed) {
          seen_epoch_.store(observed, std::memory_order_release);
          fenced_.store(true, std::memory_order_release);
          NINF_LOG(Warn) << "shard " << opts_.shard_id
                         << " primary fenced at epoch " << observed;
        });
  }
  if (!primary_.load(std::memory_order_acquire)) {
    last_heartbeat_.store(nowSeconds(), std::memory_order_release);
    watchdog_ = std::thread([this] { watchdogLoop(); });
  }
  if (opts_.status_freshness > 0) {
    // Two rounds per freshness window keep every status fresh, so a
    // decision polls only when a round runs late.  A backup skips its
    // rounds and keeps adopting the primary's digest until it promotes.
    dir_.startMonitoring(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(opts_.status_freshness / 2)),
        [this] { return writable(); });
  }

  accept_thread_ = std::thread([this] {
    std::uint64_t next_id = 0;
    while (!stopping_.load()) {
      std::unique_ptr<transport::Stream> stream;
      try {
        stream = listener_->accept();
      } catch (const Error& e) {
        if (!stopping_.load()) {
          NINF_LOG(Warn) << "node accept failed: " << e.what();
        }
        break;
      }
      if (!stream) break;  // listener closed
      auto shared = std::shared_ptr<transport::Stream>(std::move(stream));
      // Join the connections that finished since the last accept, so a
      // node's threads and stacks track its live connections.
      std::vector<std::thread> finished;
      {
        LockGuard lock(conn_mutex_);
        for (const std::uint64_t id : finished_) {
          const auto it = conns_.find(id);
          finished.push_back(std::move(it->second.thread));
          conns_.erase(it);
        }
        finished_.clear();
        // Started under the lock, so the thread's exit cannot report
        // its id before the entry exists.
        const std::uint64_t id = next_id++;
        Conn& conn = conns_[id];
        conn.stream = shared;
        conn.thread = std::thread([this, id, s = std::move(shared)] {
          serveConnection(*s);
          LockGuard done(conn_mutex_);
          finished_.push_back(id);
        });
      }
      for (auto& t : finished) t.join();
    }
  });
}

void MetaserverNode::stop() {
  if (stopping_.exchange(true)) return;
  dir_.stopMonitoring();
  if (listener_) listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (watchdog_.joinable()) watchdog_.join();
  if (repl_) repl_->stop();
  std::map<std::uint64_t, Conn> conns;
  {
    LockGuard lock(conn_mutex_);
    conns.swap(conns_);
  }
  for (auto& [id, conn] : conns) {
    if (auto s = conn.stream.lock()) s->close();
  }
  for (auto& [id, conn] : conns) {
    if (conn.thread.joinable()) conn.thread.join();
  }
}

protocol::RingDescriptor MetaserverNode::ringView() const {
  protocol::RingDescriptor view = opts_.ring;
  for (auto& s : view.shards) {
    if (s.id != opts_.shard_id) continue;
    s.epoch = epoch_.load(std::memory_order_acquire);
    // A promoted backup claims the primary slot; a fenced ex-primary
    // keeps its (stale, lower-epoch) claim, which loses every merge.
    if (primary_.load(std::memory_order_acquire) &&
        !fenced_.load(std::memory_order_acquire) &&
        !opts_.self_endpoint.empty()) {
      s.primary_endpoint = opts_.self_endpoint;
    }
  }
  view.ring_epoch = HashRing::epochOf(view);
  return view;
}

void MetaserverNode::watchdogLoop() {
  const double budget =
      static_cast<double>(opts_.heartbeat_miss_budget) *
      opts_.heartbeat_interval_s;
  const auto tick =
      std::chrono::duration<double>(opts_.heartbeat_interval_s / 4.0);
  while (!stopping_.load()) {
    std::this_thread::sleep_for(tick);
    if (stopping_.load()) return;
    if (primary_.load(std::memory_order_acquire)) return;  // already serving
    const double silence =
        nowSeconds() - last_heartbeat_.load(std::memory_order_acquire);
    if (silence > budget) {
      promote();
      return;
    }
  }
}

void MetaserverNode::promote() {
  const std::uint64_t base =
      std::max(seen_epoch_.load(std::memory_order_acquire),
               epoch_.load(std::memory_order_acquire));
  epoch_.store(base + 1, std::memory_order_release);
  primary_.store(true, std::memory_order_release);
  static obs::Counter& promotions =
      obs::counter("metaserver.replication.promotions");
  promotions.add();
  NINF_LOG(Info) << "shard " << opts_.shard_id
                 << " backup promoted to primary at epoch " << base + 1;
}

MetaserverNode::Reply MetaserverNode::wrongShard(
    const std::string& entry, std::uint32_t owner,
    protocol::RedirectReason reason) const {
  static obs::Counter& redirects = obs::counter("metaserver.shard.redirects");
  redirects.add();
  protocol::RedirectInfo info;
  info.entry = entry;
  info.owner_shard = owner;
  info.ring_epoch = HashRing::epochOf(ringView());
  info.reason = reason;
  return {MessageType::WrongShard, encoded(info)};
}

void MetaserverNode::serveConnection(transport::Stream& stream) {
  try {
    for (;;) {
      const protocol::Message msg = protocol::recvMessage(stream);
      const Reply reply = frameReply(msg.type, msg.payload);
      protocol::sendFrame(stream, WireMode::V1, reply.type, reply.body);
    }
  } catch (const TransportError&) {
    // Normal disconnect path.
  } catch (const std::exception& e) {
    NINF_LOG(Warn) << "node connection from " << stream.peerName()
                   << " aborted: " << e.what();
  }
}

MetaserverNode::Reply MetaserverNode::frameReply(
    MessageType type, std::span<const std::uint8_t> body) {
  xdr::Decoder dec(body);
  switch (type) {
    case MessageType::Hello:
      // Nodes speak v1 lock-step and accept no feature bit: trace
      // context would change the framing this loop expects.
      return {MessageType::HelloAck,
              encoded(protocol::answerHello(protocol::Hello::decode(dec),
                                            protocol::kVersion, 0))};
    case MessageType::Ping: {
      xdr::Encoder echo;
      echo.putRaw(body);
      return {MessageType::Pong, std::move(echo)};
    }
    case MessageType::RingQuery:
      // No body is defined; the cached ring epoch an older client still
      // sends there is ignored.
      return {MessageType::RingInfo, encoded(ringView())};
    case MessageType::ScheduleQuery:
      return scheduleReply(body);
    case MessageType::RegisterServer:
    case MessageType::DeregisterServer:
      return registryReply(body);
    case MessageType::ReplAppend: {
      const protocol::ReplAppendMsg msg = protocol::ReplAppendMsg::decode(dec);
      return replicatedReply(msg.shard_epoch, [&] {
        try {
          dir_.apply(msg.op);
        } catch (const std::exception& e) {
          // Replay divergence (e.g. no resolver): log loudly but keep the
          // stream alive — dropping it would only re-deliver the same op.
          NINF_LOG(Warn) << "replicated op " << msg.op.seq
                         << " failed to apply: " << e.what();
        }
        std::uint64_t seen = applied_seq_.load(std::memory_order_acquire);
        while (msg.op.seq > seen &&
               !applied_seq_.compare_exchange_weak(
                   seen, msg.op.seq, std::memory_order_acq_rel)) {
        }
      });
    }
    case MessageType::ReplHeartbeat: {
      const protocol::ReplHeartbeatMsg msg =
          protocol::ReplHeartbeatMsg::decode(dec);
      return replicatedReply(msg.shard_epoch,
                             [&] { dir_.adoptLiveness(msg.liveness); });
    }
    default:
      throw ProtocolError("metaserver node got message type " +
                          std::to_string(static_cast<std::uint32_t>(type)));
  }
}

MetaserverNode::Reply MetaserverNode::scheduleReply(
    std::span<const std::uint8_t> body) {
  xdr::Decoder dec(body);
  const protocol::ScheduleRequest req = protocol::ScheduleRequest::decode(dec);
  const std::uint32_t owner = ownership_.ownerOf(req.entry);
  if (owner != opts_.shard_id) {
    return wrongShard(req.entry, owner, protocol::RedirectReason::NotOwner);
  }
  if (!writable()) {
    return wrongShard(req.entry, opts_.shard_id,
                      protocol::RedirectReason::NotPrimary);
  }
  static obs::Counter& queries = obs::counter("metaserver.shard.queries");
  queries.add();

  // Failed servers reported by the client start their cooldown here, so
  // the knowledge outlives this one query and shields other clients.
  for (const std::string& name : req.excluded) {
    dir_.noteFailure(name, opts_.cooldown_seconds);
  }

  protocol::ScheduleChoice choice;
  choice.shard_epoch = epoch_.load(std::memory_order_acquire);
  try {
    LocalDirectory::Target target = dir_.decide(req.entry, {}, req.excluded);
    choice.server_name = std::move(target.name);
    choice.endpoint = std::move(target.endpoint);
  } catch (const NotFoundError&) {
    // Empty server_name = "no reachable candidate", an empty registry
    // included: over the wire the two look alike, and the client raises
    // the typed NotFoundError on its side.
  }
  return {MessageType::ScheduleReply, encoded(choice)};
}

MetaserverNode::Reply MetaserverNode::registryReply(
    std::span<const std::uint8_t> body) {
  xdr::Decoder dec(body);
  protocol::RegistryOp op = protocol::RegistryOp::decode(dec);
  // Every entry the server exports must belong to this shard; an empty
  // list (exports everything) is acceptable on any shard.
  for (const auto& entry : op.desc.entries) {
    const std::uint32_t owner = ownership_.ownerOf(entry);
    if (owner != opts_.shard_id) {
      return wrongShard(entry, owner, protocol::RedirectReason::NotOwner);
    }
  }
  bool refused = !writable();
  if (refused && !fenced_.load(std::memory_order_acquire)) {
    // A live backup: the shard is fine, the client just picked the
    // wrong role.
    return wrongShard(
        op.desc.entries.empty() ? op.desc.name : op.desc.entries.front(),
        opts_.shard_id, protocol::RedirectReason::NotPrimary);
  }
  protocol::RegisterResult result;
  result.shard_epoch = epoch_.load(std::memory_order_acquire);
  if (!refused) {
    try {
      op.seq = repl_ ? repl_->append(op)
                     : local_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
      result.status = dir_.apply(op);
      result.seq = op.seq;
    } catch (const FencedError&) {
      refused = true;  // the link fenced since writable() was read
    }
  }
  if (refused) {
    static obs::Counter& fenced_writes =
        obs::counter("metaserver.replication.fenced_writes");
    fenced_writes.add();
    result.status = protocol::RegisterResult::Status::Fenced;
  }
  return {MessageType::RegisterAck, encoded(result)};
}

MetaserverNode::Reply MetaserverNode::replicatedReply(
    std::uint64_t sender_epoch, const std::function<void()>& apply) {
  protocol::ReplAckMsg ack;
  const std::uint64_t mine = epoch_.load(std::memory_order_acquire);
  const bool primary = primary_.load(std::memory_order_acquire);
  if (sender_epoch < mine || (primary && sender_epoch <= mine)) {
    // The sender is a deposed primary: refuse, and tell it our epoch so
    // it fences itself.
    ack.status = protocol::ReplAckMsg::Status::StaleEpoch;
    ack.shard_epoch = mine;
  } else {
    epoch_.store(sender_epoch, std::memory_order_release);
    seen_epoch_.store(sender_epoch, std::memory_order_release);
    last_heartbeat_.store(nowSeconds(), std::memory_order_release);
    apply();
    ack.status = protocol::ReplAckMsg::Status::Ok;
    ack.seq = applied_seq_.load(std::memory_order_acquire);
    ack.shard_epoch = sender_epoch;
  }
  return {MessageType::ReplAck, encoded(ack)};
}

}  // namespace ninf::metaserver
