#include "protocol/meta_wire.h"

#include "common/error.h"

namespace ninf::protocol {

namespace {

/// Bound on every repeated group in a control payload.  Control messages
/// are small by design; a hostile count must not drive a giant reserve.
constexpr std::uint32_t kMaxListEntries = 1u << 16;

std::uint32_t checkedCount(xdr::Source& src, const char* what) {
  const std::uint32_t n = src.getU32();
  if (n > kMaxListEntries) {
    throw ProtocolError(std::string(what) + " count " + std::to_string(n) +
                        " exceeds limit");
  }
  return n;
}

void putStrings(xdr::Encoder& enc, const std::vector<std::string>& v) {
  enc.putU32(static_cast<std::uint32_t>(v.size()));
  for (const auto& s : v) enc.putString(s);
}

std::vector<std::string> getStrings(xdr::Source& src, const char* what) {
  const std::uint32_t n = checkedCount(src, what);
  std::vector<std::string> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(src.getString());
  return out;
}

}  // namespace

void ShardInfo::encode(xdr::Encoder& enc) const {
  enc.putU32(id);
  enc.putU64(epoch);
  enc.putString(primary_endpoint);
  enc.putString(backup_endpoint);
}

ShardInfo ShardInfo::decode(xdr::Source& src) {
  ShardInfo info;
  info.id = src.getU32();
  info.epoch = src.getU64();
  info.primary_endpoint = src.getString();
  info.backup_endpoint = src.getString();
  return info;
}

void RingDescriptor::encode(xdr::Encoder& enc) const {
  enc.putU64(ring_epoch);
  enc.putU32(static_cast<std::uint32_t>(shards.size()));
  for (const auto& s : shards) s.encode(enc);
}

RingDescriptor RingDescriptor::decode(xdr::Source& src) {
  RingDescriptor ring;
  ring.ring_epoch = src.getU64();
  const std::uint32_t n = checkedCount(src, "ring shard");
  ring.shards.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ring.shards.push_back(ShardInfo::decode(src));
  }
  return ring;
}

void RedirectInfo::encode(xdr::Encoder& enc) const {
  enc.putString(entry);
  enc.putU32(owner_shard);
  enc.putU64(ring_epoch);
  enc.putU32(static_cast<std::uint32_t>(reason));
}

RedirectInfo RedirectInfo::decode(xdr::Source& src) {
  RedirectInfo info;
  info.entry = src.getString();
  info.owner_shard = src.getU32();
  info.ring_epoch = src.getU64();
  const std::uint32_t reason = src.getU32();
  if (reason > static_cast<std::uint32_t>(RedirectReason::NotPrimary)) {
    throw ProtocolError("unknown redirect reason " + std::to_string(reason));
  }
  info.reason = static_cast<RedirectReason>(reason);
  return info;
}

void ScheduleRequest::encode(xdr::Encoder& enc) const {
  enc.putString(entry);
  putStrings(enc, excluded);
}

ScheduleRequest ScheduleRequest::decode(xdr::Source& src) {
  ScheduleRequest req;
  req.entry = src.getString();
  req.excluded = getStrings(src, "excluded server");
  return req;
}

void ScheduleChoice::encode(xdr::Encoder& enc) const {
  enc.putString(server_name);
  enc.putString(endpoint);
  enc.putU64(shard_epoch);
}

ScheduleChoice ScheduleChoice::decode(xdr::Source& src) {
  ScheduleChoice choice;
  choice.server_name = src.getString();
  choice.endpoint = src.getString();
  choice.shard_epoch = src.getU64();
  return choice;
}

void WireServerDesc::encode(xdr::Encoder& enc) const {
  enc.putString(name);
  enc.putString(endpoint);
  enc.putDouble(bandwidth_bps);
  enc.putDouble(perf_flops);
  putStrings(enc, entries);
}

WireServerDesc WireServerDesc::decode(xdr::Source& src) {
  WireServerDesc desc;
  desc.name = src.getString();
  desc.endpoint = src.getString();
  desc.bandwidth_bps = src.getDouble();
  desc.perf_flops = src.getDouble();
  desc.entries = getStrings(src, "exported entry");
  return desc;
}

void RegistryOp::encode(xdr::Encoder& enc) const {
  enc.putU32(static_cast<std::uint32_t>(kind));
  desc.encode(enc);
  enc.putU64(reg_epoch);
  enc.putU64(seq);
}

RegistryOp RegistryOp::decode(xdr::Source& src) {
  RegistryOp op;
  const std::uint32_t kind = src.getU32();
  if (kind != static_cast<std::uint32_t>(Kind::Register) &&
      kind != static_cast<std::uint32_t>(Kind::Deregister)) {
    throw ProtocolError("unknown registry op kind " + std::to_string(kind));
  }
  op.kind = static_cast<Kind>(kind);
  op.desc = WireServerDesc::decode(src);
  op.reg_epoch = src.getU64();
  op.seq = src.getU64();
  return op;
}

void RegisterResult::encode(xdr::Encoder& enc) const {
  enc.putU32(static_cast<std::uint32_t>(status));
  enc.putU64(seq);
  enc.putU64(shard_epoch);
}

RegisterResult RegisterResult::decode(xdr::Source& src) {
  RegisterResult result;
  const std::uint32_t status = src.getU32();
  if (status > static_cast<std::uint32_t>(Status::Fenced)) {
    throw ProtocolError("unknown register status " + std::to_string(status));
  }
  result.status = static_cast<Status>(status);
  result.seq = src.getU64();
  result.shard_epoch = src.getU64();
  return result;
}

void ReplAppendMsg::encode(xdr::Encoder& enc) const {
  enc.putU64(shard_epoch);
  op.encode(enc);
}

ReplAppendMsg ReplAppendMsg::decode(xdr::Source& src) {
  ReplAppendMsg msg;
  msg.shard_epoch = src.getU64();
  msg.op = RegistryOp::decode(src);
  return msg;
}

void ReplAckMsg::encode(xdr::Encoder& enc) const {
  enc.putU32(static_cast<std::uint32_t>(status));
  enc.putU64(seq);
  enc.putU64(shard_epoch);
}

ReplAckMsg ReplAckMsg::decode(xdr::Source& src) {
  ReplAckMsg msg;
  const std::uint32_t status = src.getU32();
  if (status > static_cast<std::uint32_t>(Status::StaleEpoch)) {
    throw ProtocolError("unknown repl ack status " + std::to_string(status));
  }
  msg.status = static_cast<Status>(status);
  msg.seq = src.getU64();
  msg.shard_epoch = src.getU64();
  return msg;
}

void LivenessRecord::encode(xdr::Encoder& enc) const {
  enc.putString(server_name);
  enc.putU32(reachable);
  enc.putU32(running);
  enc.putU32(queued);
  enc.putDouble(load_average);
}

LivenessRecord LivenessRecord::decode(xdr::Source& src) {
  LivenessRecord rec;
  rec.server_name = src.getString();
  rec.reachable = src.getU32();
  rec.running = src.getU32();
  rec.queued = src.getU32();
  rec.load_average = src.getDouble();
  return rec;
}

void ReplHeartbeatMsg::encode(xdr::Encoder& enc) const {
  enc.putU64(shard_epoch);
  enc.putU32(static_cast<std::uint32_t>(liveness.size()));
  for (const auto& rec : liveness) rec.encode(enc);
}

ReplHeartbeatMsg ReplHeartbeatMsg::decode(xdr::Source& src) {
  ReplHeartbeatMsg msg;
  msg.shard_epoch = src.getU64();
  const std::uint32_t n = checkedCount(src, "liveness record");
  msg.liveness.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    msg.liveness.push_back(LivenessRecord::decode(src));
  }
  return msg;
}

}  // namespace ninf::protocol
