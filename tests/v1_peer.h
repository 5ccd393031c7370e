// A protocol-v1 client scripted frame by frame, for tests that reach a
// server's lock-step path: no Hello, one request and then its reply, as
// a client built before the session layer speaks.  It runs the
// production codecs: sendFrame and recvHeader in WireMode::V1, a
// BodyReader over each reply, and the call marshal.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "idl/interface_info.h"
#include "protocol/call_marshal.h"
#include "protocol/message.h"
#include "transport/transport.h"
#include "xdr/xdr.h"

namespace ninf {

class V1Peer {
 public:
  explicit V1Peer(std::unique_ptr<transport::Stream> stream)
      : stream_(std::move(stream)) {}

  /// Send `body` as one `type` frame and hand the reply to
  /// `consume(const protocol::FrameHeader&, xdr::Source&)`.  Body bytes
  /// it leaves unread are drained, also when it throws, so the next
  /// exchange stays framed.
  template <typename Consume>
  void exchange(protocol::MessageType type, const xdr::Encoder& body,
                Consume&& consume) {
    protocol::sendFrame(*stream_, protocol::WireMode::V1, type, body);
    const protocol::FrameHeader reply =
        protocol::recvHeader(*stream_, protocol::WireMode::V1);
    protocol::BodyReader reader(*stream_, reply.length);
    try {
      consume(reply, reader);
    } catch (...) {
      reader.drain();
      throw;
    }
    reader.drain();
  }

  /// Stage one of the two-stage RPC, cached per entry name.
  const idl::InterfaceInfo& interface(const std::string& name) {
    const auto it = interfaces_.find(name);
    if (it != interfaces_.end()) return it->second;
    xdr::Encoder query;
    query.putString(name);
    std::vector<std::uint8_t> payload;
    exchange(protocol::MessageType::QueryInterface, query,
             [&](const protocol::FrameHeader& reply, xdr::Source& src) {
               expectType(reply, protocol::MessageType::InterfaceReply);
               payload.resize(reply.length);
               src.getRaw(payload);
             });
    xdr::Decoder dec(payload);
    if (!dec.getBool()) throw NotFoundError("executable '" + name + "'");
    return interfaces_.emplace(name, idl::InterfaceInfo::decode(dec))
        .first->second;
  }

  /// One Ninf_call: OUT arguments land in `args`.  Throws RemoteError
  /// on an error reply.
  protocol::CallTimings call(const std::string& name,
                             std::span<const protocol::ArgValue> args) {
    const idl::InterfaceInfo& info = interface(name);
    protocol::CallTimings timings;
    exchange(protocol::MessageType::CallRequest,
             protocol::buildCallRequest(info, args),
             [&](const protocol::FrameHeader& reply, xdr::Source& src) {
               expectType(reply, protocol::MessageType::CallReply);
               timings = protocol::decodeCallReply(info, src, args);
             });
    return timings;
  }

  /// Two-phase submit (paper, section 5.1): the job id.
  std::uint64_t submit(const std::string& name,
                       std::span<const protocol::ArgValue> args) {
    std::uint64_t job = 0;
    exchange(protocol::MessageType::SubmitRequest,
             protocol::buildCallRequest(interface(name), args),
             [&](const protocol::FrameHeader& reply, xdr::Source& src) {
               expectType(reply, protocol::MessageType::SubmitAck);
               job = src.getU64();
             });
    return job;
  }

  /// Two-phase fetch: false while job `job` of entry `name` still
  /// computes, true once its OUT arguments landed in `args`.
  bool fetch(std::uint64_t job, const std::string& name,
             std::span<const protocol::ArgValue> args) {
    const idl::InterfaceInfo& info = interface(name);
    xdr::Encoder request;
    request.putU64(job);
    bool done = false;
    exchange(protocol::MessageType::FetchResult, request,
             [&](const protocol::FrameHeader& reply, xdr::Source& src) {
               if (reply.type == protocol::MessageType::ResultPending) return;
               expectType(reply, protocol::MessageType::CallReply);
               protocol::decodeCallReply(info, src, args);
               done = true;
             });
    return done;
  }

  void close() { stream_->close(); }

 private:
  static void expectType(const protocol::FrameHeader& reply,
                         protocol::MessageType want) {
    if (reply.type != want) {
      throw ProtocolError(
          "expected message type " +
          std::to_string(static_cast<unsigned>(want)) + ", got " +
          std::to_string(static_cast<unsigned>(reply.type)));
    }
  }

  std::unique_ptr<transport::Stream> stream_;
  std::map<std::string, idl::InterfaceInfo> interfaces_;
};

}  // namespace ninf
