// Byte-stream transport abstraction under Ninf RPC.
//
// One socket implementation serves real TCP (the paper's deployment) and
// in-process pairs (an AF_UNIX socketpair, for tests and single-process
// demos); a fault-injecting decorator can wrap either.  All deliver
// reliable, ordered byte streams; message framing lives one layer up in
// protocol/.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/sync.h"

namespace ninf::transport {

/// Reliable bidirectional byte stream.  Thread-compatible: one thread may
/// send while another receives, but concurrent sends (or concurrent
/// receives) require external synchronization.
class Stream {
 public:
  virtual ~Stream() = default;

  /// Send every byte of every buffer, in order; throws
  /// ninf::TransportError on failure.  The only blocking send: a frame
  /// header, its scalar section and an array chunk go out together (one
  /// writev on sockets), and a single buffer is a one-element list.
  virtual void sendv(std::span<const std::span<const std::uint8_t>> buffers)
      NINF_BLOCKING = 0;

  /// Receive exactly buffer.size() bytes; throws ninf::TransportError on
  /// EOF or failure.
  virtual void recvAll(std::span<std::uint8_t> buffer) NINF_BLOCKING = 0;

  /// Bounded partial read: block until at least one byte is available,
  /// then return up to buffer.size() bytes (the count actually read).
  /// Throws ninf::TransportError on EOF or failure.  The default simply
  /// fills the whole buffer, which is correct only when the caller knows
  /// that many bytes are in flight (as the framed body reader does).
  virtual std::size_t recvSome(std::span<std::uint8_t> buffer)
      NINF_BLOCKING {
    recvAll(buffer);
    return buffer.size();
  }

  /// Sentinel meaning "no deadline" (the initial state of every stream).
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  /// Absolute bound for subsequent send/recv operations: an operation
  /// still incomplete when the deadline passes throws ninf::TimeoutError.
  /// Socket streams (TCP and inproc) poll before each syscall.  Pass
  /// kNoDeadline to disable again.  Like send and recv themselves,
  /// thread-compatible rather than fully thread-safe.
  virtual void setDeadline(std::chrono::steady_clock::time_point deadline) = 0;

  /// Convenience: deadline `seconds` from now; <= 0 disables.
  void setDeadlineIn(double seconds) {
    if (seconds <= 0) {
      clearDeadline();
      return;
    }
    setDeadline(std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds)));
  }

  void clearDeadline() { setDeadline(kNoDeadline); }

  /// Half-close for sending; the peer sees EOF after draining.
  virtual void shutdownSend() = 0;

  /// Close both directions.
  virtual void close() = 0;

  /// Diagnostic peer description ("127.0.0.1:4096", "inproc").
  virtual std::string peerName() const = 0;

  // ---- readiness integration (event-driven servers) -----------------
  //
  // A reactor owning many streams needs (a) a pollable fd to register
  // with epoll and (b) operations that never block the event loop.
  // Socket streams provide both and the fault decorator forwards them;
  // the defaults below (-1 / false / throw) suit client-side test
  // doubles only, and the server's reactor drops such a stream.

  /// Pollable OS handle, or -1 when this transport has none.
  virtual int nativeHandle() const { return -1; }

  /// Switch the stream to non-blocking mode (recvNowait/sendvNowait
  /// become usable).  Returns false when unsupported.
  virtual bool setNonBlocking(bool on) {
    (void)on;
    return false;
  }

  /// Non-blocking read: up to buffer.size() bytes, returning the count
  /// actually read, or 0 when the operation would block.  Throws
  /// ninf::TransportError on EOF or failure.  Valid only after
  /// setNonBlocking(true) succeeded.
  virtual std::size_t recvNowait(std::span<std::uint8_t> buffer);

  /// Non-blocking scatter-gather write: accepts as many bytes as the
  /// transport can take right now (possibly spanning several buffers),
  /// returning the count, or 0 when the operation would block.  Throws
  /// ninf::TransportError on failure.  Valid only after
  /// setNonBlocking(true) succeeded.
  virtual std::size_t sendvNowait(
      std::span<const std::span<const std::uint8_t>> buffers);
};

/// Outcome of a non-blocking accept attempt (Listener::tryAccept).
enum class AcceptStatus {
  Accepted,    // a new stream was returned
  WouldBlock,  // no pending connection right now
  Closed,      // the listener was closed
  Exhausted,   // fd exhaustion (EMFILE/ENFILE): back off and retry
};

/// Accepts inbound connections.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Block until a connection arrives; returns nullptr once closed.
  virtual std::unique_ptr<Stream> accept() NINF_BLOCKING = 0;

  /// Unblock pending and future accept() calls.
  virtual void close() = 0;

  /// Pollable OS handle for readiness-driven accepting, or -1 when this
  /// listener has none (NinfServer::start rejects such a listener).
  virtual int nativeHandle() const { return -1; }

  /// Non-blocking accept: returns the new stream (status Accepted) or
  /// nullptr with `status` explaining why.  Unlike accept(), never
  /// throws on fd exhaustion — that is reported as Exhausted so the
  /// caller can back off without tearing down the accept path.
  virtual std::unique_ptr<Stream> tryAccept(AcceptStatus& status);
};

}  // namespace ninf::transport
