#include "transport/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "common/error.h"
#include "common/log.h"
#include "transport/inproc_transport.h"
#include "transport/net_tuning.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ninf::transport {

// Base-class defaults for the readiness API: transports that do not
// override nativeHandle() advertise -1 and a reactor never calls these.
std::size_t Stream::recvNowait(std::span<std::uint8_t> buffer) {
  (void)buffer;
  throw TransportError("transport does not support non-blocking receive");
}

std::size_t Stream::sendvNowait(
    std::span<const std::span<const std::uint8_t>> buffers) {
  (void)buffers;
  throw TransportError("transport does not support non-blocking send");
}

std::unique_ptr<Stream> Listener::tryAccept(AcceptStatus& status) {
  status = AcceptStatus::Closed;
  throw TransportError("listener does not support non-blocking accept");
}

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

/// Deadlines travel as microseconds on the steady clock; this sentinel
/// (the atomic's initial value) means "none".
constexpr std::int64_t kNoDeadlineUs = std::numeric_limits<std::int64_t>::max();

std::int64_t steadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A connected stream socket: TCP, or one end of inprocPair()'s AF_UNIX
/// socketpair (where the TCP_NODELAY request below is a harmless no-op).
class TcpStream : public Stream {
 public:
  TcpStream(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {
    int one = 1;
    // Ninf RPC does its own buffering; disable Nagle so small control
    // messages (interface queries) do not serialize behind data.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpStream() override { closeFd(/*shutdown_first=*/false); }

  void sendv(
      std::span<const std::span<const std::uint8_t>> buffers) override {
    const int fd = fd_.load();
    if (fd < 0) throw TransportError("send on closed stream");
    std::size_t total = 0;
    for (const auto& b : buffers) total += b.size();
    if (total == 0) return;
    obs::Span span("tcp.send", static_cast<std::int64_t>(total));
    static obs::Counter& tx = obs::counter("transport.tcp.bytes_sent");
    const std::int64_t deadline = deadline_us_.load(std::memory_order_relaxed);
    const bool timed = deadline != kNoDeadlineUs;
    // sendmsg (not writev) so MSG_NOSIGNAL applies: a peer that hung up
    // surfaces as EPIPE, not SIGPIPE.
    constexpr std::size_t kMaxIov = 64;
    struct iovec iov[kMaxIov];
    std::size_t idx = 0;  // current buffer
    std::size_t off = 0;  // bytes of buffers[idx] already sent
    while (idx < buffers.size()) {
      std::size_t n_iov = 0;
      for (std::size_t b = idx, o = off;
           b < buffers.size() && n_iov < kMaxIov; ++b, o = 0) {
        if (buffers[b].size() > o) {
          iov[n_iov].iov_base =
              const_cast<std::uint8_t*>(buffers[b].data() + o);
          iov[n_iov].iov_len = buffers[b].size() - o;
          ++n_iov;
        }
      }
      if (n_iov == 0) break;  // only empty buffers remain
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = n_iov;
      if (timed) awaitReady(POLLOUT, deadline, "send to ");
      const ssize_t sent =
          ::sendmsg(fd, &msg, MSG_NOSIGNAL | (timed ? MSG_DONTWAIT : 0));
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (timed && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
        throwErrno("send to " + peer_);
      }
      tx.add(static_cast<std::uint64_t>(sent));
      // Advance (idx, off) past the bytes the kernel accepted.
      std::size_t left = static_cast<std::size_t>(sent);
      while (left > 0) {
        const std::size_t avail = buffers[idx].size() - off;
        if (left < avail) {
          off += left;
          left = 0;
        } else {
          left -= avail;
          ++idx;
          off = 0;
        }
      }
    }
  }

  void recvAll(std::span<std::uint8_t> buffer) override {
    const int fd = fd_.load();
    if (fd < 0) throw TransportError("recv on closed stream");
    obs::Span span("tcp.recv", static_cast<std::int64_t>(buffer.size()));
    // Counted per chunk delivered, never up front: a connection that dies
    // mid-message must not inflate the received-bytes counter.
    static obs::Counter& rx = obs::counter("transport.tcp.bytes_received");
    const std::int64_t deadline = deadline_us_.load(std::memory_order_relaxed);
    const bool timed = deadline != kNoDeadlineUs;
    std::size_t got = 0;
    while (got < buffer.size()) {
      if (timed) awaitReady(POLLIN, deadline, "recv from ");
      const ssize_t n = ::recv(fd, buffer.data() + got, buffer.size() - got,
                               timed ? MSG_DONTWAIT : 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (timed && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
        throwErrno("recv from " + peer_);
      }
      if (n == 0) {
        throw TransportError("connection closed by " + peer_ + " (" +
                             std::to_string(got) + "/" +
                             std::to_string(buffer.size()) + " bytes)");
      }
      got += static_cast<std::size_t>(n);
      rx.add(static_cast<std::uint64_t>(n));
    }
  }

  std::size_t recvSome(std::span<std::uint8_t> buffer) override {
    const int fd = fd_.load();
    if (fd < 0) throw TransportError("recv on closed stream");
    if (buffer.empty()) return 0;
    const std::int64_t deadline = deadline_us_.load(std::memory_order_relaxed);
    const bool timed = deadline != kNoDeadlineUs;
    for (;;) {
      if (timed) awaitReady(POLLIN, deadline, "recv from ");
      const ssize_t n =
          ::recv(fd, buffer.data(), buffer.size(), timed ? MSG_DONTWAIT : 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (timed && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
        throwErrno("recv from " + peer_);
      }
      if (n == 0) {
        throw TransportError("connection closed by " + peer_);
      }
      static obs::Counter& rx = obs::counter("transport.tcp.bytes_received");
      rx.add(static_cast<std::uint64_t>(n));
      return static_cast<std::size_t>(n);
    }
  }

  int nativeHandle() const override { return fd_.load(); }

  bool setNonBlocking(bool on) override {
    const int fd = fd_.load();
    if (fd < 0) return false;
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0) return false;
    const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    return flags == want || ::fcntl(fd, F_SETFL, want) >= 0;
  }

  std::size_t recvNowait(std::span<std::uint8_t> buffer) override {
    const int fd = fd_.load();
    if (fd < 0) throw TransportError("recv on closed stream");
    if (buffer.empty()) return 0;
    for (;;) {
      const ssize_t n =
          ::recv(fd, buffer.data(), buffer.size(), MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
        throwErrno("recv from " + peer_);
      }
      if (n == 0) {
        throw TransportError("connection closed by " + peer_);
      }
      static obs::Counter& rx = obs::counter("transport.tcp.bytes_received");
      rx.add(static_cast<std::uint64_t>(n));
      return static_cast<std::size_t>(n);
    }
  }

  std::size_t sendvNowait(
      std::span<const std::span<const std::uint8_t>> buffers) override {
    const int fd = fd_.load();
    if (fd < 0) throw TransportError("send on closed stream");
    constexpr std::size_t kMaxIov = 64;
    struct iovec iov[kMaxIov];
    std::size_t n_iov = 0;
    for (const auto& b : buffers) {
      if (b.empty()) continue;
      if (n_iov == kMaxIov) break;
      iov[n_iov].iov_base = const_cast<std::uint8_t*>(b.data());
      iov[n_iov].iov_len = b.size();
      ++n_iov;
    }
    if (n_iov == 0) return 0;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    for (;;) {
      const ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
        throwErrno("send to " + peer_);
      }
      static obs::Counter& tx = obs::counter("transport.tcp.bytes_sent");
      tx.add(static_cast<std::uint64_t>(sent));
      return static_cast<std::size_t>(sent);
    }
  }

  void setDeadline(std::chrono::steady_clock::time_point deadline) override {
    deadline_us_.store(
        deadline == kNoDeadline
            ? kNoDeadlineUs
            : std::chrono::duration_cast<std::chrono::microseconds>(
                  deadline.time_since_epoch())
                  .count(),
        std::memory_order_relaxed);
  }

  void shutdownSend() override {
    const int fd = fd_.load();
    if (fd >= 0) ::shutdown(fd, SHUT_WR);
  }

  /// May be called from a different thread than a blocked recvAll: the
  /// shutdown() wakes that thread (close() alone would not), and only the
  /// shutdown is performed here — the fd itself is released by the
  /// destructor, so the blocked thread never races a reused descriptor.
  void close() override { closeFd(/*shutdown_first=*/true); }

  std::string peerName() const override { return peer_; }

 private:
  /// Block until the socket is ready for `events` or the deadline passes
  /// (TimeoutError).  `what` is the error-message prefix ("recv from ").
  void awaitReady(short events, std::int64_t deadline_us, const char* what) {
    for (;;) {
      const std::int64_t now = steadyNowUs();
      if (now >= deadline_us) {
        static obs::Counter& timeouts =
            obs::counter("transport.deadline_timeouts");
        timeouts.add();
        throw TimeoutError(std::string(what) + peer_ + ": deadline exceeded");
      }
      const std::int64_t wait_ms = (deadline_us - now + 999) / 1000;
      pollfd pfd{fd_.load(), events, 0};
      const int rc = ::poll(
          &pfd, 1,
          static_cast<int>(std::min<std::int64_t>(wait_ms, 60'000)));
      if (rc > 0) return;
      if (rc < 0 && errno != EINTR) throwErrno(std::string(what) + peer_);
      // rc == 0: poll timed out; re-check the deadline and go again.
    }
  }

  void closeFd(bool shutdown_first) {
    if (shutdown_first) {
      const int fd = fd_.load();
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
      return;  // leave the fd open for in-flight syscalls
    }
    const int fd = fd_.exchange(-1);
    if (fd >= 0) ::close(fd);
  }

  std::atomic<int> fd_;
  std::string peer_;
  // Microseconds on the steady clock; kNoDeadlineUs disables.  Atomic so
  // a deadline set by the calling thread is visible to a peer thread
  // blocked in the other direction.
  std::atomic<std::int64_t> deadline_us_{kNoDeadlineUs};
};

std::string describe(const sockaddr_in& addr) {
  char buf[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf));
  return std::string(buf) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

std::pair<std::unique_ptr<Stream>, std::unique_ptr<Stream>> inprocPair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0) throwErrno("socketpair");
  return {std::make_unique<TcpStream>(fds[0], "inproc"),
          std::make_unique<TcpStream>(fds[1], "inproc")};
}

std::unique_ptr<Stream> tcpConnect(const std::string& host,
                                   std::uint16_t port,
                                   double timeout_seconds) {
  const std::string where = host + ":" + std::to_string(port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throwErrno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError("bad IPv4 address '" + host + "' (connecting to " +
                         where + ")");
  }
  if (timeout_seconds <= 0) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throwErrno("connect to " + where);
    }
    return std::make_unique<TcpStream>(fd, describe(addr));
  }
  // Timed connect: non-blocking connect, poll for writability, then read
  // the final status from SO_ERROR and restore blocking mode.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throwErrno("fcntl for connect to " + where);
  }
  const auto fail = [&](const std::string& what) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throwErrno(what);
  };
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) fail("connect to " + where);
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms =
        static_cast<int>(std::max(1.0, timeout_seconds * 1000.0));
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) fail("poll for connect to " + where);
    if (rc == 0) {
      ::close(fd);
      throw TransportError("connect to " + where + " timed out after " +
                           std::to_string(timeout_ms) + " ms");
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0) {
      fail("getsockopt for connect to " + where);
    }
    if (so_error != 0) {
      errno = so_error;
      fail("connect to " + where);
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    fail("fcntl for connect to " + where);
  }
  return std::make_unique<TcpStream>(fd, describe(addr));
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throwErrno("socket");
  fd_.store(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throwErrno("bind port " + std::to_string(port));
  }
  if (::listen(fd, backlog > 0 ? backlog : kListenBacklogDefault) < 0) {
    throwErrno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    throwErrno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  NINF_LOG(Debug) << "listening on 127.0.0.1:" << port_;
}

TcpListener::~TcpListener() { close(); }

namespace {

/// Count one refused accept and say why (rate-limited).
void noteAcceptError(const char* what) {
  static obs::Counter& errors = obs::counter("server.accept_errors");
  errors.add();
  NINF_LOG_EVERY_N(Warn, 100)
      << "accept failed (" << what << "); backing off";
}

}  // namespace

std::unique_ptr<Stream> TcpListener::accept() {
  // Loop (not recurse) on EINTR: a signal storm must not grow the stack.
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int listen_fd = fd_.load();
    if (listen_fd < 0) return nullptr;  // closed
    const int fd =
        ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (errno == EBADF || errno == EINVAL) return nullptr;  // closed
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // The socket was switched to non-blocking by a tryAccept()
        // caller; park on readiness and retry.
        pollfd pfd{listen_fd, POLLIN, 0};
        ::poll(&pfd, 1, kAcceptPollMs);
        continue;
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of descriptors/buffers: dropping the accept loop here
        // would kill the server for good.  Count it, let the pressure
        // drain, retry — the pending connection stays in the backlog.
        noteAcceptError(std::strerror(errno));
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kAcceptBackoffSeconds));
        continue;
      }
      throwErrno("accept");
    }
    return std::make_unique<TcpStream>(fd, describe(peer));
  }
}

int TcpListener::nativeHandle() const { return fd_.load(); }

std::unique_ptr<Stream> TcpListener::tryAccept(AcceptStatus& status) {
  const int listen_fd = fd_.load();
  if (listen_fd < 0) {
    status = AcceptStatus::Closed;
    return nullptr;
  }
  // First use switches the listening socket to non-blocking; harmless
  // for a subsequent blocking accept() (it handles EAGAIN via poll-free
  // retry only in the reactor, which never mixes the two).
  if (!nonblocking_.exchange(true)) {
    const int flags = ::fcntl(listen_fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK);
  }
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd >= 0) {
      status = AcceptStatus::Accepted;
      return std::make_unique<TcpStream>(fd, describe(peer));
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      status = AcceptStatus::WouldBlock;
      return nullptr;
    }
    if (errno == EBADF || errno == EINVAL) {
      status = AcceptStatus::Closed;
      return nullptr;
    }
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      noteAcceptError(std::strerror(errno));
      status = AcceptStatus::Exhausted;
      return nullptr;
    }
    throwErrno("accept");
  }
}

void TcpListener::close() {
  // exchange: another thread may close concurrently with the destructor.
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace ninf::transport
