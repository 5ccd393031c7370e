#include "transport/fault_injection.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace ninf::transport {

namespace {

constexpr std::int64_t kNoDeadlineUs = std::numeric_limits<std::int64_t>::max();

std::int64_t steadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool FaultPlan::onConnect() {
  bool refuse = false;
  {
    LockGuard lock(mutex_);
    if (refusals_left_ > 0) {
      --refusals_left_;
      refuse = true;
    } else if (spec_.connect_refusal > 0 &&
               rng_.nextBool(spec_.connect_refusal)) {
      refuse = true;
    }
  }
  // Counter bumps stay outside the plan lock: FaultyStream wraps hot
  // send/recv paths, and the obs registry must not nest under it.
  if (refuse) {
    static obs::Counter& refused =
        obs::counter("transport.fault.connect_refusals");
    refused.add();
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  return refuse;
}

FaultPlan::OpFault FaultPlan::onSend(std::size_t bytes, bool draw_delay) {
  OpFault f;
  {
    LockGuard lock(mutex_);
    if (resets_left_ > 0) {
      --resets_left_;
      f.reset = true;
    } else if (spec_.reset > 0 && rng_.nextBool(spec_.reset)) {
      f.reset = true;
    } else if (spec_.truncate > 0 && bytes > 0 &&
               rng_.nextBool(spec_.truncate)) {
      f.truncate_at = static_cast<std::size_t>(rng_.nextBelow(bytes));
    }
    if (draw_delay && spec_.delay > 0 && rng_.nextBool(spec_.delay)) {
      f.delay_ms =
          spec_.delay_min_ms +
          (spec_.delay_max_ms - spec_.delay_min_ms) * rng_.nextDouble();
    }
  }
  // Accounting happens on the decided fault after the lock drops.
  if (f.reset) {
    static obs::Counter& resets = obs::counter("transport.fault.resets");
    resets.add();
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  if (f.truncate_at != kNoTruncate) {
    static obs::Counter& truncated =
        obs::counter("transport.fault.truncated_sends");
    truncated.add();
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  if (f.delay_ms > 0) {
    static obs::Counter& delays = obs::counter("transport.fault.delays");
    delays.add();
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  return f;
}

FaultPlan::OpFault FaultPlan::onRecv(std::size_t bytes, bool draw_delay) {
  OpFault f;
  {
    LockGuard lock(mutex_);
    if (spec_.reset > 0 && rng_.nextBool(spec_.reset)) {
      f.reset = true;
    } else if (spec_.stutter > 0 && bytes > 1 &&
               rng_.nextBool(spec_.stutter)) {
      f.chunk = 1 + static_cast<std::size_t>(
                        rng_.nextBelow(std::max<std::size_t>(
                            1, spec_.stutter_bytes)));
    }
    if (draw_delay && spec_.delay > 0 && rng_.nextBool(spec_.delay)) {
      f.delay_ms =
          spec_.delay_min_ms +
          (spec_.delay_max_ms - spec_.delay_min_ms) * rng_.nextDouble();
    }
  }
  // Accounting happens on the decided fault after the lock drops.
  if (f.reset) {
    static obs::Counter& resets = obs::counter("transport.fault.resets");
    resets.add();
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  if (f.chunk > 0) {
    static obs::Counter& stuttered =
        obs::counter("transport.fault.stuttered_recvs");
    stuttered.add();
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  if (f.delay_ms > 0) {
    static obs::Counter& delays = obs::counter("transport.fault.delays");
    delays.add();
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  return f;
}

namespace {

std::size_t totalBytes(std::span<const std::span<const std::uint8_t>> buffers) {
  std::size_t total = 0;
  for (const auto& b : buffers) total += b.size();
  return total;
}

/// The first `bytes` bytes of `buffers`, as views into them.
std::vector<std::span<const std::uint8_t>> prefixOf(
    std::span<const std::span<const std::uint8_t>> buffers,
    std::size_t bytes) {
  std::vector<std::span<const std::uint8_t>> out;
  for (const auto& b : buffers) {
    if (bytes == 0) break;
    const std::size_t take = std::min(bytes, b.size());
    out.push_back(b.first(take));
    bytes -= take;
  }
  return out;
}

class FaultyStream : public Stream {
 public:
  FaultyStream(std::unique_ptr<Stream> inner, std::shared_ptr<FaultPlan> plan)
      : inner_(std::move(inner)), plan_(std::move(plan)) {}

  void sendv(
      std::span<const std::span<const std::uint8_t>> buffers) override {
    if (plan_->enabled()) {
      const std::size_t total = totalBytes(buffers);
      const FaultPlan::OpFault f = plan_->onSend(total);
      applyDelay(f.delay_ms);
      if (f.reset) abortConnection("connection reset before send");
      if (f.truncate_at != FaultPlan::kNoTruncate && f.truncate_at < total) {
        inner_->sendv(prefixOf(buffers, f.truncate_at));
        abortTruncated(f.truncate_at, total);
      }
    }
    inner_->sendv(buffers);
  }

  void recvAll(std::span<std::uint8_t> buffer) override {
    if (plan_->enabled()) {
      const FaultPlan::OpFault f = plan_->onRecv(buffer.size());
      applyDelay(f.delay_ms);
      if (f.reset) abortConnection("connection reset before recv");
      if (f.chunk > 0) {
        // Short-read stutter: satisfy the same contract, but drag the
        // bytes through many bounded partial reads.
        std::size_t got = 0;
        while (got < buffer.size()) {
          got += inner_->recvSome(
              buffer.subspan(got, std::min(f.chunk, buffer.size() - got)));
        }
        return;
      }
    }
    inner_->recvAll(buffer);
  }

  std::size_t recvSome(std::span<std::uint8_t> buffer) override {
    if (plan_->enabled() && !buffer.empty()) {
      const FaultPlan::OpFault f = plan_->onRecv(buffer.size());
      applyDelay(f.delay_ms);
      if (f.reset) abortConnection("connection reset before recv");
      if (f.chunk > 0) {
        return inner_->recvSome(
            buffer.first(std::min(f.chunk, buffer.size())));
      }
    }
    return inner_->recvSome(buffer);
  }

  // Non-blocking ops run on a reactor thread and must never sleep.  An
  // injected delay therefore surfaces as one spurious would-block (0),
  // and this stream's next non-blocking op skips the delay draw, so even
  // delay = 1.0 makes progress.  A reset or truncation drawn together
  // with a delay fires at once (a stall before the line dies is moot); a
  // delay outranks a stutter drawn for the same read.

  int nativeHandle() const override { return inner_->nativeHandle(); }

  bool setNonBlocking(bool on) override { return inner_->setNonBlocking(on); }

  std::size_t recvNowait(std::span<std::uint8_t> buffer) override {
    if (plan_->enabled() && !buffer.empty()) {
      const FaultPlan::OpFault f =
          plan_->onRecv(buffer.size(), !stalled_.exchange(false));
      if (f.reset) abortConnection("connection reset before recv");
      if (f.delay_ms > 0) {
        stalled_.store(true);
        return 0;
      }
      if (f.chunk > 0) {
        return inner_->recvNowait(
            buffer.first(std::min(f.chunk, buffer.size())));
      }
    }
    return inner_->recvNowait(buffer);
  }

  std::size_t sendvNowait(
      std::span<const std::span<const std::uint8_t>> buffers) override {
    if (plan_->enabled()) {
      const std::size_t total = totalBytes(buffers);
      const FaultPlan::OpFault f =
          plan_->onSend(total, !stalled_.exchange(false));
      if (f.reset) abortConnection("connection reset before send");
      if (f.truncate_at != FaultPlan::kNoTruncate && f.truncate_at < total) {
        // Whatever part of the prefix the socket takes right now.
        if (f.truncate_at > 0) {
          inner_->sendvNowait(prefixOf(buffers, f.truncate_at));
        }
        abortTruncated(f.truncate_at, total);
      }
      if (f.delay_ms > 0) {
        stalled_.store(true);
        return 0;
      }
    }
    return inner_->sendvNowait(buffers);
  }

  void setDeadline(std::chrono::steady_clock::time_point deadline) override {
    deadline_us_.store(
        deadline == kNoDeadline
            ? kNoDeadlineUs
            : std::chrono::duration_cast<std::chrono::microseconds>(
                  deadline.time_since_epoch())
                  .count(),
        std::memory_order_relaxed);
    inner_->setDeadline(deadline);
  }

  void shutdownSend() override { inner_->shutdownSend(); }
  void close() override { inner_->close(); }
  std::string peerName() const override { return inner_->peerName(); }

 private:
  /// Injected stall, bounded by the stream's deadline: a delay that would
  /// overrun it sleeps only to the deadline and then fires the timeout —
  /// exactly what a real stalled peer does to a deadlined reader.
  void applyDelay(double delay_ms) {
    if (delay_ms <= 0) return;
    const std::int64_t deadline = deadline_us_.load(std::memory_order_relaxed);
    const std::int64_t want_us = static_cast<std::int64_t>(delay_ms * 1000.0);
    if (deadline != kNoDeadlineUs) {
      const std::int64_t now = steadyNowUs();
      if (now + want_us >= deadline) {
        if (deadline > now) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(deadline - now));
        }
        static obs::Counter& timeouts =
            obs::counter("transport.deadline_timeouts");
        timeouts.add();
        throw TimeoutError("injected stall on " + inner_->peerName() +
                           " outlived the deadline");
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(want_us));
  }

  [[noreturn]] void abortConnection(const std::string& why) {
    const std::string peer = inner_->peerName();
    inner_->close();
    throw TransportError("injected fault on " + peer + ": " + why);
  }

  [[noreturn]] void abortTruncated(std::size_t sent, std::size_t total) {
    abortConnection("send truncated after " + std::to_string(sent) + "/" +
                    std::to_string(total) + " bytes");
  }

  std::unique_ptr<Stream> inner_;
  std::shared_ptr<FaultPlan> plan_;
  std::atomic<std::int64_t> deadline_us_{kNoDeadlineUs};
  /// The last non-blocking op returned an injected would-block.
  std::atomic<bool> stalled_{false};
};

class FaultyListener : public Listener {
 public:
  FaultyListener(std::unique_ptr<Listener> inner,
                 std::shared_ptr<FaultPlan> plan)
      : inner_(std::move(inner)), plan_(std::move(plan)) {}

  std::unique_ptr<Stream> accept() override {
    for (;;) {
      auto stream = inner_->accept();
      if (!stream) return nullptr;
      if (auto admitted = admit(std::move(stream))) return admitted;
    }
  }

  void close() override { inner_->close(); }

  int nativeHandle() const override { return inner_->nativeHandle(); }

  std::unique_ptr<Stream> tryAccept(AcceptStatus& status) override {
    for (;;) {
      auto stream = inner_->tryAccept(status);
      if (!stream) return nullptr;
      if (auto admitted = admit(std::move(stream))) return admitted;
    }
  }

 private:
  /// Wrap an accepted stream, or drop it (null) on an injected refusal:
  /// the peer sees an immediate reset.
  std::unique_ptr<Stream> admit(std::unique_ptr<Stream> stream) {
    if (plan_->enabled() && plan_->onConnect()) {
      stream->close();
      return nullptr;
    }
    return wrapFaulty(std::move(stream), plan_);
  }

  std::unique_ptr<Listener> inner_;
  std::shared_ptr<FaultPlan> plan_;
};

}  // namespace

std::unique_ptr<Stream> wrapFaulty(std::unique_ptr<Stream> inner,
                                   std::shared_ptr<FaultPlan> plan) {
  if (!plan) return inner;
  return std::make_unique<FaultyStream>(std::move(inner), std::move(plan));
}

std::unique_ptr<Listener> wrapFaulty(std::unique_ptr<Listener> inner,
                                     std::shared_ptr<FaultPlan> plan) {
  if (!plan) return inner;
  return std::make_unique<FaultyListener>(std::move(inner), std::move(plan));
}

void checkConnectFault(FaultPlan& plan, const std::string& where) {
  if (plan.enabled() && plan.onConnect()) {
    throw TransportError("injected connect refusal to " + where);
  }
}

}  // namespace ninf::transport
