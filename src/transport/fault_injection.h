// Deterministic fault injection at the transport boundary.
//
// The paper's WAN experiments (section 6) are dominated by transport
// misbehavior — lossy links, stalled transfers, servers that vanish
// mid-call — none of which a loopback test exercises.  This decorator
// makes those failures reproducible: FaultyStream/FaultyListener wrap
// any Stream/Listener and consult a seeded FaultPlan before every
// operation, so a chaos schedule is a (seed, FaultSpec) pair that
// replays identically.  The chaos suite (tests/test_chaos.cpp) asserts
// the robustness invariant under hundreds of such schedules: every call
// either returns a correct result or throws a typed error within its
// deadline — never hangs, never corrupts.
//
// The decorators forward nativeHandle() and setNonBlocking(), so a
// wrapped listener or stream stays pollable and the server's epoll
// reactor runs on it unchanged.  The non-blocking ops (recvNowait,
// sendvNowait, tryAccept) inject the same faults but never sleep: they
// run on the reactor thread, so a delay surfaces as one spurious
// would-block instead (see FaultyStream).
//
// A null plan is never wrapped (wrapFaulty returns the stream unchanged)
// and a no-fault plan short-circuits before drawing any randomness, so
// the decorator costs nothing when disabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "common/sync.h"
#include "transport/transport.h"

namespace ninf::transport {

/// What can go wrong, and how often.  Probabilities are in [0, 1] and
/// evaluated independently per operation; the scripted counters fire
/// deterministically before any probabilistic draw, which is how tests
/// arrange "exactly one mid-stream reset, then a clean recovery".
struct FaultSpec {
  // Probabilistic faults.
  double connect_refusal = 0.0;  ///< connection attempt refused outright
  double reset = 0.0;            ///< send/recv aborts: connection reset
  double truncate = 0.0;         ///< send delivers a prefix, then resets
  double delay = 0.0;            ///< op stalls delay_min..delay_max first
  double stutter = 0.0;          ///< recv trickles in tiny chunks
  double delay_min_ms = 0.2;
  double delay_max_ms = 3.0;
  std::size_t stutter_bytes = 3;  ///< max chunk size of a stuttered recv

  // Scripted faults (consumed in operation order, then exhausted).
  std::uint32_t refuse_first_connects = 0;  ///< refuse the first N connects
  std::uint32_t reset_first_sends = 0;      ///< reset the first N sends

  bool anyFaults() const {
    return connect_refusal > 0 || reset > 0 || truncate > 0 || delay > 0 ||
           stutter > 0 || refuse_first_connects > 0 || reset_first_sends > 0;
  }
};

/// Seeded decision source shared by every stream of one scenario (the
/// client connection, its reconnects, and any server-side wraps).  All
/// draws happen under one mutex, so a single-threaded schedule replays
/// bit-identically for a given seed.  Every injected fault bumps an
/// `obs` counter (transport.fault.*) and the plan's own tally.
class FaultPlan {
 public:
  /// No faults; enabled() is false and every operation passes through.
  FaultPlan() = default;
  FaultPlan(std::uint64_t seed, FaultSpec spec)
      : spec_(spec), rng_(seed), refusals_left_(spec.refuse_first_connects),
        resets_left_(spec.reset_first_sends) {}

  const FaultSpec& spec() const { return spec_; }
  bool enabled() const { return spec_.anyFaults(); }

  static constexpr std::size_t kNoTruncate = static_cast<std::size_t>(-1);

  /// Verdict for one stream operation.
  struct OpFault {
    double delay_ms = 0.0;          ///< stall this long first
    bool reset = false;             ///< then abort the connection
    std::size_t truncate_at = kNoTruncate;  ///< send only this prefix
    std::size_t chunk = 0;          ///< > 0: deliver recv in <= chunk bytes
  };

  /// True = refuse this connection attempt.
  bool onConnect();
  /// `draw_delay` = false skips the delay draw: the retry of a
  /// non-blocking op that already surfaced its stall as a would-block.
  OpFault onSend(std::size_t bytes, bool draw_delay = true);
  OpFault onRecv(std::size_t bytes, bool draw_delay = true);

  /// Faults injected so far (tests assert a schedule actually fired).
  std::uint64_t injectedCount() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  FaultSpec spec_{};  // immutable after construction
  Mutex mutex_{"faultplan"};
  SplitMix64 rng_ NINF_GUARDED_BY(mutex_){0};
  std::uint32_t refusals_left_ NINF_GUARDED_BY(mutex_) = 0;
  std::uint32_t resets_left_ NINF_GUARDED_BY(mutex_) = 0;
  std::atomic<std::uint64_t> injected_{0};
};

/// Wrap a stream so every operation consults `plan`.  A null plan elides
/// the wrapper entirely (zero overhead when fault injection is off); a
/// non-null no-fault plan wraps but forwards untouched, byte-identical.
std::unique_ptr<Stream> wrapFaulty(std::unique_ptr<Stream> inner,
                                   std::shared_ptr<FaultPlan> plan);

/// Wrap a listener: injected connect refusals drop the inbound connection
/// on the floor (the peer sees an immediate reset) and every accepted
/// stream is wrapped with the same plan.
std::unique_ptr<Listener> wrapFaulty(std::unique_ptr<Listener> inner,
                                     std::shared_ptr<FaultPlan> plan);

/// Client-side connect refusal, for use at the top of connection
/// factories: throws TransportError when the plan refuses this attempt.
void checkConnectFault(FaultPlan& plan, const std::string& where);

}  // namespace ninf::transport
