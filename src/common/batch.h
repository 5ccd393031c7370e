// Process-wide small-call batching limits.
//
// Both coalescing send paths — the client Channel's group-commit flusher
// and the server reactor's per-connection write queue — bound how much
// they pack into one writev/sendvNowait: at most `max_iov` frames and at
// most `max_bytes` payload per flush.  The environment overrides
// (NINF_BATCH_MAX_IOV / NINF_BATCH_MAX_BYTES) are read once at first
// use; setBatchLimits() overrides them at runtime so benches can compare
// batching on vs off (max_iov = 1) in one process.
#pragma once

#include <cstddef>

namespace ninf::common {

/// The one definition of a small frame: header plus body at most this
/// many bytes.  The client group-commits small request frames; larger
/// ones (bulk array arguments) keep the direct scatter-gather send,
/// which already amortizes its syscall.  The server runs a small
/// request's prologue inline on its reactor thread; a larger one's is
/// a worker job, so a multi-megabyte decode never stalls the loop.
inline constexpr std::size_t kSmallFrameBytes = 16 * 1024;

struct BatchLimits {
  /// Frames coalesced per flush, clamped to [1, 64].  1 disables
  /// batching (one syscall per frame, the pre-batching behaviour).
  std::size_t max_iov = 16;
  /// Byte budget per flush; a flush always takes at least one frame
  /// even when that frame alone exceeds the budget.
  std::size_t max_bytes = 256 * 1024;
};

/// Current limits (env-initialised on first call, cheap atomics after).
BatchLimits batchLimits();

/// Override the process-wide limits (benches/tests).  Values are
/// clamped the same way as the environment overrides.
void setBatchLimits(const BatchLimits& limits);

}  // namespace ninf::common
