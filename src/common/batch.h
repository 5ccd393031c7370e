// Small-call batching bounds.
//
// Both coalescing send paths — the client Channel's group-commit flusher
// and the server reactor's per-connection write queue — bound how much
// they pack into one writev/sendvNowait: at most kBatchMaxFrames frames
// and at most kBatchMaxBytes payload per flush.  A flush always takes at
// least one frame, even when that frame alone exceeds the byte budget.
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

/// Frames coalesced per flush.
inline constexpr std::size_t kBatchMaxFrames = 16;

/// Byte budget per flush: once a flush holds this many bytes it takes
/// no further frame.
inline constexpr std::size_t kBatchMaxBytes = 256 * 1024;

}  // namespace ninf::common
