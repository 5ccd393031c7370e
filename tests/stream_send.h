// Test shorthand for sending one buffer through transport::Stream::sendv,
// the stream's only blocking send.
#pragma once

#include <cstdint>
#include <span>

#include "transport/transport.h"

namespace ninf::transport {

/// Send every byte of `bytes` as a one-buffer sendv.
inline void sendBytes(Stream& stream, std::span<const std::uint8_t> bytes) {
  const std::span<const std::uint8_t> one[1] = {bytes};
  stream.sendv(one);
}

}  // namespace ninf::transport
