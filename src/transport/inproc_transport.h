// In-process transport: a connected AF_UNIX socketpair served by the
// socket stream of tcp_transport.cpp, so deadlines, readiness
// (nativeHandle and the non-blocking ops) and byte counters
// (transport.tcp.*) behave exactly as on TCP.  Used by unit tests and
// single-process demos.
#pragma once

#include <memory>
#include <utility>

#include "transport/transport.h"

namespace ninf::transport {

/// Create two connected streams: bytes sent on one arrive on the other.
/// Throws ninf::TransportError when the socketpair cannot be created.
std::pair<std::unique_ptr<Stream>, std::unique_ptr<Stream>> inprocPair();

}  // namespace ninf::transport
