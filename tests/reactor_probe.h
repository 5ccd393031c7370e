// Observation helpers for tests of the reactor-served server: process
// thread count, the reactor's connection gauge, and a bounded wait.
#pragma once

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace ninf {

/// Threads of this process, from /proc/self/status (Linux).
inline int processThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

/// Spin until `pred` holds or `seconds` elapse.
template <typename Pred>
bool waitFor(Pred pred, double seconds = 2.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// Connections the server's reactor currently owns.
inline double reactorFds() {
  return obs::gauge("server.reactor.fds").value();
}

}  // namespace ninf
