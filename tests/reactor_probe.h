// Observation helpers for tests of the reactor-served server and the
// metaserver node: process thread count, resident memory and CPU time,
// the reactor's connection gauge, and a bounded wait.
#pragma once

#include <time.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace ninf {

/// Numeric value of one /proc/self/status field (Linux), or -1.
inline double procStatusValue(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) return std::stod(line.substr(field.size()));
  }
  return -1.0;
}

/// Threads of this process.
inline int processThreadCount() {
  return static_cast<int>(procStatusValue("Threads:"));
}

/// Resident set size of this process in bytes (VmRSS), or -1.
inline double processRssBytes() {
  const double kb = procStatusValue("VmRSS:");
  return kb < 0 ? -1.0 : kb * 1024.0;
}

/// CPU time consumed by every thread of this process, in seconds.
inline double processCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
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
