// traced_call: one in-process Ninf_call with tracing on, printed as the
// per-phase breakdown of a paper Table-3 row.
//
// The client and server share this process over loopback TCP, so the
// trace holds both views of the same call: the client's 7-phase
// decomposition (connect/marshal/send/queue-wait/compute/recv/unmarshal)
// and the server's ground truth (server.queue-wait, server.compute, ...).
//
// Build & run:  cmake --build build && ./build/examples/traced_call
// The Chrome trace lands in traced_call.trace.json — open it in
// chrome://tracing or summarize it with ./build/tools/ninf_trace_dump.
#include <cstdio>
#include <memory>

#include "client/client.h"
#include "client/ninf_api.h"
#include "numlib/matrix.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_session.h"
#include "server/registry.h"
#include "server/server.h"
#include "transport/tcp_transport.h"

using namespace ninf;

int main(int argc, char** argv) {
  std::string out = obs::TraceSession::flagFromArgs(argc, argv);
  if (out.empty()) out = "traced_call.trace.json";
  obs::TraceSession trace(out);

  // The server's reactor serves an ephemeral loopback port; the client
  // speaks the full wire protocol to it.
  server::Registry registry;
  server::registerStandardExecutables(registry);
  server::NinfServer srv(registry, {.workers = 1});
  auto listener = std::make_shared<transport::TcpListener>(0);
  srv.start(listener);

  {
    auto cl = client::NinfClient::connectTcp("127.0.0.1", listener->port());
    const std::int64_t n = 64;
    const numlib::Matrix a = numlib::randomMatrix(n, 1);
    const numlib::Matrix b = numlib::randomMatrix(n, 2);
    std::vector<double> c(n * n);
    const auto result = client::ninfCall(*cl, "dmmul", n, a.flat(),
                                         b.flat(), std::span<double>(c));
    std::printf("dmmul n=%lld over loopback: %.3f ms, %lld bytes out, "
                "%lld in\n",
                static_cast<long long>(n), result.elapsed * 1e3,
                static_cast<long long>(result.bytes_sent),
                static_cast<long long>(result.bytes_received));
    cl->close();
  }
  srv.stop();

  // Summarize before the session flushes: this is one Table-3 row seen
  // from inside the call.
  const auto spans = obs::Tracer::instance().drain();
  std::printf("\n%s", obs::formatPhaseTable(obs::phaseSummary(spans)).c_str());
  std::printf("\nhistograms:\n");
  for (const auto& h : obs::MetricsRegistry::instance().histograms()) {
    std::printf("  %-28s count=%zu mean=%.3f ms p95=%.3f ms\n",
                h.name.c_str(), static_cast<std::size_t>(h.count),
                h.mean * 1e3, h.p95 * 1e3);
  }

  // Re-record what we drained so the session still writes the file.
  for (const auto& s : spans) {
    obs::emitSpan(s);
  }
  trace.finish();
  std::printf("\ntrace written to %s (open in chrome://tracing, or run\n"
              "ninf_trace_dump on it)\n", out.c_str());
  return 0;
}
