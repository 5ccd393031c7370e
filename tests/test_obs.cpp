// Observability subsystem tests: span nesting and timestamp ordering,
// histogram percentile math, Chrome trace JSON round-trip, threaded
// no-loss draining, ServerMetrics reader consistency, the traced
// end-to-end call (in-proc and TCP), and the simulator span schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/ninf_api.h"
#include "common/log.h"
#include "numlib/matrix.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/metrics.h"
#include "server/registry.h"
#include "server/server.h"
#include "simworld/trace_export.h"
#include "transport/tcp_transport.h"

namespace ninf {
namespace {

/// Enable the tracer for one test, restoring a clean disabled state.
class TracerGuard {
 public:
  TracerGuard() {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().setEnabled(true);
  }
  ~TracerGuard() {
    obs::Tracer::instance().setEnabled(false);
    obs::Tracer::instance().clear();
  }
};

const obs::SpanRecord* findSpan(const std::vector<obs::SpanRecord>& spans,
                                const std::string& name) {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// ------------------------------------------------------------- tracer

TEST(Trace, DisabledSpansAreInert) {
  obs::Tracer::instance().clear();
  obs::Tracer::instance().setEnabled(false);
  {
    obs::Span s("call");
    EXPECT_FALSE(s.active());
  }
  EXPECT_TRUE(obs::Tracer::instance().drain().empty());
}

TEST(Trace, NestingLinksParentAndOrdersTimestamps) {
  TracerGuard guard;
  {
    obs::Span root("call");
    ASSERT_TRUE(root.active());
    {
      obs::Span child("marshal-args");
      EXPECT_EQ(child.traceId(), root.traceId());
      { obs::Span grandchild("send"); }
    }
    obs::Span sibling("recv");
    EXPECT_EQ(sibling.traceId(), root.traceId());
  }
  const auto spans = obs::Tracer::instance().drain();
  ASSERT_EQ(spans.size(), 4u);

  const auto* root = findSpan(spans, "call");
  const auto* child = findSpan(spans, "marshal-args");
  const auto* grandchild = findSpan(spans, "send");
  const auto* sibling = findSpan(spans, "recv");
  ASSERT_TRUE(root && child && grandchild && sibling);

  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(child->parent_id, root->span_id);
  EXPECT_EQ(grandchild->parent_id, child->span_id);
  EXPECT_EQ(sibling->parent_id, root->span_id);
  for (const auto* s : {child, grandchild, sibling}) {
    EXPECT_EQ(s->trace_id, root->trace_id);
  }

  // drain() sorts by start; children start after parents and end before.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_us, spans[i].start_us);
  }
  EXPECT_GE(child->start_us, root->start_us);
  EXPECT_LE(child->start_us + child->dur_us,
            root->start_us + root->dur_us + 1.0);
}

TEST(Trace, SeparateRootsGetSeparateTraces) {
  TracerGuard guard;
  { obs::Span a("call"); }
  { obs::Span b("call"); }
  const auto spans = obs::Tracer::instance().drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].trace_id, spans[1].trace_id);
}

TEST(Trace, ThreadedRecordingLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  TracerGuard guard;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::Span s("compute");
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every thread has exited; their buffers must still drain fully.
  const auto spans = obs::Tracer::instance().drain();
  EXPECT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::set<std::uint64_t> ids;
  for (const auto& s : spans) ids.insert(s.span_id);
  EXPECT_EQ(ids.size(), spans.size()) << "span ids must be unique";
  EXPECT_TRUE(obs::Tracer::instance().drain().empty());
}

// ---------------------------------------------------------- histogram

TEST(Metrics, HistogramPercentilesInterpolate) {
  obs::Histogram h;
  // 1..100 ms uniformly.
  for (int i = 1; i <= 100; ++i) h.observe(i * 1e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 5.050, 1e-9);
  EXPECT_NEAR(h.mean(), 0.0505, 1e-9);
  // Log-spaced buckets resolve to ~±17% of the value.
  EXPECT_NEAR(h.percentile(50), 0.050, 0.050 * 0.20);
  EXPECT_NEAR(h.percentile(95), 0.095, 0.095 * 0.20);
  EXPECT_NEAR(h.percentile(99), 0.099, 0.099 * 0.20);
  EXPECT_EQ(h.percentile(0), h.percentile(0));  // no NaN
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
}

TEST(Metrics, HistogramBucketBoundsGrowMonotonically) {
  double prev = 0.0;
  for (std::size_t i = 0; i + 1 < obs::Histogram::kBuckets; ++i) {
    const double upper = obs::Histogram::bucketUpper(i);
    EXPECT_GT(upper, prev);
    prev = upper;
  }
  // Full scale covers multi-minute WAN calls.
  EXPECT_GT(obs::Histogram::bucketUpper(obs::Histogram::kBuckets - 2), 60.0);
}

TEST(Metrics, RegistryFindOrCreateIsStable) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& a = reg.counter("test.obs.stable");
  a.add(3);
  obs::Counter& b = reg.counter("test.obs.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  a.reset();
}

TEST(Metrics, RegistryJsonParsesBack) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("test.obs.json_counter").add(7);
  reg.histogram("test.obs.json_hist").observe(0.25);
  const auto doc = obs::json::parse(reg.toJson());
  ASSERT_EQ(doc.type, obs::json::Value::Type::Object);
  const auto* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* c = counters->find("test.obs.json_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->numberOr(-1), 7.0);
  const auto* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const auto* h = hists->find("test.obs.json_hist");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(h->find("count"), nullptr);
  EXPECT_GE(h->find("count")->numberOr(0), 1.0);
}

// ----------------------------------------------------------- exporter

TEST(Export, ChromeTraceRoundTrips) {
  std::vector<obs::SpanRecord> spans;
  obs::SpanRecord a;
  a.trace_id = 11;
  a.span_id = 21;
  a.name = "call";
  a.start_us = 1000.0;
  a.dur_us = 500.0;
  a.lane = obs::kLaneReal;
  a.tid = 3;
  a.bytes = 4096;
  a.detail = "dmmul \"quoted\" \\ path";
  spans.push_back(a);
  obs::SpanRecord b;
  b.trace_id = 11;
  b.span_id = 22;
  b.parent_id = 21;
  b.name = "compute";
  b.start_us = 1100.0;
  b.dur_us = 300.0;
  b.lane = obs::kLaneSim;
  b.tid = 4;
  spans.push_back(b);

  const std::string doc = obs::chromeTraceJson(spans);
  const auto parsed = obs::parseChromeTrace(doc);
  ASSERT_EQ(parsed.size(), 2u);
  const auto* call = findSpan(parsed, "call");
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->trace_id, 11u);
  EXPECT_EQ(call->span_id, 21u);
  EXPECT_EQ(call->parent_id, 0u);
  EXPECT_DOUBLE_EQ(call->start_us, 1000.0);
  EXPECT_DOUBLE_EQ(call->dur_us, 500.0);
  EXPECT_EQ(call->lane, obs::kLaneReal);
  EXPECT_EQ(call->tid, 3u);
  EXPECT_EQ(call->bytes, 4096);
  EXPECT_EQ(call->detail, "dmmul \"quoted\" \\ path");
  const auto* compute = findSpan(parsed, "compute");
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->parent_id, 21u);
  EXPECT_EQ(compute->lane, obs::kLaneSim);
}

TEST(Export, PhaseSummaryAggregatesAndFilters) {
  std::vector<obs::SpanRecord> spans;
  for (int i = 0; i < 4; ++i) {
    obs::SpanRecord s;
    s.name = "send";
    s.dur_us = 1000.0 * (i + 1);  // 1..4 ms
    s.lane = obs::kLaneReal;
    s.bytes = 100;
    spans.push_back(s);
  }
  obs::SpanRecord sim;
  sim.name = "send";
  sim.dur_us = 99000.0;
  sim.lane = obs::kLaneSim;
  spans.push_back(sim);

  const auto real_only = obs::phaseSummary(spans, obs::kLaneReal);
  ASSERT_EQ(real_only.size(), 1u);
  EXPECT_EQ(real_only[0].name, "send");
  EXPECT_EQ(real_only[0].count, 4u);
  EXPECT_DOUBLE_EQ(real_only[0].total_ms, 10.0);
  EXPECT_DOUBLE_EQ(real_only[0].mean_ms, 2.5);
  EXPECT_DOUBLE_EQ(real_only[0].min_ms, 1.0);
  EXPECT_DOUBLE_EQ(real_only[0].max_ms, 4.0);
  EXPECT_EQ(real_only[0].bytes, 400);

  const auto all = obs::phaseSummary(spans, 0);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].count, 5u);
}

TEST(Export, JsonParserHandlesEscapesAndNesting) {
  const auto v = obs::json::parse(
      R"({"a": [1, 2.5, true, null], "s": "x\"y\\zA", "o": {"k": -3}})");
  ASSERT_EQ(v.type, obs::json::Value::Type::Object);
  const auto* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 4u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_TRUE(a->array[2].boolean);
  const auto* s = v.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->string, "x\"y\\zA");
  const auto* o = v.find("o");
  ASSERT_NE(o, nullptr);
  EXPECT_DOUBLE_EQ(o->find("k")->number, -3.0);
  EXPECT_THROW(obs::json::parse("{\"unterminated\": "), Error);
}

// -------------------------------------------------------- end to end

// The server's prologue decode and epilogue marshal are each one span
// per call, so a phase table counts each stage once.
TEST(TracedCall, EachServerMarshalStageIsOneSpan) {
  server::Registry registry;
  server::registerStandardExecutables(registry);
  server::NinfServer srv(registry, {.workers = 1});
  auto listener = std::make_shared<transport::TcpListener>(0);
  const std::uint16_t port = listener->port();
  srv.start(listener);

  TracerGuard guard;
  {
    auto cl = client::NinfClient::connectTcp("127.0.0.1", port);
    const std::int64_t n = 16;
    const numlib::Matrix a = numlib::randomMatrix(n, 1);
    const numlib::Matrix b = numlib::randomMatrix(n, 2);
    std::vector<double> c(n * n);
    client::ninfCall(*cl, "dmmul", n, a.flat(), b.flat(),
                     std::span<double>(c));
    cl->close();
  }
  srv.stop();

  const auto spans = obs::Tracer::instance().drain();
  for (const char* name : {obs::phase::kServerUnmarshalArgs,
                           obs::phase::kServerMarshalResult}) {
    EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                            [name](const obs::SpanRecord& s) {
                              return s.name == name;
                            }),
              1)
        << name;
  }
}

TEST(TracedCall, TcpCallProducesFullPhaseDecomposition) {
  server::Registry registry;
  server::registerStandardExecutables(registry);
  server::NinfServer srv(registry, {.workers = 1});
  auto listener = std::make_shared<transport::TcpListener>(0);
  const std::uint16_t port = listener->port();
  srv.start(listener);

  TracerGuard guard;
  {
    auto cl = client::NinfClient::connectTcp("127.0.0.1", port);
    const std::int64_t n = 16;
    const numlib::Matrix a = numlib::randomMatrix(n, 1);
    const numlib::Matrix b = numlib::randomMatrix(n, 2);
    std::vector<double> c(n * n);
    client::ninfCall(*cl, "dmmul", n, a.flat(), b.flat(),
                     std::span<double>(c));
    cl->close();
  }
  srv.stop();

  const auto spans = obs::Tracer::instance().drain();
  // Client 7-phase decomposition, server ground truth, transport detail.
  for (const char* name :
       {obs::phase::kCall, obs::phase::kConnect, obs::phase::kMarshalArgs,
        obs::phase::kSend, obs::phase::kQueueWait, obs::phase::kCompute,
        obs::phase::kRecv, obs::phase::kUnmarshalResult,
        obs::phase::kServerQueueWait, obs::phase::kServerCompute,
        obs::phase::kServerUnmarshalArgs, obs::phase::kServerMarshalResult,
        "tcp.send", "tcp.recv"}) {
    EXPECT_NE(findSpan(spans, name), nullptr) << "missing phase " << name;
  }

  // Client-derived phases nest under the root call and tile the window
  // between request-sent and reply-received.
  const auto* root = findSpan(spans, obs::phase::kCall);
  ASSERT_NE(root, nullptr);
  for (const char* name : {obs::phase::kQueueWait, obs::phase::kCompute,
                           obs::phase::kRecv}) {
    const auto* s = findSpan(spans, name);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->parent_id, root->span_id) << name;
    EXPECT_EQ(s->trace_id, root->trace_id) << name;
    EXPECT_GE(s->start_us, root->start_us - 1.0) << name;
    EXPECT_LE(s->start_us + s->dur_us,
              root->start_us + root->dur_us + 1.0)
        << name;
  }

  // The whole trace serializes and parses back without loss.
  const auto parsed = obs::parseChromeTrace(obs::chromeTraceJson(spans));
  EXPECT_EQ(parsed.size(), spans.size());
}

TEST(TracedCall, SimulatorExportsSameSchema) {
  simworld::CallRecord rec;
  rec.submit = 1.0;
  rec.enqueue = 1.5;
  rec.dequeue = 2.0;
  rec.complete = 5.0;
  rec.end = 5.5;
  rec.bytes_total = 1234.0;
  const auto spans = simworld::callSpans(rec, /*tid=*/7);
  ASSERT_EQ(spans.size(), 5u);

  const auto* root = findSpan(spans, obs::phase::kCall);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->lane, obs::kLaneSim);
  EXPECT_EQ(root->tid, 7u);
  EXPECT_DOUBLE_EQ(root->start_us, 1.0e6);
  EXPECT_DOUBLE_EQ(root->dur_us, 4.5e6);
  EXPECT_EQ(root->bytes, 1234);

  const struct {
    const char* name;
    double begin, end;
  } expect[] = {
      {obs::phase::kSend, 1.0, 1.5},
      {obs::phase::kQueueWait, 1.5, 2.0},
      {obs::phase::kCompute, 2.0, 5.0},
      {obs::phase::kRecv, 5.0, 5.5},
  };
  for (const auto& e : expect) {
    const auto* s = findSpan(spans, e.name);
    ASSERT_NE(s, nullptr) << e.name;
    EXPECT_EQ(s->parent_id, root->span_id) << e.name;
    EXPECT_EQ(s->trace_id, root->trace_id) << e.name;
    EXPECT_EQ(s->lane, obs::kLaneSim) << e.name;
    EXPECT_DOUBLE_EQ(s->start_us, e.begin * 1e6) << e.name;
    EXPECT_DOUBLE_EQ(s->dur_us, (e.end - e.begin) * 1e6) << e.name;
  }

  // The same phase names land in the real client's summary vocabulary,
  // so a one-file real-vs-sim comparison lines up row for row.
  const auto stats = obs::phaseSummary(spans, obs::kLaneSim);
  ASSERT_EQ(stats.size(), 5u);
  EXPECT_EQ(stats[0].name, obs::phase::kCall);
}

// ------------------------------------------------------ ServerMetrics

TEST(ServerMetricsObs, ReadersDoNotPerturbState) {
  server::ServerMetrics m;
  m.jobQueued();
  m.jobQueued();
  m.jobStarted();
  // A storm of concurrent readers must not change what writers see.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const auto snap = m.snapshot();
        // Counts are exact; load/busy are time-dependent but bounded.
        EXPECT_EQ(snap.running, 1u);
        EXPECT_EQ(snap.queued, 1u);
        EXPECT_EQ(snap.completed, 0u);
        EXPECT_GE(snap.load_average, 0.0);
        EXPECT_LE(snap.load_average, 2.0 + 1e-9);
        EXPECT_GE(snap.busy_fraction, 0.0);
        EXPECT_LE(snap.busy_fraction, 1.0);
        (void)m.loadAverage();
        (void)m.busyFraction();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& t : readers) t.join();

  m.jobStarted();
  m.jobFinished();
  m.jobFinished();
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.running, 0u);
  EXPECT_EQ(snap.queued, 0u);
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_GT(snap.uptime, 0.0);
}

TEST(ServerMetricsObs, SnapshotTripleIsConsistentUnderTransitions) {
  server::ServerMetrics m;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) {
      m.jobQueued();
      m.jobStarted();
      m.jobFinished();
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const auto snap = m.snapshot();
    // Transitions keep running+queued in {0, 1}: a triple like
    // running=1, queued=1 would mean a torn read.
    EXPECT_LE(snap.running + snap.queued, 1u);
  }
  stop.store(true);
  writer.join();
}

// ------------------------------------------------------------ logging

TEST(Logging, MacroIsDanglingElseSafe) {
  const LogLevel saved = logLevel();
  setLogLevel(LogLevel::Off);
  bool else_taken = false;
  if (true)
    NINF_LOG(Error) << "discarded";
  else
    else_taken = true;
  EXPECT_FALSE(else_taken);
  setLogLevel(saved);
}

TEST(Logging, ArgumentsAreLazilyEvaluated) {
  const LogLevel saved = logLevel();
  setLogLevel(LogLevel::Off);
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return "payload";
  };
  NINF_LOG(Error) << expensive();
  EXPECT_EQ(evaluations, 0);
  setLogLevel(LogLevel::Error);
  NINF_LOG(Error) << expensive();
  EXPECT_EQ(evaluations, 1);
  setLogLevel(saved);
}

TEST(Logging, EveryNEmitsFirstThenEveryNth) {
  const LogLevel saved = logLevel();
  setLogLevel(LogLevel::Error);
  int emissions = 0;
  for (int i = 0; i < 10; ++i) {
    NINF_LOG_EVERY_N(Error, 3) << "sampled " << ++emissions;
  }
  // Reaches 1, 4, 7, 10 of 10.
  EXPECT_EQ(emissions, 4);
  setLogLevel(saved);
}

}  // namespace
}  // namespace ninf
