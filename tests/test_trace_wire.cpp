// Cross-process trace propagation over the wire: the v2 trace-context
// extension must carry (trace_id, parent_span) from client to server —
// and through the metaserver — so server-side spans join the client's
// trace tree; must vanish cleanly on v1 and on untraced negotiation;
// must never attach a span to the wrong trace under injected faults;
// and the multi-process merge must emit valid Chrome trace JSON.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "metaserver/metaserver.h"
#include "numlib/matrix.h"
#include "numlib/mmul.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "protocol/message.h"
#include "server/registry.h"
#include "server/server.h"
#include "transport/fault_injection.h"
#include "transport/tcp_transport.h"
#include "v1_peer.h"

namespace ninf {
namespace {

using client::CallOptions;
using client::NinfClient;
using protocol::ArgValue;
using transport::FaultPlan;
using transport::FaultSpec;

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

std::vector<const obs::SpanRecord*> findSpans(
    const std::vector<obs::SpanRecord>& spans, const std::string& name) {
  std::vector<const obs::SpanRecord*> out;
  for (const auto& s : spans) {
    if (s.name == name) out.push_back(&s);
  }
  return out;
}

/// One real TCP server shared by the propagation tests.  Client and
/// server live in this process, so one drain() sees both sides.
class TraceWire : public ::testing::Test {
 protected:
  void SetUp() override {
    server::registerStandardExecutables(registry_);
    server_.emplace(registry_, server::ServerOptions{.workers = 2});
    listener_ = std::make_shared<transport::TcpListener>(0);
    port_ = listener_->port();
    server().start(listener_);
  }

  void TearDown() override { server().stop(); }

  std::unique_ptr<transport::Stream> connect() {
    return transport::tcpConnect("127.0.0.1", port_);
  }

  /// dmmul n=6 through `client`, result checked against local compute.
  /// `salt` varies the inputs: dmmul is Idempotent, so byte-identical
  /// repeats are served from the server's result cache without a compute
  /// (or queue-wait) span — callers that need a fresh compute per call
  /// must perturb the arguments.
  void checkedCall(NinfClient& client, const CallOptions& opts = {},
                   int salt = 0) {
    checkedDmmul(
        [&](std::span<const ArgValue> args) {
          client.call("dmmul", args, opts);
        },
        salt);
  }

  /// The same dmmul, issued by `call(args)`.
  template <typename Call>
  void checkedDmmul(Call&& call, int salt = 0) {
    const std::size_t n = 6;
    const numlib::Matrix a = numlib::randomMatrix(n, 7 + 2 * salt);
    const numlib::Matrix b = numlib::randomMatrix(n, 8 + 2 * salt);
    const numlib::Matrix expected = numlib::dmmul(a, b);
    std::vector<double> c(n * n, -1.0);
    std::vector<ArgValue> args = {
        ArgValue::inInt(static_cast<std::int64_t>(n)),
        ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
        ArgValue::outArray(c)};
    call(args);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], expected.flat()[i], 1e-12);
    }
  }

  server::Registry registry_;
  // Engaged in SetUp() for the whole test lifetime; the accessor
  // keeps the one unchecked dereference in a single audited place.
  // NOLINTNEXTLINE(bugprone-unchecked-optional-access)
  server::NinfServer& server() { return *server_; }
  std::optional<server::NinfServer> server_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::uint16_t port_ = 0;
};

TEST_F(TraceWire, PropagatesClientToServer) {
  TracerGuard guard;
  NinfClient client(connect());
  checkedCall(client);
  EXPECT_TRUE(client.channel().tracePropagationNegotiated());
  client.close();

  const auto spans = obs::Tracer::instance().drain();
  const auto* call = findSpan(spans, "call");
  const auto* queue_wait = findSpan(spans, "server.queue-wait");
  const auto* compute = findSpan(spans, "server.compute");
  ASSERT_NE(call, nullptr);
  ASSERT_NE(queue_wait, nullptr);
  ASSERT_NE(compute, nullptr);

  // The server-side spans joined the client's trace as children of the
  // call span: that is the propagated context, not ambient state — the
  // server recorded them on its own worker thread.
  EXPECT_NE(call->trace_id, 0u);
  EXPECT_EQ(queue_wait->trace_id, call->trace_id);
  EXPECT_EQ(compute->trace_id, call->trace_id);
  EXPECT_EQ(queue_wait->parent_id, call->span_id);
  EXPECT_EQ(compute->parent_id, call->span_id);

  // Both sides tag the same v2 call id (satellite: call_id correlation).
  EXPECT_NE(call->call_id, 0u);
  EXPECT_EQ(compute->call_id, call->call_id);
  EXPECT_EQ(queue_wait->call_id, call->call_id);
}

TEST_F(TraceWire, PropagatesThroughMetaserver) {
  TracerGuard guard;
  metaserver::Metaserver meta;
  meta.addServer({.name = "worker", .factory = [this] {
                    return std::make_unique<NinfClient>(connect());
                  }});

  const std::size_t n = 6;
  const numlib::Matrix a = numlib::randomMatrix(n, 9);
  const numlib::Matrix b = numlib::randomMatrix(n, 10);
  std::vector<double> c(n * n, -1.0);
  std::vector<ArgValue> args = {
      ArgValue::inInt(static_cast<std::int64_t>(n)),
      ArgValue::inArray(a.flat()), ArgValue::inArray(b.flat()),
      ArgValue::outArray(c)};
  meta.dispatch("dmmul", args);

  const auto spans = obs::Tracer::instance().drain();
  const auto* dispatch = findSpan(spans, "dispatch");
  const auto* call = findSpan(spans, "call");
  const auto* compute = findSpan(spans, "server.compute");
  ASSERT_NE(dispatch, nullptr);
  ASSERT_NE(call, nullptr);
  ASSERT_NE(compute, nullptr);

  // dispatch is the root; the session-layer call nests under it; the
  // server's compute span crosses the wire into the same trace, hanging
  // off the call span.
  EXPECT_EQ(dispatch->parent_id, 0u);
  EXPECT_NE(dispatch->trace_id, 0u);
  EXPECT_EQ(call->trace_id, dispatch->trace_id);
  EXPECT_EQ(compute->trace_id, dispatch->trace_id);
  EXPECT_EQ(compute->parent_id, call->span_id);
}

TEST_F(TraceWire, V1FallbackDropsContextCleanly) {
  TracerGuard guard;
  std::uint64_t client_trace = 0;
  {
    // A v1 client's call inside a traced span.
    obs::Span call(obs::phase::kCall);
    client_trace = call.traceId();
    V1Peer v1(connect());
    checkedDmmul(
        [&](std::span<const ArgValue> args) { v1.call("dmmul", args); });
    v1.close();
  }

  // The v1 wire has no header room for trace context; the call must
  // still work and the server's spans simply stay out of the client's
  // trace instead of attaching to a bogus one.
  EXPECT_NE(client_trace, 0u);
  const auto spans = obs::Tracer::instance().drain();
  ASSERT_NE(findSpan(spans, "server.compute"), nullptr);
  for (const auto* s : findSpans(spans, "server.compute")) {
    EXPECT_NE(s->trace_id, client_trace);
  }
}

TEST_F(TraceWire, UntracedNegotiationKeepsCompactFraming) {
  // Negotiate while the tracer is disabled: the client must not
  // advertise the extension, so the connection stays on 24-byte v2
  // framing even if tracing turns on later (framing is fixed per
  // connection at negotiation).
  obs::Tracer::instance().setEnabled(false);
  obs::Tracer::instance().clear();
  NinfClient client(connect());
  checkedCall(client);
  EXPECT_FALSE(client.channel().tracePropagationNegotiated());

  TracerGuard guard;  // tracing on, same connection
  checkedCall(client);
  EXPECT_FALSE(client.channel().tracePropagationNegotiated());
  client.close();

  const auto spans = obs::Tracer::instance().drain();
  const auto* call = findSpan(spans, "call");
  ASSERT_NE(call, nullptr);
  for (const auto* s : findSpans(spans, "server.compute")) {
    EXPECT_NE(s->trace_id, call->trace_id);
  }
}

TEST_F(TraceWire, ChaosNeverAttachesWrongTrace) {
  TracerGuard guard;
  FaultSpec spec;
  spec.reset = 0.15;
  spec.delay = 0.2;
  spec.delay_min_ms = 0.05;
  spec.delay_max_ms = 0.5;
  auto plan = std::make_shared<FaultPlan>(42, spec);

  NinfClient client(transport::wrapFaulty(connect(), plan));
  client.setReconnect([this, plan] {
    transport::checkConnectFault(*plan, "trace chaos server");
    return transport::wrapFaulty(connect(), plan);
  });

  CallOptions opts;
  opts.deadline_seconds = 5.0;
  opts.retries = 6;
  opts.backoff_seconds = 0.002;
  for (int round = 0; round < 20; ++round) {
    try {
      // Distinct inputs per round keep server-side computes flowing
      // (identical rounds would all be idempotent-cache hits after the
      // first); retries *within* a round stay byte-identical, so the
      // cache still sees the chaos-driven resends.
      checkedCall(client, opts, round);
    } catch (const Error&) {
      // Faults may kill a call; the invariant below still holds.
    }
  }
  client.close();

  // Attachment invariant: a server span that claims a foreign parent
  // must have that parent recorded client-side in the same trace.
  // Resets may drop the context entirely — the span then starts its own
  // trace (parent 0), which is the clean degradation (a reset during
  // Hello even falls the whole connection back to v1) — but a span must
  // never splice into someone else's trace.
  const auto spans = obs::Tracer::instance().drain();
  std::size_t attached = 0;
  for (const auto& s : spans) {
    if (s.name != "server.compute" && s.name != "server.queue-wait") {
      continue;
    }
    if (s.trace_id == 0 || s.parent_id == 0) continue;  // clean drop
    bool parent_found = false;
    for (const auto& p : spans) {
      if (p.span_id == s.parent_id) {
        EXPECT_EQ(p.trace_id, s.trace_id)
            << "span '" << s.name << "' attached across traces";
        parent_found = true;
      }
    }
    EXPECT_TRUE(parent_found)
        << "span '" << s.name << "' claims trace " << s.trace_id
        << " but its parent " << s.parent_id << " was never recorded";
    ++attached;
  }
  // The fault mix leaves most calls succeeding, so propagation must
  // actually have happened — this guards against silently losing the
  // extension under faults and passing vacuously.
  EXPECT_GT(attached, 0u);
}

TEST_F(TraceWire, MergedDumpIsValidChromeTraceJson) {
  TracerGuard guard;
  NinfClient client(connect());
  checkedCall(client);
  client.close();
  const auto spans = obs::Tracer::instance().drain();
  ASSERT_FALSE(spans.empty());

  // Split the drained spans into two pseudo-processes with epochs 1 ms
  // apart, as two TraceSession files would record them.
  std::vector<obs::ProcessTrace> inputs(2);
  inputs[0].label = "client";
  inputs[0].epoch_unix_us = 1'000'000;
  inputs[1].label = "server";
  inputs[1].epoch_unix_us = 1'001'000;
  for (const auto& s : spans) {
    const bool server_side = s.name.rfind("server.", 0) == 0;
    inputs[server_side ? 1 : 0].spans.push_back(s);
  }
  ASSERT_FALSE(inputs[0].spans.empty());
  ASSERT_FALSE(inputs[1].spans.empty());

  const std::string merged = obs::mergeChromeTraces(inputs);

  // Structurally valid Chrome trace: an object with a traceEvents array
  // whose entries all carry ph/pid/name, including one process_name
  // metadata row per input.
  const obs::json::Value root = obs::json::parse(merged);
  ASSERT_EQ(root.type, obs::json::Value::Type::Object);
  const auto* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, obs::json::Value::Type::Array);
  std::size_t meta_rows = 0;
  for (const auto& ev : events->array) {
    ASSERT_EQ(ev.type, obs::json::Value::Type::Object);
    for (const char* key : {"name", "ph", "pid"}) {
      EXPECT_NE(ev.find(key), nullptr) << "event missing \"" << key << "\"";
    }
    const auto* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") ++meta_rows;
  }
  EXPECT_EQ(meta_rows, inputs.size());

  // The span payload round-trips, with the second process's timestamps
  // shifted by the 1 ms epoch gap so the lanes align on one clock.
  const auto parsed = obs::parseChromeTrace(merged);
  ASSERT_EQ(parsed.size(), spans.size());
  const auto* before = findSpan(spans, "server.compute");
  const auto* after = findSpan(parsed, "server.compute");
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_NEAR(after->start_us, before->start_us + 1000.0, 0.5);
  EXPECT_EQ(after->trace_id, before->trace_id);
  EXPECT_EQ(after->call_id, before->call_id);
}

}  // namespace
}  // namespace ninf
