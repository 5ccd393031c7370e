// Span-based call tracer (paper, section 4.1).
//
// Every Ninf_call decomposes into the phase vocabulary of Tables 3-8:
// connect, marshal-args, send, queue-wait, compute, recv and
// unmarshal-result on the client side, with server.* ground-truth twins
// recorded by the computational server and transport-level detail spans
// (tcp.send, tcp.recv) underneath.  The simulator emits the same
// schema on its own lane (kLaneSim) in virtual time, so a real LAN run
// and its simulated counterpart are diffable with one tool
// (tools/ninf_trace_dump).
//
// Design constraints:
//  * Near-zero overhead when disabled: constructing a Span costs one
//    relaxed atomic load and a few member writes; nothing is allocated.
//  * No lost events: each thread records into its own lock-sharded
//    buffer (one mutex per thread, uncontended in steady state);
//    drain() steals from every registered buffer, including those of
//    threads that have already exited.
//  * Nesting: a thread-local (trace id, parent span) context links child
//    spans to their parent; a Span opened with no active context starts
//    a new root trace.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ninf::obs {

/// Chrome trace-event "pid" lanes used to separate real and simulated
/// executions in one trace file.
inline constexpr std::uint32_t kLaneReal = 1;
inline constexpr std::uint32_t kLaneSim = 2;

/// Canonical client-side phase names (the paper's timing decomposition).
namespace phase {
inline constexpr const char* kCall = "call";
inline constexpr const char* kConnect = "connect";
inline constexpr const char* kMarshalArgs = "marshal-args";
inline constexpr const char* kSend = "send";
inline constexpr const char* kQueueWait = "queue-wait";
inline constexpr const char* kCompute = "compute";
inline constexpr const char* kRecv = "recv";
inline constexpr const char* kUnmarshalResult = "unmarshal-result";
// Server-clock ground truth, named apart so per-phase summaries never
// double-count a call observed from both sides (in-proc runs).
inline constexpr const char* kServerQueueWait = "server.queue-wait";
inline constexpr const char* kServerCompute = "server.compute";
inline constexpr const char* kServerUnmarshalArgs = "server.unmarshal-args";
inline constexpr const char* kServerMarshalResult = "server.marshal-result";
}  // namespace phase

/// One completed span, ready for export.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::string name;             // phase vocabulary above, or free-form
  double start_us = 0.0;        // microseconds since tracer epoch
  double dur_us = 0.0;
  std::uint32_t lane = kLaneReal;  // kLaneReal | kLaneSim
  std::uint32_t tid = 0;           // recording thread (or sim client id)
  std::int64_t bytes = -1;         // payload bytes, -1 when n/a
  std::uint64_t call_id = 0;       // v2 wire call id, 0 = n/a
  std::string detail;              // free-form annotation
};

class Tracer {
 public:
  /// Opaque per-thread span store (implementation detail, public only so
  /// the registry in trace.cpp can hold shared_ptrs to it).
  struct ThreadBuffer;

  /// Process-wide tracer; never destroyed (safe from thread-exit hooks).
  static Tracer& instance();

  void setEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds on the monotonic clock since the tracer epoch.
  static double nowMicros();

  /// Wall-clock instant of the tracer epoch (Unix microseconds),
  /// captured together with the monotonic epoch.  Exported as trace
  /// metadata so multi-process traces can be aligned on merge.
  static std::int64_t epochUnixMicros();

  std::uint64_t newTraceId() {
    return next_trace_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t newSpanId() {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Small dense id of the calling thread (stable for its lifetime).
  static std::uint32_t threadId();

  /// Append a finished span to the calling thread's buffer.
  void record(SpanRecord rec);

  /// Move every recorded span out of every thread buffer (including
  /// buffers of threads that already exited), sorted by start time.
  std::vector<SpanRecord> drain();

  /// Discard everything recorded so far.
  void clear();

 private:
  /// Seeds the id counters with a per-process random base so traces from
  /// different processes never collide when merged.  Bases stay below
  /// 2^52 (ids < 2^53) so they survive a double-precision JSON round
  /// trip exactly.
  Tracer();
  ThreadBuffer& localBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_trace_;
  std::atomic<std::uint64_t> next_span_;
};

/// Ambient per-thread trace context: which trace/span new spans nest
/// under.  Exposed so derived spans (e.g. server-clock reconstructions)
/// can be attached manually.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

TraceContext currentContext();

/// RAII adoption of a propagated trace context (e.g. one received in a
/// traced v2 frame header): installs `ctx` as the ambient context so
/// spans opened in scope become its children, and restores the previous
/// ambient context on destruction.  A zero trace_id installs nothing —
/// spans keep their local behavior.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
  bool installed_ = false;
};

/// RAII span: measures construction-to-destruction on the monotonic
/// clock and records itself on destruction.  Inert (and nearly free)
/// while the tracer is disabled.
class Span {
 public:
  explicit Span(const char* name, std::int64_t bytes = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// False when tracing was disabled at construction.
  bool active() const { return active_; }
  std::uint64_t id() const { return span_id_; }
  std::uint64_t traceId() const { return trace_id_; }

  void setBytes(std::int64_t bytes) { bytes_ = bytes; }
  void setDetail(std::string detail) { detail_ = std::move(detail); }
  /// Correlate this span with a v2 wire call id (satellite annotation).
  void setCallId(std::uint64_t call_id) { call_id_ = call_id; }

 private:
  const char* name_;
  std::int64_t bytes_;
  bool active_ = false;
  bool root_ = false;
  double start_us_ = 0.0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint64_t call_id_ = 0;
  std::string detail_;
};

/// Record a span with externally supplied timestamps (server-clock
/// reconstructions, simulator virtual time).  No-op while disabled.
void emitSpan(SpanRecord rec);

}  // namespace ninf::obs
