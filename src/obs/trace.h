#ifndef ANC_OBS_TRACE_H_
#define ANC_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>

#include "util/sync.h"

namespace anc::obs {

/// Request-scoped trace identity (docs/observability.md). A TraceContext is
/// minted where a request enters the system (Submit on a server, a merged
/// query on a ShardedServer), stamped onto the ingest entries / fan-out
/// deliveries it produces, and carried to every span the request touches —
/// queue-wait, apply, publish, per-shard gather — so one `trace` id
/// correlates the whole path across threads and shards.
///
/// trace_id == 0 means "untraced": spans emitted under an inactive context
/// simply omit the trace field. parent_span carries the caller's span id
/// when a context crosses a process or component boundary (0 = root).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;

  bool active() const { return trace_id != 0; }

  /// Mints a process-unique root context (non-zero trace id).
  static TraceContext NewTrace();
};

/// One completed span, ready for emission. `shard` < 0 and `seq` == 0 /
/// `trace_id` == 0 mean "field absent" — the JSONL line omits them.
struct SpanEvent {
  const char* name = "";
  double ts_us = 0.0;
  double dur_us = 0.0;
  int depth = 0;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  int shard = -1;
  uint64_t seq = 0;
};

/// Structured trace sink: a JSONL stream of completed span events, one
/// object per line:
///
///   {"name":"apply","ts_us":123.4,"dur_us":56.7,"depth":0,"tid":1,
///    "trace":9,"shard":2,"seq":41}
///
/// `ts_us` is the span's start relative to the sink's construction (steady
/// clock), `dur_us` its duration, `depth` the nesting level on the emitting
/// thread (0 = top-level) and `tid` a small per-process thread ordinal.
/// `trace`, `parent`, `shard` and `seq` appear only when the span carries
/// them (see SpanEvent). Spans are written on completion, so a parent span
/// appears *after* its children; readers reconstruct nesting from
/// (tid, ts_us, depth) — `examples/trace_check.cpp` does exactly that.
///
/// Emission is mutex-serialized — tracing is a debugging/bench facility,
/// not a hot-path default; the metrics fast path stays lock-free and pays
/// only an atomic sink-pointer load when no sink is attached.
class TraceSink {
 public:
  /// File-backed sink; ok() reports whether the file opened.
  explicit TraceSink(const std::string& path);

  /// Stream-backed sink (caller keeps the stream alive; tests use
  /// std::ostringstream). A null stream makes a sink that is not ok() and
  /// drops every span.
  explicit TraceSink(std::ostream* out);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  bool ok() const { return out_ != nullptr && out_->good(); }

  /// Never-reused per-sink id; keys the per-(thread, sink) span-depth
  /// bookkeeping below.
  uint64_t uid() const { return uid_; }

  /// Writes one completed span event. Thread-safe.
  void EmitSpan(const SpanEvent& span);
  void EmitSpan(const char* name, double ts_us, double dur_us, int depth) {
    EmitSpan(SpanEvent{name, ts_us, dur_us, depth});
  }

  /// Per-(thread, sink) span nesting bookkeeping used by ScopedTimer and
  /// TraceSpan: EnterSpan pushes a level on the calling thread for the
  /// sink with the given uid, ExitSpan pops and returns the popped span's
  /// depth. Keyed by uid — never dereferences the sink — so a timer can
  /// balance its Exit even after the sink was detached and destroyed.
  /// Depth is per-sink: two live sinks (say a server trace and a bench
  /// trace) each see their own nesting.
  static void EnterSpan(uint64_t sink_uid);
  static int ExitSpan(uint64_t sink_uid);

  /// Microseconds between the sink's epoch and `tp`.
  double TsMicros(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration<double, std::micro>(tp - epoch_).count();
  }

  /// Small per-process ordinal of the calling thread (the `tid` field).
  static int ThreadOrdinal();

 private:
  const uint64_t uid_;
  util::Mutex mutex_;
  /// file_ and out_ are set once in the constructor and never reseated;
  /// mutex_ serializes *writes through* the stream (EmitSpan),
  /// while ok()'s pointer read needs no lock.
  std::ofstream file_;
  std::ostream* out_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII manual span: enters a nesting level on construction and emits one
/// SpanEvent (with the given trace context / shard / seq) on destruction.
/// A null sink disables the span entirely (no clock reads). Unlike
/// ScopedTimer it does not record a histogram — use it for spans whose
/// latency is already captured elsewhere or is purely structural. The sink
/// must outlive the span.
class TraceSpan {
 public:
  TraceSpan(TraceSink* sink, const char* name, TraceContext trace = {},
            int shard = -1, uint64_t seq = 0)
      : sink_(sink), name_(name), trace_(trace), shard_(shard), seq_(seq) {
    if (sink_ == nullptr) return;
    TraceSink::EnterSpan(sink_->uid());
    start_ = std::chrono::steady_clock::now();
  }

  ~TraceSpan() {
    if (sink_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    SpanEvent span;
    span.name = name_;
    span.ts_us = sink_->TsMicros(start_);
    span.dur_us =
        std::chrono::duration<double, std::micro>(end - start_).count();
    span.depth = TraceSink::ExitSpan(sink_->uid());
    span.trace_id = trace_.trace_id;
    span.parent_span = trace_.parent_span;
    span.shard = shard_;
    span.seq = seq_;
    sink_->EmitSpan(span);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceSink* sink_;
  const char* name_;
  TraceContext trace_;
  int shard_;
  uint64_t seq_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace anc::obs

#endif  // ANC_OBS_TRACE_H_
