#include "obs/trace.h"

#include <atomic>
#include <vector>

#include "obs/json.h"

namespace anc::obs {

namespace {

std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<uint64_t> g_next_sink_uid{1};

/// Per-(thread, sink) nesting depth, keyed by sink uid. Entries for
/// destroyed sinks are never matched again (uids are never reused) and the
/// vector stays tiny — one entry per sink the thread has ever traced into
/// (same idiom as the metrics registry's thread-local shard cache).
struct TlsDepth {
  uint64_t uid;
  int depth;
};
thread_local std::vector<TlsDepth> t_span_depths;

int* DepthSlot(uint64_t uid) {
  for (TlsDepth& entry : t_span_depths) {
    if (entry.uid == uid) return &entry.depth;
  }
  t_span_depths.push_back({uid, 0});
  return &t_span_depths.back().depth;
}

Json SpanToJson(const SpanEvent& span, int tid) {
  Json event = Json::Object();
  event.Set("name", Json::Str(span.name));
  event.Set("ts_us", Json::Number(span.ts_us));
  event.Set("dur_us", Json::Number(span.dur_us));
  event.Set("depth", Json::Number(span.depth));
  event.Set("tid", Json::Number(tid));
  if (span.trace_id != 0) {
    event.Set("trace", Json::Number(static_cast<double>(span.trace_id)));
  }
  if (span.parent_span != 0) {
    event.Set("parent", Json::Number(static_cast<double>(span.parent_span)));
  }
  if (span.shard >= 0) event.Set("shard", Json::Number(span.shard));
  if (span.seq != 0) {
    event.Set("seq", Json::Number(static_cast<double>(span.seq)));
  }
  return event;
}

}  // namespace

TraceContext TraceContext::NewTrace() {
  return TraceContext{g_next_trace_id.fetch_add(1, std::memory_order_relaxed),
                      0};
}

int TraceSink::ThreadOrdinal() {
  static std::atomic<int> next{0};
  thread_local const int ordinal = next.fetch_add(1);
  return ordinal;
}

TraceSink::TraceSink(const std::string& path)
    : uid_(g_next_sink_uid.fetch_add(1)),
      file_(path),
      out_(file_.is_open() ? &file_ : nullptr),
      epoch_(std::chrono::steady_clock::now()) {}

TraceSink::TraceSink(std::ostream* out)
    : uid_(g_next_sink_uid.fetch_add(1)),
      out_(out),
      epoch_(std::chrono::steady_clock::now()) {}

void TraceSink::EmitSpan(const SpanEvent& span) {
  if (out_ == nullptr) return;
  const std::string line = SpanToJson(span, ThreadOrdinal()).Dump(0);
  util::MutexLock lock(mutex_);
  (*out_) << line << '\n';
}

void TraceSink::EnterSpan(uint64_t sink_uid) { ++*DepthSlot(sink_uid); }

int TraceSink::ExitSpan(uint64_t sink_uid) { return --*DepthSlot(sink_uid); }

}  // namespace anc::obs
