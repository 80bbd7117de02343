#ifndef ANC_SERVE_INGEST_QUEUE_H_
#define ANC_SERVE_INGEST_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

#include "activation/activeness.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/sync.h"

namespace anc::serve {

/// Activations a writer drains per wakeup, and the default queue bound: a
/// deeper queue adds only waiting (docs/serving.md, "Knobs").
inline constexpr size_t kWriterBatch = 256;

struct IngestOptions {
  /// A full queue blocks the producer until the writer drains a slot, so
  /// every accepted activation is applied.
  size_t capacity = kWriterBatch;
  /// Activation timestamps must be non-decreasing across *all* producers
  /// (the index's stream contract). With multiple wall-clock producers,
  /// small inversions at the ingest boundary are expected; true clamps an
  /// out-of-order timestamp up to the last accepted one instead of
  /// skipping the entry as rejected.
  bool clamp_out_of_order = false;
};

/// Bounded multi-producer single-consumer activation queue with blocking
/// backpressure and durability tickets (docs/serving.md).
///
/// Producers call PushBatch from any thread; each accepted activation is
/// assigned a monotonically increasing *ticket* (1-based). The single
/// writer drains with PopBatch, which also reports the highest ticket
/// resolved — i.e. handed to the writer. Because the queue is FIFO,
/// tickets resolve in order, so "resolved up to s" means every ticket
/// <= s has left the queue.
class IngestQueue {
 public:
  /// `registry` (optional) receives anc.serve.ingest_* metrics; it must
  /// outlive the queue.
  explicit IngestQueue(IngestOptions options,
                       obs::MetricsRegistry* registry = nullptr);

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Producer side (any thread): enqueues `count` activations under one
  /// lock acquisition with one consumer wakeup — per-push mutex and futex
  /// costs dominate fan-out producers (shard routers) that otherwise beat
  /// the queue with many tiny pushes. A regressed timestamp is clamped or
  /// (clamp off) skipped and counted in rejected(); a full queue blocks
  /// inside the batch until the writer drains a slot. Returns the number
  /// accepted; *last_seq (when non-null) receives the last ticket issued
  /// (untouched if none). Fails FailedPrecondition only when the queue was
  /// closed before any entry was accepted; a mid-batch Close returns the
  /// accepted prefix. `traces` (optional) is an array of `count` per-entry
  /// trace contexts aligned with `data` (fan-out batches mix requests, so
  /// one context per batch would mis-attribute spans); each rides along to
  /// PopBatch, correlating the queue-wait/apply/publish spans of a traced
  /// request (docs/observability.md).
  Result<size_t> PushBatch(const Activation* data, size_t count,
                           uint64_t* last_seq = nullptr,
                           const obs::TraceContext* traces = nullptr);

  /// Per-entry metadata PopBatch hands to the writer alongside the
  /// activations: the producer's trace context and the enqueue time (the
  /// writer emits queue-wait spans from it, with the shard ordinal only it
  /// knows).
  struct Popped {
    obs::TraceContext trace;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  /// Consumer side (single thread): moves up to `max_batch` activations
  /// into *out (appended), waiting up to `wait` for the first one. Returns
  /// the number popped; *resolved_seq (when non-null) receives the highest
  /// ticket resolved so far, which only grows. *info (when non-null)
  /// receives one Popped per appended activation.
  size_t PopBatch(std::vector<Activation>* out, size_t max_batch,
                  std::chrono::microseconds wait,
                  uint64_t* resolved_seq = nullptr,
                  std::vector<Popped>* info = nullptr);

  /// Closes the queue: subsequent pushes fail FailedPrecondition, blocked
  /// producers wake with that status, and PopBatch keeps draining what
  /// remains (then returns 0 immediately).
  void Close();

  bool closed() const;
  size_t Depth() const;
  uint64_t accepted() const;  ///< tickets issued
  uint64_t rejected() const;  ///< regressed timestamps skipped (clamp off)
  double last_accepted_time() const;

  /// Deepest the queue has ever been (also the
  /// anc.serve.ingest_high_watermark gauge) — how close producers came to
  /// blocking on a full queue.
  size_t high_watermark() const;

  /// The bound a producer blocks at (IngestOptions::capacity, at least 1).
  size_t capacity() const { return options_.capacity; }

  /// Age of the oldest queued entry (0 when empty) — the ingest-side
  /// staleness bound: everything published lags live time by at least
  /// this much. Gauge anc.serve.ingest_oldest_age_us tracks it at the
  /// last push/pop.
  double OldestAgeSeconds() const;

 private:
  struct Entry {
    Activation activation;
    uint64_t seq;
    std::chrono::steady_clock::time_point enqueued_at;
    obs::TraceContext trace;
  };

  /// Refreshes the oldest-entry-age gauge from the current head (0 when
  /// empty).
  void SetOldestGaugeLocked(std::chrono::steady_clock::time_point now)
      ANC_REQUIRES(mutex_);

  IngestOptions options_;
  mutable util::Mutex mutex_;
  util::CondVar not_empty_;
  util::CondVar not_full_;
  std::deque<Entry> entries_ ANC_GUARDED_BY(mutex_);
  bool closed_ ANC_GUARDED_BY(mutex_) = false;
  uint64_t next_seq_ ANC_GUARDED_BY(mutex_) = 1;
  uint64_t resolved_seq_ ANC_GUARDED_BY(mutex_) = 0;
  uint64_t accepted_ ANC_GUARDED_BY(mutex_) = 0;
  uint64_t rejected_ ANC_GUARDED_BY(mutex_) = 0;
  double last_accepted_time_ ANC_GUARDED_BY(mutex_) = 0.0;
  size_t high_watermark_ ANC_GUARDED_BY(mutex_) = 0;

  obs::MetricsRegistry* metrics_;
  obs::CounterId accepted_id_;
  obs::CounterId rejected_id_;
  obs::GaugeId depth_id_;
  obs::GaugeId high_watermark_id_;
  obs::GaugeId oldest_age_us_id_;
  obs::HistogramId queue_wait_us_;
};

}  // namespace anc::serve

#endif  // ANC_SERVE_INGEST_QUEUE_H_
