#ifndef ANC_SERVE_SERVER_H_
#define ANC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "activation/stream_io.h"
#include "core/anc.h"
#include "obs/metrics.h"
#include "serve/cluster_view.h"
#include "serve/ingest_queue.h"
#include "util/status.h"
#include "util/sync.h"

namespace anc::store {
class DurableStore;
}  // namespace anc::store

namespace anc::tier {
class TieredStore;
}  // namespace anc::tier

namespace anc::serve {

/// When an accepted activation becomes durable (docs/durability.md).
enum class DurabilityPolicy {
  /// No WAL: state lives only in memory (the pre-durability behavior).
  kNone,
  /// The writer appends every drained batch to the WAL before applying it;
  /// fsync cadence is ruled by the store's group-commit threshold and
  /// flush interval. Bounded loss (at most one flush interval) for
  /// near-zero ingest overhead.
  kAsync,
  /// kAsync plus one Sync per drained batch: the batch is the commit
  /// group, so FlushDurable resolves as soon as the queue drains.
  kGroupCommit,
};

/// Serving-layer configuration (docs/serving.md).
struct ServeOptions {
  IngestOptions ingest;

  /// Durability (docs/durability.md): with a policy other than kNone, the
  /// engine must be given a DurableStore opened on its index (see the
  /// AncServer constructor). The writer write-ahead-logs every drained
  /// batch before applying it.
  DurabilityPolicy durability = DurabilityPolicy::kNone;

  /// > 0: the writer rotates a checkpoint automatically after this many
  /// applied activations (on top of explicit RequestCheckpoint calls).
  uint64_t checkpoint_every_applied = 0;

  /// Writer batch coalescing: up to this many queued activations are
  /// drained and applied per wakeup, amortizing snapshot publication (and
  /// letting the similarity layer's batched rescale amortize per Lemma 1).
  size_t max_batch = 256;

  /// Staleness bounds: a fresh view is published after at most this many
  /// applied activations ...
  uint64_t snapshot_every_activations = 64;
  /// ... and at most this much wall time after an unpublished apply.
  double snapshot_max_age_s = 0.010;

  /// Idle wakeup granularity of the writer (bounds publication delay when
  /// the stream pauses mid-interval).
  std::chrono::microseconds idle_wait{1000};

  /// Shard ordinal stamped onto this server's trace spans (the `shard`
  /// field), so a sharded deployment's interleaved spans attribute to the
  /// right replica. < 0 omits the field.
  int shard_ordinal = -1;
};

/// The per-shard serving engine of shard::ShardedServer (the only public
/// server, docs/sharding.md): a batched single-writer ingest pipeline over
/// one AncIndex plus epoch-published immutable snapshots for readers
/// (docs/serving.md).
///
///   router --SubmitBatch--> [bounded MPSC IngestQueue] --PopBatch-->
///     writer thread: AncIndex::ApplyBatch --> publish ClusterView
///       (shared_ptr swap under a micro-lock, epoch++) --> waiters notified
///   readers  --View()--> snapshot
///
/// Threading contract:
///  - SubmitBatch: any thread.
///  - View / watermark / AwaitSeq / Stats: any thread; acquiring the
///    snapshot is one shared_ptr copy under a mutex held for only that
///    copy, and the query then runs entirely against the immutable
///    snapshot with no further synchronization.
///  - The underlying AncIndex is mutated *only* by the writer thread
///    between Start() and Stop(); callers must not touch it directly
///    while the server is running (quiesce with Stop() first).
///
/// Watermark semantics are linearizable: when AwaitSeq(s) returns OK,
/// every later View() includes all activations with ticket <= s. Under
/// kDropOldest, evicted activations resolve the watermark without being
/// applied — bounded loss in exchange for liveness, visible in Stats() as
/// anc.serve.ingest_dropped.
class AncServer {
 public:
  /// `index` must outlive the server and be quiescent (no concurrent use)
  /// while the server runs. Serve metrics are recorded into the index's
  /// own registry, so AncIndex::Stats() covers the whole stack.
  ///
  /// `store` (required when options.durability != kNone) is a
  /// DurableStore opened on `index`. `tier` (optional) is the TieredStore
  /// the index's columns are attached to: the writer calls
  /// tier->Maintain() at quiescent points (post-batch and on idle wakeups)
  /// to demote cold pages and service compactions, and
  /// tier->OnCheckpointInstalled() after every successful checkpoint so
  /// newly referenced segments become durable roots (docs/storage_tiers.md).
  /// Both must outlive the server.
  AncServer(AncIndex* index, ServeOptions options,
            store::DurableStore* store = nullptr,
            tier::TieredStore* tier = nullptr);
  ~AncServer();

  AncServer(const AncServer&) = delete;
  AncServer& operator=(const AncServer&) = delete;

  /// Publishes the initial view (epoch 1) and starts the writer thread.
  Status Start();

  /// Closes ingest, drains the queue, publishes the final view and joins
  /// the writer. Idempotent. After Stop() the index is quiescent again.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- Producer side ------------------------------------------------------

  /// Enqueues `count` activations under one queue lock and one writer
  /// wakeup (IngestQueue::PushBatch) — the hand-off from
  /// shard::ShardedServer's router. Validates every edge up front
  /// (InvalidArgument, nothing enqueued, on any out-of-range edge), then
  /// returns the number the queue accepted and the last ticket issued via
  /// *last_seq (optional); per-entry queue rejections (kReject, regressed
  /// timestamps with clamping off) are skipped, not errors. `traces`
  /// (optional) carries one trace context per entry, aligned with `data`
  /// — batch submitters own their trace identity, so no auto-minting here.
  Result<size_t> SubmitBatch(const Activation* data, size_t count,
                             uint64_t* last_seq = nullptr,
                             const obs::TraceContext* traces = nullptr);

  /// Blocks until every activation accepted before the call is reflected
  /// in the published view (or `timeout` elapses -> Unavailable).
  Status Flush(std::chrono::milliseconds timeout = std::chrono::minutes(1));

  // --- Watermark / durability --------------------------------------------

  /// The published watermark: every activation with ticket <= seq (time
  /// <= time) is reflected in View().
  Watermark watermark() const;

  /// Blocks until the published watermark covers ticket `seq`.
  Status AwaitSeq(uint64_t seq, std::chrono::milliseconds timeout);

  /// The durable watermark: every activation with ticket <= seq is covered
  /// by an fsynced WAL record (or a checkpoint), so crash recovery
  /// reproduces it. Zero-valued under DurabilityPolicy::kNone.
  Watermark durable_watermark() const;

  /// Blocks until the durable watermark covers ticket `seq`. Fails
  /// FailedPrecondition without a configured store, Unavailable on
  /// timeout. Note: under kDropOldest, tickets evicted at the queue tail
  /// are never appended, so awaiting them stalls until the timeout.
  Status AwaitDurableSeq(uint64_t seq, std::chrono::milliseconds timeout);

  /// Flush + fsync: blocks until every activation accepted before the
  /// call is both applied AND durable. When this returns OK, recovery
  /// from the store directory reproduces a state covering all of them —
  /// it never reports a ticket recovery cannot reproduce (a simulated or
  /// real WAL failure surfaces here as Unavailable).
  Status FlushDurable(
      std::chrono::milliseconds timeout = std::chrono::minutes(1));

  /// Asks the writer to rotate a checkpoint at its next quiescent point
  /// (between batches, where the resolved watermark exactly describes the
  /// applied state) and blocks until it completes; returns the checkpoint
  /// status. FailedPrecondition without a store or when not running —
  /// checkpoint through the store directly when quiesced.
  Status RequestCheckpoint(
      std::chrono::milliseconds timeout = std::chrono::minutes(1));

  /// First error the writer (or a flush) hit talking to the durable store
  /// (OK if none, and always OK under kNone). Store errors do not stop
  /// live serving; they freeze the durable watermark.
  Status store_status() const;

  // --- Quiescent-point execution -------------------------------------------

  /// Context handed to a RunQuiesced callback (writer thread, between
  /// batches: the index is quiescent and `watermark` exactly describes the
  /// applied state).
  struct QuiescedContext {
    /// The resolved watermark at this quiescent point.
    Watermark watermark;
    /// Rebuilds and publishes a fresh view (epoch++) at `watermark`. Call
    /// this after mutating the index by other means than the ingest path
    /// (e.g. a live-migration import applied directly to the index) so
    /// readers observe the mutation; without it the published view keeps
    /// describing the pre-callback state.
    std::function<void()> republish;
  };

  /// Runs `fn` on the writer thread at its next quiescent point (between
  /// batches, same point checkpoints rotate at) and blocks until it
  /// completes. While `fn` runs, no Apply is in flight and none starts, so
  /// the callback may mutate the index directly — the mechanism live shard
  /// migration uses to import moved vertices and atomically republish.
  /// Callbacks queue FIFO across callers. FailedPrecondition when the
  /// server is not running; Unavailable when the server stops (or `timeout`
  /// elapses) before the callback ran — the callback is then never invoked.
  Status RunQuiesced(
      std::function<void(const QuiescedContext&)> fn,
      std::chrono::milliseconds timeout = std::chrono::minutes(1));

  // --- Reader side --------------------------------------------------------

  /// The current published snapshot: one atomic load, never null between
  /// Start() and destruction. Hold the shared_ptr for as long as the
  /// query runs; the writer publishing newer epochs never invalidates it.
  std::shared_ptr<const ClusterView> View() const;

  // --- Introspection ------------------------------------------------------

  size_t IngestDepth() const { return queue_.Depth(); }
  uint64_t accepted() const { return queue_.accepted(); }
  uint64_t dropped() const { return queue_.dropped(); }
  uint64_t rejected() const { return queue_.rejected(); }
  /// Deepest the ingest queue has ever been (capacity headroom).
  size_t IngestHighWatermark() const { return queue_.high_watermark(); }
  /// Age of the oldest queued activation (0 when drained) — the ingest-side
  /// staleness bound the health monitor folds into its scorecards.
  double IngestOldestAgeSeconds() const { return queue_.OldestAgeSeconds(); }

  /// First error the writer hit applying an activation (OK if none).
  /// Failed applies are counted (anc.serve.apply_errors) and skipped.
  Status writer_status() const;

  /// Full metric snapshot (the index's registry: anc.apply.*, anc.index.*,
  /// anc.serve.*, anc.store.*, anc.pool.*, ...).
  obs::StatsSnapshot Stats() const { return index_->Stats(); }

  /// Folds a stream loader's report into the serve metrics
  /// (anc.serve.load_lines / load_skipped), so lines skipped while loading
  /// a file for submission are visible in Stats() instead of vanishing.
  void RecordLoadReport(const StreamLoadReport& report);

 private:
  void WriterLoop();
  /// Builds and publishes a view at the given watermark (writer thread
  /// only). In ANC_CHECK_INVARIANTS builds, validates the index at this
  /// quiescent point first — a view is never built from a state that
  /// fails the Lemma 4-13 validators.
  void Publish(Watermark watermark);

  /// Called by the store (append/flusher thread) when an fsync advances
  /// the durable mark; advances durable_ monotonically and wakes waiters.
  void OnDurable(uint64_t seq, double time);
  /// Records a store failure: first error sticks, anc.serve.wal_errors++.
  void RecordStoreError(const Status& status);
  /// Writer thread only: rotates a checkpoint at the current quiescent
  /// point and resolves any pending RequestCheckpoint waiters.
  void ServiceCheckpoint(uint64_t seq, double time);
  /// Writer thread only: drains queued RunQuiesced callbacks (FIFO) at the
  /// current quiescent point and resolves their waiters.
  void ServiceQuiesced(uint64_t seq, double time);

  AncIndex* index_;
  ServeOptions options_;
  IngestQueue queue_;
  store::DurableStore* const store_;  // null or the constructor's store
  tier::TieredStore* const tier_;

  std::thread writer_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  // Set by the writer after its final publish: no further watermark
  // advances are possible, so waiters can stop waiting.
  std::atomic<bool> writer_done_{false};

  // Current snapshot. Guarded by view_mutex_, which is held only for the
  // duration of one shared_ptr copy/swap — never while building a view or
  // answering a query. (libstdc++'s std::atomic<std::shared_ptr> unlocks
  // its reader path with memory_order_relaxed, which leaves load/store of
  // the embedded raw pointer formally racy — ThreadSanitizer flags it —
  // so publication uses this micro-critical-section instead.)
  mutable util::Mutex view_mutex_;
  std::shared_ptr<const ClusterView> view_ ANC_GUARDED_BY(view_mutex_);
  uint64_t epoch_ = 0;  // writer thread (and Start) only

  // Published-watermark waiters.
  mutable util::Mutex watermark_mutex_;
  util::CondVar watermark_cv_;
  Watermark published_ ANC_GUARDED_BY(watermark_mutex_);

  mutable util::Mutex writer_status_mutex_;
  Status writer_status_ ANC_GUARDED_BY(writer_status_mutex_);

  // Durable-watermark waiters (mirrors the published-watermark pair).
  mutable util::Mutex durable_mutex_;
  util::CondVar durable_cv_;
  Watermark durable_ ANC_GUARDED_BY(durable_mutex_);

  mutable util::Mutex store_status_mutex_;
  Status store_status_ ANC_GUARDED_BY(store_status_mutex_);

  // RequestCheckpoint handshake with the writer thread.
  std::atomic<bool> checkpoint_requested_{false};
  util::Mutex checkpoint_mutex_;
  util::CondVar checkpoint_cv_;
  uint64_t checkpoints_done_ ANC_GUARDED_BY(checkpoint_mutex_) = 0;
  Status last_checkpoint_status_ ANC_GUARDED_BY(checkpoint_mutex_);

  // RunQuiesced handshake (mirrors the checkpoint one, but carries a FIFO
  // of callbacks; each caller waits for its own ticket). A caller that
  // gives up (timeout / server stop) flips its ticket's `cancelled` flag,
  // so a later quiescent point can never run a callback whose owner
  // already returned Unavailable.
  struct QuiesceTicket {
    uint64_t id = 0;
    std::function<void(const QuiescedContext&)> fn;
    std::shared_ptr<std::atomic<bool>> cancelled;
  };
  std::atomic<bool> quiesce_requested_{false};
  util::Mutex quiesce_mutex_;
  util::CondVar quiesce_cv_;
  uint64_t quiesce_issued_ ANC_GUARDED_BY(quiesce_mutex_) = 0;
  uint64_t quiesce_done_ ANC_GUARDED_BY(quiesce_mutex_) = 0;
  /// Ticket id the writer is executing right now (0 when none): a caller
  /// whose timeout fires mid-execution must keep waiting — "ran" vs "never
  /// ran" has to be decided truthfully.
  uint64_t quiesce_running_ ANC_GUARDED_BY(quiesce_mutex_) = 0;
  std::vector<QuiesceTicket> quiesce_callbacks_ ANC_GUARDED_BY(quiesce_mutex_);

  struct Metrics {
    obs::CounterId epochs;
    obs::CounterId applied;
    obs::CounterId apply_errors;
    obs::CounterId batches;
    obs::HistogramId batch_size;
    obs::HistogramId snapshot_build_us;
    obs::GaugeId watermark_seq;
    obs::GaugeId publish_lag;
    obs::CounterId wal_errors;
    obs::CounterId load_lines;
    obs::CounterId load_skipped;
  } m_;
};

}  // namespace anc::serve

#endif  // ANC_SERVE_SERVER_H_
