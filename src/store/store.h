#ifndef ANC_STORE_STORE_H_
#define ANC_STORE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/anc.h"
#include "core/serialization.h"
#include "obs/metrics.h"
#include "store/wal.h"
#include "util/status.h"
#include "util/sync.h"

namespace anc::check {
class TestHooks;
}  // namespace anc::check

namespace anc::store {

/// Durability knobs (docs/durability.md "Policy knobs").
struct StoreOptions {
  /// When set, WriteCheckpoint delegates snapshot serialization to this
  /// hook instead of SaveIndex — the tiering subsystem plugs in
  /// tier::TieredStore::CheckpointWriter() here so checkpoint page tables
  /// reference sealed segments instead of holding every page inline
  /// (docs/storage_tiers.md). The hook writes `path` without fsync; the
  /// store owns temp-file/fsync/rename.
  std::function<Status(const AncIndex&, const std::string& path)>
      checkpoint_writer;
  /// Keep sealed WAL segments across serving-time checkpoints instead of
  /// garbage-collecting them. Live shard migration reads the session's
  /// full delivery history back to ticket 1 (the WAL-tail sidecar), so
  /// sharded serving forces this on its shard stores. The Open-time
  /// checkpoint still clears prior-session segments — their ticket
  /// numbering restarted — so retention is bounded by one serving session.
  bool retain_wal_history = false;
};

/// Point-in-time store health for store-stats / bench reporting.
struct StoreStats {
  uint64_t generation = 0;     ///< manifest generation
  Mark appended;               ///< highest ticket accepted into the WAL
  Mark durable;                ///< highest ticket covered by an fsync
  uint64_t wal_segments = 0;   ///< live segments (current one included)
  uint64_t wal_bytes = 0;      ///< flushed bytes across live segments
  uint64_t records = 0;        ///< records appended over this store's life
  uint64_t syncs = 0;          ///< fsyncs issued
  uint64_t checkpoints = 0;    ///< checkpoints written over this store's life
  std::string checkpoint_file; ///< current manifest's checkpoint
};

/// The durability subsystem (docs/durability.md): an append-only WAL of
/// activation batches plus rotated SaveIndex checkpoints under a small
/// manifest, living in one directory:
///
///   MANIFEST                    current generation (atomic swap)
///   ckpt-<gen>-<seq>.idx        SaveIndex snapshot covering tickets <= seq
///   wal-<base_seq>.log          activation batches with seq > ckpt seq
///
/// Because ANC's state is a pure function of (snapshot, replayed
/// activations) — Definition 1, proven live by the PR-2 differential
/// oracle — (newest checkpoint) + (WAL tail replayed through
/// AncIndex::Apply) reconstructs the index exactly; see Recover().
///
/// Threading: all operations are serialized on an internal mutex, so the
/// serve writer and a FlushDurable caller can share a store. The durable
/// callback fires outside the lock after every fsync that advanced the
/// durable mark.
class DurableStore {
 public:
  /// Opens (creating if necessary) the store directory and writes a fresh
  /// checkpoint of `index` at `start` as the recovery base, then opens a
  /// new WAL segment for tickets > start.seq. Pass a brand-new index with
  /// start = {0, 0} to create a store, or the output of Recover() to
  /// continue one (the fresh checkpoint collapses the replayed WAL).
  /// `index` is only read during Open/WriteCheckpoint; `metrics` (optional)
  /// receives anc.store.* instrumentation and must outlive the store.
  static Result<std::unique_ptr<DurableStore>> Open(
      const std::string& dir, const AncIndex& index, Mark start,
      StoreOptions options = {}, obs::MetricsRegistry* metrics = nullptr);

  ~DurableStore();  // syncs and closes the WAL

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Appends one batch covering tickets [first_seq, first_seq + size) to
  /// the WAL (write-ahead: call before applying the batch). Nothing is
  /// durable until the next Sync; Append fsyncs only to seal a full
  /// segment before rotating to a fresh one. Errors are sticky for
  /// simulated crashes: after a TestHooks crash fires every call returns
  /// Unavailable.
  Status Append(const std::vector<Activation>& batch, uint64_t first_seq);

  /// Forces everything appended so far onto disk — the store's commit
  /// boundary. Advances the durable mark and fires the durable callback;
  /// a Sync with nothing new to commit issues no fsync.
  Status Sync();

  /// Checkpoint rotation: syncs the WAL, writes `index` via SaveIndex to a
  /// temp file and atomically renames it in, rotates to a fresh WAL
  /// segment, swaps the manifest to the new generation, then deletes the
  /// obsolete segments and checkpoints. `at` must describe exactly the
  /// applied state of `index` (the serve writer's resolved watermark).
  Status WriteCheckpoint(const AncIndex& index, Mark at);

  /// Registers a callback invoked (outside the store lock) whenever an
  /// fsync advances the durable mark — the serve layer resolves durable
  /// tickets with it. Set before concurrent use.
  void SetDurableCallback(std::function<void(Mark)> callback);

  Mark appended() const;
  Mark durable() const;
  uint64_t generation() const;
  StoreStats Stats() const;
  const std::string& dir() const { return dir_; }
  const StoreOptions& options() const { return options_; }

 private:
  DurableStore(std::string dir, StoreOptions options,
               obs::MetricsRegistry* metrics);

  Status AppendLocked(const std::vector<Activation>& batch,
                      uint64_t first_seq) ANC_REQUIRES(mutex_);
  Status SyncLocked() ANC_REQUIRES(mutex_);  // returns after advancing durable_
  Status RotateSegmentLocked(uint64_t base_seq) ANC_REQUIRES(mutex_);
  Status WriteManifestLocked(const std::string& checkpoint_file, Mark at)
      ANC_REQUIRES(mutex_);
  /// Fires the durable callback. Must run outside mutex_: the callback may
  /// re-enter store accessors (ANC_EXCLUDES makes Clang TSA reject callers
  /// that still hold the store lock).
  void NotifyDurable(Mark mark) ANC_EXCLUDES(mutex_);

  friend class ::anc::check::TestHooks;

  /// WAL segment rotation threshold: once the current segment holds this
  /// many bytes, the next append opens a fresh segment.
  static constexpr uint64_t kSegmentBytes = uint64_t{64} << 20;

  const std::string dir_;
  StoreOptions options_;

  mutable util::Mutex mutex_;
  /// kSegmentBytes, unless a test hook lowered it.
  uint64_t segment_bytes_ ANC_GUARDED_BY(mutex_) = kSegmentBytes;
  std::unique_ptr<WalAppender> wal_ ANC_GUARDED_BY(mutex_);
  /// Rotated, not yet truncated.
  std::vector<std::string> sealed_segments_ ANC_GUARDED_BY(mutex_);
  uint64_t sealed_bytes_ ANC_GUARDED_BY(mutex_) = 0;
  uint64_t generation_ ANC_GUARDED_BY(mutex_) = 0;
  std::string checkpoint_file_ ANC_GUARDED_BY(mutex_);
  uint64_t records_ ANC_GUARDED_BY(mutex_) = 0;
  uint64_t syncs_ ANC_GUARDED_BY(mutex_) = 0;
  uint64_t checkpoints_ ANC_GUARDED_BY(mutex_) = 0;
  /// A checkpoint-path crash seam fired.
  bool crashed_ ANC_GUARDED_BY(mutex_) = false;

  util::Mutex callback_mutex_;
  std::function<void(Mark)> durable_callback_ ANC_GUARDED_BY(callback_mutex_);

  obs::MetricsRegistry* metrics_;
  struct Metrics {
    obs::CounterId append_records;
    obs::CounterId append_bytes;
    obs::CounterId syncs;
    obs::CounterId checkpoints;
    obs::HistogramId fsync_us;
    obs::HistogramId checkpoint_us;
    obs::GaugeId wal_bytes;
    obs::GaugeId durable_seq;
    obs::GaugeId generation;
  } m_;
};

/// One WAL segment of a store directory: the first ticket it may hold and
/// its path.
struct WalSegmentFile {
  uint64_t base_seq = 0;
  std::string path;
};

/// The WAL segments of store directory `dir`, sorted by base ticket.
std::vector<WalSegmentFile> ListWalSegments(const std::string& dir);

/// A place in a store directory's WAL: a segment, named by its base
/// ticket, and a byte offset in it.
struct WalPosition {
  uint64_t segment = 0;
  uint64_t offset = 0;
};

/// Reads a store directory's WAL in ticket order across its segments — the
/// one WAL walk behind Recover, the migrator's WAL-tail sidecar and
/// replication (net::ShardedBackend::PullLog).
class WalReader {
 public:
  /// Lists `dir`'s segments. Reading starts at `resume` when it names a
  /// listed segment, else at the first segment that may hold a ticket
  /// after `after_seq`: a segment whose successor starts at or below
  /// after_seq + 1 holds none and is skipped unopened. Records at or below
  /// after_seq in the first segment read are still returned.
  WalReader(const std::string& dir, uint64_t after_seq,
            WalPosition resume = {});

  /// Decodes the next record (and its on-disk frame bytes into *frame when
  /// non-null; they stay valid until the next call). False at the end of
  /// the readable log: the end of the last segment, an invalid frame
  /// (torn_tail()), or a segment that cannot be opened (status()).
  bool Next(WalRecord* record, std::string_view* frame = nullptr);

  /// Just past the last record Next returned (the start point before the
  /// first). A reader resumed there yields exactly the records appended
  /// since.
  WalPosition position() const { return position_; }
  uint64_t skipped_segments() const { return skipped_segments_; }
  bool torn_tail() const {
    return current_.has_value() && current_->torn_tail();
  }
  /// OK unless a segment could not be opened.
  const Status& status() const { return status_; }

  /// Truncates the torn segment to its valid prefix: recovery's cleanup
  /// for a write torn by a crash. No-op unless torn_tail().
  Status TruncateTornTail();

 private:
  std::vector<WalSegmentFile> segments_;
  size_t next_segment_ = 0;  ///< index into segments_ of the next to open
  std::optional<WalSegmentReader> current_;
  WalPosition position_;
  uint64_t skipped_segments_ = 0;
  Status status_;
};

/// The reconstructed state Recover() hands back: the checkpointed graph +
/// index with the WAL tail replayed, and the watermark the state covers.
struct RecoveredStore {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<AncIndex> index;
  Mark watermark;                    ///< last ticket/time reflected in index
  uint64_t generation = 0;           ///< manifest generation recovered from
  uint64_t checkpoint_seq = 0;       ///< tickets covered by the checkpoint
  uint64_t replayed_records = 0;     ///< WAL records applied on top
  uint64_t replayed_activations = 0;
  uint64_t skipped_applies = 0;      ///< Apply errors skipped (mirrors the
                                     ///< serve writer's skip-and-count)
  uint64_t skipped_records = 0;      ///< records fully covered by the
                                     ///< checkpoint, not replayed
  uint64_t skipped_segments = 0;     ///< whole segments skipped unread
  bool truncated_tail = false;       ///< a torn segment tail was truncated
  /// Activations the RecoverOptions::defer gate held back, in replay
  /// (ticket) order. Empty unless a gate was installed.
  std::vector<Activation> deferred;
};

/// Recovery hooks. The default-constructed value reproduces Recover(dir)
/// exactly.
struct RecoverOptions {
  /// Deferral gate for live-migration roll-forward (src/rebalance/): when
  /// set, a replayed activation for which defer(activation, seq) returns
  /// true is *not* applied — it is collected, in replay order, into
  /// RecoveredStore::deferred (and counted in replayed_activations; its
  /// ticket still advances the watermark seq, since the live writer did
  /// apply it before the crash). The caller re-applies the deferred run
  /// after splicing in migration sidecar state, restoring the live apply
  /// order. Timestamps of deferred activations do not advance the
  /// recovered watermark time until the caller applies them.
  std::function<bool(const Activation& activation, uint64_t seq)> defer;
};

/// Crash recovery (docs/durability.md "Recovery"): loads the newest valid
/// checkpoint through LoadIndex — the manifest's, or, when the manifest or
/// its checkpoint is damaged, the newest loadable ckpt-*.idx on disk; page
/// references resolve against the store's tier/ directory — then replays
/// every WAL record with ticket > checkpoint seq through AncIndex::Apply in
/// seq order, truncating torn segment tails. Replay stops at the first invalid
/// frame of a segment (nothing past it can be trusted). Fails NotFound
/// when no checkpoint is recoverable.
///
/// Records fully covered by the checkpoint are never replayed: whole
/// segments whose ticket range provably ends at or before the checkpoint
/// seq are skipped without being read (skipped_segments), and covered
/// records inside the first relevant segment are counted in
/// skipped_records instead of replayed_records.
Result<RecoveredStore> Recover(const std::string& dir);
Result<RecoveredStore> Recover(const std::string& dir,
                               const RecoverOptions& options);

}  // namespace anc::store

#endif  // ANC_STORE_STORE_H_
