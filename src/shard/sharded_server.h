#ifndef ANC_SHARD_SHARDED_SERVER_H_
#define ANC_SHARD_SHARDED_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/anc.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "serve/harness.h"
#include "serve/server.h"
#include "shard/partitioner.h"
#include "shard/router.h"
#include "shard/sharded_view.h"
#include "store/store.h"
#include "util/status.h"
#include "util/sync.h"

namespace anc::shard {

/// Configuration of a ShardedServer.
struct ShardedOptions {
  /// How vertices are assigned to shards (docs/sharding.md).
  PartitionOptions partition;

  /// Per-shard serving template, applied to every AncServer shard.
  /// `serve.store` must stay null — per-shard stores are opened by
  /// Start() from `store_dir` when `serve.durability` != kNone.
  serve::ServeOptions serve;

  /// Base directory for per-shard durability: shard i logs under
  /// <store_dir>/shard-<i>, and <store_dir>/shards.meta records the
  /// partition so RecoverAll can rebuild the router. Required when
  /// serve.durability != kNone.
  std::string store_dir;

  /// Per-shard WAL/checkpoint knobs.
  store::StoreOptions store;
};

/// Per-shard scorecard of a RecoverAll (mirrors store::RecoveredStore).
struct ShardRecoveryInfo {
  uint32_t shard = 0;
  store::Mark watermark;          ///< last per-shard ticket recovered
  uint64_t generation = 0;
  uint64_t checkpoint_seq = 0;
  uint64_t replayed_records = 0;
  uint64_t replayed_activations = 0;
  bool truncated_tail = false;
};

/// A horizontally partitioned serving stack (docs/sharding.md): N
/// single-writer AncServer shards behind one router.
///
/// Each shard holds a *full-graph replica* of the index (same graph, same
/// config, hence — by construction determinism — an identical initial
/// state) and receives exactly the activations incident to its owned
/// vertices: intra-shard activations go to the owning shard alone, cut-edge
/// activations to both endpoint shards (the one-hop halo), so local
/// reinforcement of owned edges always reads a fresh boundary
/// neighborhood. Writes parallelize across the N apply loops — the
/// single-writer throughput ceiling of PR 3 — while queries scatter-gather:
/// View() captures one ClusterView per shard (the vector watermark) and
/// merges them per-edge under the vote-ownership rule (ShardedView).
///
/// Threading contract:
///  - Submit / SubmitStream: any thread (routing is serialized on an
///    internal mutex; the per-shard apply loops run concurrently).
///  - View / Clusters / LocalCluster / SmallestCluster / Flush / AwaitSeq /
///    Stats: any thread.
///  - Global tickets: Submit returns a ShardedServer-level sequence
///    number; AwaitSeq(seq) blocks until every shard has resolved every
///    delivery routed at or before ticket `seq` (conservative: it may wait
///    for a few later ones too). AwaitTime is deliberately absent — shards
///    apply independent sub-streams, so a scalar time watermark would be
///    ambiguous; use Flush() or AwaitSeq.
///  - Merged queries bypass per-shard admission (each shard still admits
///    its own direct queries); overload shedding for merged reads is
///    future work, tracked in docs/sharding.md.
class ShardedServer {
 public:
  /// Builds `options.partition.num_shards` replicas of (graph, config).
  /// `graph` must outlive the server. Fails on invalid config/partition.
  static Result<std::unique_ptr<ShardedServer>> Create(
      const Graph& graph, const AncConfig& config, ShardedOptions options);

  /// Recovers every shard of a previously durable ShardedServer from
  /// <dir>/shards.meta + <dir>/shard-<i>: per-shard checkpoint + WAL
  /// replay (store::Recover), independently per shard — one shard having
  /// lost a WAL tail only rolls that shard back to its own durable
  /// horizon. The recovered server owns its graphs; `options.partition` is
  /// ignored (the persisted partition wins). Call Start() to resume
  /// serving (with durability re-opened at the recovered marks when
  /// options.serve.durability != kNone and options.store_dir names the
  /// same directory).
  static Result<std::unique_ptr<ShardedServer>> RecoverAll(
      const std::string& dir, ShardedOptions options);

  ~ShardedServer();

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Opens per-shard stores (when durability is configured), persists
  /// shards.meta and starts every shard's writer thread.
  Status Start();

  /// Stops every shard (drains queues, publishes final views). Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- Producer side ------------------------------------------------------

  /// Routes one activation to its owner shard (and, for cut edges, the
  /// halo shard) and returns a global ticket. Rejected synchronously on a
  /// bad edge or a stopped server. Deliveries are *staged*: the router
  /// accumulates a small per-shard batch and hands it to the shard queue
  /// in one push (per-push lock/wakeup costs would otherwise serialize the
  /// whole fan-out, see docs/sharding.md "Routing throughput"), so an
  /// accepted submission becomes visible after at most kRouteBatch further
  /// submissions, kMaxStageAge of continued traffic, or the next
  /// Flush/AwaitSeq/FlushDurable/Stop — whichever comes first. A delivery
  /// the receiving queue then refuses (kReject backpressure, a regressed
  /// timestamp with clamping off) is dropped and counted as
  /// anc.shard.halo_partial; run concurrent producers with
  /// ingest.clamp_out_of_order = true to keep that path halo-only.
  ///
  /// `trace` correlates the submission's spans across every replica it
  /// lands on (docs/observability.md); when omitted and a trace sink is
  /// attached (SetTraceSink), a fresh root trace is minted per submission.
  Result<uint64_t> Submit(const Activation& activation,
                          obs::TraceContext trace = {});

  /// Routes a whole stream in order; stops at the first owner rejection.
  Status SubmitStream(const ActivationStream& stream,
                      uint64_t* last_seq = nullptr);

  /// Routes `count` activations as one batch (the net leader's write path).
  /// Validates every edge up front (InvalidArgument, nothing routed), issues
  /// the batch's global tickets contiguously under one hold of the route
  /// lock (the last one via *last_seq, optional) and hands every staged
  /// delivery to the shard queues before returning. Returns `count` only
  /// when every delivery was accepted — AncServer::SubmitBatch's contract;
  /// each delivery a receiving queue refused lowers it, and the tickets
  /// stay issued. With a trace sink attached, the batch gets one root
  /// trace.
  Result<size_t> SubmitBatch(const Activation* data, size_t count,
                             uint64_t* last_seq = nullptr);

  /// Blocks until every shard has drained and published everything
  /// accepted before the call.
  Status Flush(std::chrono::milliseconds timeout = std::chrono::minutes(1));

  /// Blocks until every delivery routed at or before global ticket `seq`
  /// is reflected in every shard's published view.
  Status AwaitSeq(uint64_t seq, std::chrono::milliseconds timeout);

  /// The published watermark in global tickets: every delivery routed at
  /// or before `seq` is reflected in any View() captured afterwards. `time`
  /// is the highest activation time any shard has published.
  serve::Watermark watermark() const;

  // --- Durability ---------------------------------------------------------

  /// Flush + fsync on every shard: when OK, RecoverAll reproduces a state
  /// covering everything accepted before the call.
  Status FlushDurable(
      std::chrono::milliseconds timeout = std::chrono::minutes(1));

  /// The durable watermark in global tickets: every delivery routed at or
  /// before `seq` is covered by its shard's fsynced WAL. Zero-valued when
  /// the shards run without durability.
  serve::Watermark durable_watermark() const;

  /// Rotates a checkpoint on every shard.
  Status RequestCheckpointAll(
      std::chrono::milliseconds timeout = std::chrono::minutes(1));

  /// First store error any shard hit (OK if none).
  Status store_status() const;

  /// First apply error any shard's writer hit (OK if none).
  Status writer_status() const;

  /// Per-shard recovery scorecards (empty unless built by RecoverAll).
  const std::vector<ShardRecoveryInfo>& recovery_info() const {
    return recovery_info_;
  }

  // --- Reader side --------------------------------------------------------

  /// Captures the vector watermark: one snapshot per shard, merged
  /// per-edge. Valid after Start(); cheap (N shared_ptr copies).
  ShardedView View() const;

  /// Scatter-gather queries over a fresh View(). Each query mints a trace
  /// (when a sink is attached) and emits a shard.query_* span wrapping one
  /// shard.gather span per shard and a shard.merge span, all sharing the
  /// query's trace id; latency lands in the router registry's
  /// anc.shard.query_us / gather_us / merge_us histograms.
  Result<Clustering> Clusters(uint32_t level) const;
  Result<Clustering> Clusters() const;
  Result<std::vector<NodeId>> LocalCluster(NodeId node, uint32_t level) const;
  Result<std::vector<NodeId>> LocalCluster(NodeId node) const;
  Result<std::vector<NodeId>> SmallestCluster(
      NodeId node, uint32_t min_size = 2, uint32_t* level_out = nullptr) const;

  // --- Introspection ------------------------------------------------------

  const Graph& graph() const { return *graph_; }
  /// The current assignment snapshot. Shared ownership: a live migration
  /// may swap the server's router at any moment, and a caller routing or
  /// merging against a snapshot must keep using the one it captured.
  std::shared_ptr<const Router> router() const;
  PartitionStats partition_stats() const;
  uint32_t num_shards() const { return num_shards_; }
  /// Bumped every time the vertex→shard assignment swaps (live migration).
  /// Folded into the net layer's cache-epoch vector so a cached answer
  /// merged under an old assignment can never be served after a swap.
  uint64_t assignment_epoch() const {
    return assignment_epoch_.load(std::memory_order_acquire);
  }
  /// Whether the shards run with a durability policy (health scorecards
  /// only judge durable lag when they do).
  bool durable() const {
    return options_.serve.durability != serve::DurabilityPolicy::kNone;
  }

  /// Attaches (nullptr detaches) one trace sink to the router registry and
  /// every shard's index registry: router-level query spans and per-shard
  /// ingest/apply/publish spans interleave in one JSONL stream, correlated
  /// by trace id and told apart by their `shard` field. The sink must
  /// outlive the attachment.
  void SetTraceSink(obs::TraceSink* sink);

  /// The router-level registry (anc.shard.query_us / gather_us / merge_us,
  /// anc.shard.queries). Per-shard registries live on the shard indices.
  obs::MetricsRegistry& metrics() const { return registry_; }

  /// Direct access to shard s (tests, per-shard stats). The underlying
  /// index must only be touched when the server is stopped.
  serve::AncServer& shard(uint32_t s) { return *shards_[s].server; }
  const serve::AncServer& shard(uint32_t s) const { return *shards_[s].server; }
  AncIndex& shard_index(uint32_t s) { return *shards_[s].index; }

  /// Shard s's durable store (null when durability is off or before
  /// Start). The migrator reads its generation counter at commit.
  const store::DurableStore* shard_store(uint32_t s) const {
    return shards_[s].store.get();
  }

  /// Base directory of per-shard durability (ShardedOptions::store_dir;
  /// empty when non-durable). Shard i's WAL lives under shard-<i>, and
  /// migration artifacts live at the top level next to shards.meta.
  const std::string& store_dir() const { return options_.store_dir; }

  uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Cut-edge deliveries duplicated to the halo shard.
  uint64_t halo_deliveries() const {
    return halo_deliveries_.load(std::memory_order_relaxed);
  }
  /// Deliveries a receiving shard's queue refused at hand-off (the other
  /// replicas keep the activation; the refusing replica's boundary
  /// neighborhood goes slightly stale). Under the default kBlock policy
  /// with clamped timestamps this stays 0.
  uint64_t halo_partial() const {
    return halo_partial_.load(std::memory_order_relaxed);
  }
  /// Total queued activations across shards.
  size_t IngestDepth() const;

  /// Router-level stats: anc.shard.* counters (accepted / deliveries /
  /// halo traffic / rejections) plus gauges for shard count, cut edges,
  /// balance (x1000) and per-shard queue depth / epoch / accepted
  /// (anc.shard.<i>.*). Per-shard full snapshots via ShardStats().
  obs::StatsSnapshot Stats() const;

  /// Shard s's full metric snapshot (anc.apply.*, anc.serve.*, ...).
  obs::StatsSnapshot ShardStats(uint32_t s) const {
    return shards_[s].server->Stats();
  }

  /// Adapter driving this server from a ServeHarness (satellite of the
  /// sharding PR: the harness routes through callbacks, not a hardcoded
  /// AncServer). The target borrows this server; keep it alive and
  /// running for the harness run.
  serve::HarnessTarget HarnessTarget();

  // --- Live migration hooks (rebalance::Migrator; docs/sharding.md) -------
  //
  // The migration protocol itself — WAL-tail snapshot, sidecar files,
  // commit journal, crash recovery — lives in src/rebalance/migrator.cc;
  // these hooks expose the routing-layer state transitions it needs:
  // side-buffering deliveries for the moving vertices, and the atomic
  // router swap at a point where no routing is in flight.

  /// Starts a handoff of `moving` (owned by shard `from`) toward shard
  /// `to`: flushes staged deliveries, snapshots the from-shard frontier
  /// ticket S_A (everything routed to `from` so far has a per-shard ticket
  /// <= S_A), and from now on *side-buffers a copy* of every delivery on a
  /// handoff edge — an edge incident to `moving` that shard `to` does not
  /// already receive under the current assignment — while normal routing
  /// continues untouched (the old owner stays authoritative). Returns S_A.
  /// FailedPrecondition while another handoff is active; InvalidArgument
  /// on bad shards or vertices not owned by `from`.
  Result<uint64_t> BeginHandoff(const std::vector<NodeId>& moving,
                                uint32_t from, uint32_t to);

  /// Drains the handoff side buffer (deliveries accumulated since
  /// BeginHandoff or the previous take), in routing order. Empty when no
  /// handoff is active.
  std::vector<Activation> TakeHandoffChunk();

  /// Deliveries currently waiting in the handoff side buffer.
  size_t HandoffBacklog() const;

  /// Atomically completes the handoff. Under the route lock (no routing in
  /// flight, producers briefly blocked — the migration's only ingest
  /// stall): flushes staging, hands the final side-buffer residual to
  /// `commit`, and — only if `commit` returns OK — swaps in `new_router`
  /// (+ its precomputed stats), bumps the assignment epoch and clears the
  /// handoff state. `commit` writes the durable commit record and applies
  /// the residual to the target shard at a writer quiescent point, and
  /// must republish the target's view *before* returning so no reader can
  /// observe the new assignment with a pre-import view. On a non-OK
  /// `commit` the handoff stays active (AbortHandoff to roll back).
  Status FinalizeHandoff(
      std::shared_ptr<const Router> new_router, PartitionStats new_stats,
      const std::function<Status(std::vector<Activation> residual)>& commit);

  /// Abandons an active handoff: side-buffering stops, the buffer is
  /// dropped, routing continues under the unchanged assignment. No-op when
  /// none is active.
  void AbortHandoff();

  /// Issues a migration id unique across every Migrator driving this
  /// server. Ids name the sidecar and import-archive files, which share
  /// the store directory — two coordinators (the Rebalancer's internal
  /// Migrator plus a directly constructed one) reusing an id would
  /// overwrite an archive holding the only copy of moved edges'
  /// pre-import history. Stale archives from previous sessions are
  /// retired by Start(), so per-instance monotonicity is sufficient.
  uint64_t NextMigrationId() {
    return next_migration_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records that shard `s` received migration imports that were then
  /// rolled back. Imports write the live index only (never the WAL), so
  /// an abort cannot undo them: the shard keeps serving correctly (the
  /// old owner stays authoritative for the imported edges under the
  /// vote-ownership merge), but it must not accept another import — a
  /// retried migration would splice the same history again and
  /// double-count. Cleared only by rebuilding the process from durable
  /// state (RecoverAll).
  void MarkShardImportDirty(uint32_t s) {
    if (s < num_shards_) {
      import_dirty_[s].store(true, std::memory_order_release);
    }
  }

  /// True when a rolled-back migration left imports in shard `s`'s live
  /// index (see MarkShardImportDirty).
  bool shard_import_dirty(uint32_t s) const {
    return s < num_shards_ &&
           import_dirty_[s].load(std::memory_order_acquire);
  }

 private:
  struct Shard {
    std::unique_ptr<Graph> owned_graph;  ///< recovery path only
    std::unique_ptr<AncIndex> index;
    std::unique_ptr<store::DurableStore> store;
    std::unique_ptr<serve::AncServer> server;
    store::Mark start_mark;  ///< durability base (recovered watermark)
  };

  ShardedServer(const Graph* graph, std::vector<Shard> shards,
                Partition partition, ShardedOptions options);

  std::string ShardDir(uint32_t s) const;
  Status WriteMeta() const;
  static Result<std::pair<Partition, uint32_t>> ReadMeta(
      const std::string& dir);

  /// Drains staged deliveries and snapshots the per-shard frontier tickets
  /// covering global ticket `seq`; OutOfRange when `seq` was never issued.
  Result<std::vector<uint64_t>> ShardFrontiers(uint64_t seq);

  /// Captures the vector watermark like View(), emitting one shard.gather
  /// span per shard under `trace` (and the gather_us histogram).
  ShardedView GatherView(obs::TraceContext trace) const;

  /// watermark() / durable_watermark(): the lowest per-shard mark over the
  /// shards that still owe deliveries, or every issued ticket when none
  /// does.
  serve::Watermark GlobalMark(bool durable) const ANC_EXCLUDES(route_mutex_);

  /// Stages one activation's deliveries under `router`: its owner, its
  /// halo shard for a cut edge, and the handoff copy during a migration.
  void RouteLocked(const Router& router, const Activation& activation,
                   obs::TraceContext trace) ANC_REQUIRES(route_mutex_);

  /// Stages one delivery for shard `s` (route_mutex_ held), flushing the
  /// shard's batch when it reaches kRouteBatch.
  void StageLocked(uint32_t s, const Activation& activation,
                   obs::TraceContext trace) ANC_REQUIRES(route_mutex_);
  /// Hands shard `s`'s staged batch to its queue in one push
  /// (route_mutex_ held).
  void FlushShardLocked(uint32_t s) ANC_REQUIRES(route_mutex_);
  void FlushAllLocked() ANC_REQUIRES(route_mutex_);
  /// Takes route_mutex_ and drains every staging buffer.
  void FlushStaging() ANC_EXCLUDES(route_mutex_);

  const Graph* graph_;  ///< canonical graph (external or shard 0's)
  ShardedOptions options_;
  std::vector<Shard> shards_;
  uint32_t num_shards_ = 0;  ///< constant across router swaps
  std::vector<ShardRecoveryInfo> recovery_info_;

  /// Current assignment. A micro-mutex of its own (never held across any
  /// blocking call; lock order route_mutex_ -> router_mutex_) so readers
  /// can snapshot the router without contending on the route lock. Swapped
  /// only by FinalizeHandoff, which additionally holds route_mutex_ — a
  /// thread holding *either* lock therefore sees a stable assignment.
  mutable util::Mutex router_mutex_;
  std::shared_ptr<const Router> router_ ANC_GUARDED_BY(router_mutex_);
  PartitionStats partition_stats_ ANC_GUARDED_BY(router_mutex_);
  std::atomic<uint64_t> assignment_epoch_{1};
  std::atomic<uint64_t> next_migration_id_{1};
  /// Per-shard flag: a rolled-back migration left imports in the live
  /// index (MarkShardImportDirty). Sized num_shards_ at construction.
  std::unique_ptr<std::atomic<bool>[]> import_dirty_;

  /// Live-migration handoff state (docs/sharding.md "Rebalancing & live
  /// migration"): while active, deliveries on handoff edges are *copied*
  /// into `buffer` in routing order, on top of their normal delivery.
  struct Handoff {
    uint32_t from = 0;
    uint32_t to = 0;
    /// edge id -> 1 when incident to the moving set and not already
    /// delivered to `to` under the pre-move assignment.
    std::vector<uint8_t> edge_in_handoff;
    std::vector<Activation> buffer;
  };
  std::unique_ptr<Handoff> handoff_ ANC_GUARDED_BY(route_mutex_);

  std::atomic<bool> running_{false};
  /// Not guarded: written only by Start(), read only by Start()/Stop(),
  /// and the caller must already serialize those (starting a server twice
  /// concurrently is a usage error the API has never admitted).
  bool started_once_ = false;

  /// Deliveries staged per shard before their batched queue push.
  static constexpr size_t kRouteBatch = 128;
  /// Oldest a staged delivery may get under continued traffic before a
  /// Submit flushes every buffer (visibility bound for slow producers).
  static constexpr std::chrono::milliseconds kMaxStageAge{2};

  /// Serializes routing: global ticket issue + per-shard staging/pushes,
  /// keeping the per-shard frontier vector consistent with the global
  /// order.
  mutable util::Mutex route_mutex_;
  uint64_t issued_ ANC_GUARDED_BY(route_mutex_) = 0;
  std::vector<uint64_t> shard_last_ticket_ ANC_GUARDED_BY(route_mutex_);
  std::vector<std::vector<Activation>> staging_ ANC_GUARDED_BY(route_mutex_);
  /// Trace context per staged delivery, aligned with staging_[s].
  std::vector<std::vector<obs::TraceContext>> staging_traces_
      ANC_GUARDED_BY(route_mutex_);
  size_t staged_total_ ANC_GUARDED_BY(route_mutex_) = 0;
  std::chrono::steady_clock::time_point staging_oldest_
      ANC_GUARDED_BY(route_mutex_);

  /// Router-level metrics (scatter-gather queries live above any single
  /// shard's registry).
  mutable obs::MetricsRegistry registry_;
  obs::CounterId queries_;
  obs::HistogramId query_us_;
  obs::HistogramId gather_us_;
  obs::HistogramId merge_us_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> halo_deliveries_{0};
  std::atomic<uint64_t> halo_partial_{0};
};

}  // namespace anc::shard

#endif  // ANC_SHARD_SHARDED_SERVER_H_
