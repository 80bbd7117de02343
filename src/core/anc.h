#ifndef ANC_CORE_ANC_H_
#define ANC_CORE_ANC_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "activation/activeness.h"
#include "graph/clustering_types.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "pyramid/clustering.h"
#include "pyramid/pyramid_index.h"
#include "similarity/similarity_engine.h"

namespace anc {

/// The three method variants evaluated in Section VI.
enum class AncMode {
  /// ANCF: offline. Activations only update the activeness; each snapshot
  /// query recomputes S from the current activeness with `rep`
  /// reinforcement sweeps and reconstructs the index.
  kOffline,
  /// ANCO: online. Each activation updates activeness + sigma caches,
  /// applies local reinforcement with the trigger edge, and repairs the
  /// index incrementally (Algorithms 1-3). No further reinforcement.
  kOnline,
  /// ANCOR: ANCO plus, every `reinforce_interval` timestamps, one extra
  /// local-reinforcement pass over the edges activated in the interval
  /// (with incremental index repairs). Trades update time for quality
  /// (Section VI-A's quality/frequency trade-off).
  kOnlineReinforce,
};

/// Full configuration of an ANC index (Table II parameters and Section V
/// knobs).
struct AncConfig {
  SimilarityParams similarity;
  PyramidParams pyramid;
  AncMode mode = AncMode::kOnline;
  uint32_t rep = 7;                 ///< reinforcement sweeps for S0 / ANCF
  uint32_t reinforce_interval = 5;  ///< ANCOR timestamp interval

  /// Checks every knob's domain (lambda >= 0, epsilon in [0, 1], mu >= 1,
  /// theta in (0, 1], k >= 1, a positive similarity clamp window, positive
  /// ANCOR interval). Returns the first violation found.
  Status Validate() const;
};

/// The public facade: an activation-network clustering index over a fixed
/// relation graph.
///
/// Lifecycle: construct (builds S_0 with `rep` reinforcement sweeps and the
/// pyramid index P), feed activations with Apply / ApplyBatch /
/// ApplyStream, query with Clusters / LocalCluster / Zoom at any
/// granularity level in [1, num_levels()]. In ANCF mode call
/// RecomputeSnapshot() before querying a new snapshot.
class AncIndex {
 public:
  /// Validating factory: rejects malformed configurations and degenerate
  /// graphs (no nodes) with a Status instead of aborting. The `graph` must
  /// outlive the index.
  static Result<std::unique_ptr<AncIndex>> Create(const Graph& graph,
                                                  AncConfig config);

  /// Direct constructor for known-good configurations; aborts via
  /// ANC_CHECK on invalid ones (prefer Create for untrusted input).
  AncIndex(const Graph& graph, AncConfig config);

  AncIndex(const AncIndex&) = delete;
  AncIndex& operator=(const AncIndex&) = delete;

  /// Serialization support: rebuilds an index from a saved similarity
  /// snapshot and exported partition trees, skipping S0 initialization
  /// (used by LoadIndex; see core/serialization.h). Exact — including
  /// equal-distance tie-breaks. Returns null on mismatched state.
  static std::unique_ptr<AncIndex> FromSnapshot(
      const Graph& graph, AncConfig config,
      const SimilarityEngine::Snapshot& snapshot,
      std::vector<VoronoiPartition::TreeState> trees);

  const Graph& graph() const { return *graph_; }
  const AncConfig& config() const { return config_; }
  const SimilarityEngine& engine() const { return engine_; }
  const PyramidIndex& index() const { return *index_; }
  uint32_t num_levels() const { return index_->num_levels(); }
  uint32_t DefaultLevel() const { return index_->DefaultLevel(); }

  /// Feeds one activation. Cost per mode:
  ///  - kOffline: O(deg u + deg v) similarity bookkeeping only.
  ///  - kOnline / kOnlineReinforce: + one bounded index repair per level
  ///    per pyramid (Lemma 12), plus the periodic ANCOR pass.
  Status Apply(const Activation& activation);

  /// What ApplyBatch did with a batch.
  struct BatchOutcome {
    size_t applied = 0;  ///< activations absorbed
    size_t refused = 0;  ///< activations rejected and skipped
    Status first_error;  ///< the first rejection (OK when none)
    /// Latest timestamp among the applied activations (-inf when none).
    double max_time = -std::numeric_limits<double>::infinity();
  };

  /// Feeds a batch in order, with exactly the state, answers and
  /// total_touched_nodes() of one Apply per activation. The similarity
  /// pass runs over the whole batch and queues the index repairs; they run
  /// in one level-parallel PyramidIndex::UpdateEdgeWeights call (Lemma 13)
  /// at the end, or earlier when a decay rescale must see them applied
  /// first. A rejected activation (Apply's error) is skipped and counted —
  /// the serve writer's and recovery's policy — and the rest still apply.
  /// The anc.apply.* histograms and the apply / similarity / index_repair
  /// spans are recorded once per batch.
  BatchOutcome ApplyBatch(std::span<const Activation> batch);

  /// Like Apply, but tolerates a timestamp behind the index clock — the
  /// replica-import path of live shard migration (and its crash-recovery
  /// splice), which replays one component's history into an index whose
  /// clock other components already advanced. Exact in anchored space:
  /// the activeness increment e^{lambda (t - t*)} is the same whether the
  /// activation arrives in order or late, and sigma / reinforcement /
  /// index repairs are state functions of the anchored values, so a
  /// replica fed per-component in-order histories converges
  /// byte-identically to an in-order index. Online modes only
  /// (kFailedPrecondition in kOffline — nothing serves from one).
  Status ApplyOutOfOrder(const Activation& activation);

  /// Feeds a whole stream in order through ApplyBatch: rejected
  /// activations are skipped, and the first rejection is returned.
  Status ApplyStream(const ActivationStream& stream);

  /// ANCF snapshot recompute: re-derives S from the current activeness with
  /// `rep` sweeps and rebuilds P. Valid in any mode (benchmarks use it as
  /// the RECONSTRUCT comparator); required before querying in kOffline.
  void RecomputeSnapshot();

  /// All clusters at `level` (power clustering by default; Section V-B).
  Clustering Clusters(uint32_t level, bool power = true) const;

  /// All clusters at the Theta(sqrt n) default granularity (Problem 1.1).
  Clustering Clusters() const { return Clusters(DefaultLevel()); }

  /// Local cluster of `query` at `level` (Problem 1.2); cost proportional
  /// to the answer's neighborhood (Lemma 9).
  std::vector<NodeId> LocalCluster(NodeId query, uint32_t level) const;

  /// The smallest (finest-level) cluster of `query` with >= min_size
  /// members; *level_out receives the level when non-null.
  std::vector<NodeId> SmallestCluster(NodeId query, uint32_t min_size = 2,
                                      uint32_t* level_out = nullptr) const;

  /// Interactive zoom-in/zoom-out cursor starting at the default level.
  ZoomCursor Zoom() const { return ZoomCursor(*index_); }

  /// Everything a point-in-time cluster query needs, decoupled from the
  /// live (mutable) pyramid: the per-level vote tallies plus the voting
  /// threshold and level geometry. Section V-B's query algorithms are pure
  /// functions of this state and the immutable graph, so a view built from
  /// it answers Clusters / LocalCluster / SmallestCluster / Zoom
  /// byte-identically to this index at export time. Consumed by
  /// serve::ClusterView (docs/serving.md).
  struct ClusterState {
    std::vector<std::vector<uint16_t>> vote_counts;  ///< [level-1][edge]
    uint32_t num_levels = 0;
    uint32_t default_level = 0;
    uint32_t vote_threshold = 0;
  };

  /// Snapshot export hook for the serving layer: copies the vote state out
  /// of the pyramid index. O(levels * m) flat copies — far cheaper than
  /// cloning the partitions — and const: safe at any quiescent point of the
  /// single writer.
  ClusterState ExportClusterState() const;

  /// Watched-node change reporting (Section V-C Remarks), forwarded to the
  /// pyramid index: register nodes, then drain the cluster-membership vote
  /// flips their incident edges experienced.
  void Watch(NodeId v) { index_->Watch(v); }
  void Unwatch(NodeId v) { index_->Unwatch(v); }
  std::vector<PyramidIndex::VoteChange> DrainVoteChanges() {
    return index_->DrainVoteChanges();
  }

  /// Total nodes touched by index repairs so far (Lemma 12 accounting).
  size_t total_touched_nodes() const { return total_touched_; }

  /// Runs the full anc::check validator suite over the engine and the
  /// index (anchored-activeness bounds, PosM/NeuM consistency, pyramid
  /// structure, vote recounts; see docs/correctness.md). `deep`
  /// additionally rebuilds every Voronoi partition from scratch and
  /// compares distances (Lemmas 11-12). Returns OK or an Internal status
  /// carrying the violation report. Always available; a build configured
  /// with -DANC_CHECK_INVARIANTS=ON additionally self-checks periodically
  /// inside Apply and aborts on the first violation.
  Status ValidateInvariants(bool deep = false) const;

  /// ANCOR interval bookkeeping, exposed for serialization: the timestamp
  /// of the last periodic pass and the edges activated since (sorted).
  double last_reinforce_time() const { return last_reinforce_time_; }
  std::vector<EdgeId> PendingReinforceEdges() const;
  void RestoreReinforceState(double last_time, std::vector<EdgeId> edges);

  /// Heap bytes of index + similarity state (graph excluded, as in Fig. 6).
  size_t MemoryBytes() const;

  /// Hands every tierable per-edge array (anchored activeness, similarity,
  /// sigma numerators, per-level vote tallies, per-partition same-seed
  /// bits) to a storage tier (docs/storage_tiers.md). Call once, while
  /// quiescent, before serving; the host (tier::TieredStore) must outlive
  /// the attachment or detach first. Queries and Apply see no behavioral
  /// difference: cold pages are read from their mmap'd segments and the
  /// first write promotes a page back to RAM.
  void AttachTier(tier::ColumnHost* host) {
    engine_.AttachTier(host);
    index_->AttachTier(host);
  }

  // --- Observability (docs/observability.md) -----------------------------

  /// Merged snapshot of every anc.* metric this index and its subsystems
  /// (similarity engine, pyramid index, thread pool) recorded. Safe to call
  /// concurrently with updates. JSON-serializable via StatsSnapshot::ToJson.
  obs::StatsSnapshot Stats() const { return metrics_.Snapshot(); }

  /// The index's private metric registry (per-index stats isolation). Lives
  /// as long as the index; benches use Reset() for per-phase deltas.
  obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Attaches (nullptr detaches) a structured trace sink: the update and
  /// query paths then emit nested JSONL spans (apply / similarity /
  /// index_repair / ancor_pass / query_*).
  void SetTraceSink(obs::TraceSink* sink) { metrics_.SetTraceSink(sink); }

 private:
  struct RestoreTag {};
  AncIndex(const Graph& graph, AncConfig config, RestoreTag);

  void HookRescale();
  void InitMetrics();
  void MaybeRunPeriodicReinforce(double now);

  /// ApplyBatch's body; `anchored` selects ApplyOutOfOrder's engine path.
  BatchOutcome ApplyRun(std::span<const Activation> batch, bool anchored);

  /// Runs the queued index repairs (one UpdateEdgeWeights call).
  void FlushRepairs();

  const Graph* graph_;
  AncConfig config_;
  // Declared before engine_/index_: both record into it (and the registry
  // must outlive them). Mutable so const query paths can time themselves.
  mutable obs::MetricsRegistry metrics_;
  struct ApplyMetricIds {
    obs::CounterId apply_count;
    obs::CounterId apply_offline;
    obs::CounterId apply_online;
    obs::CounterId apply_ancor;
    obs::CounterId ancor_passes;
    obs::CounterId ancor_pass_edges;
    obs::CounterId query_clusters;
    obs::CounterId query_local;
    obs::CounterId query_local_answer_nodes;
    obs::CounterId snapshot_recomputes;
    obs::GaugeId ancor_pending_edges;
    obs::HistogramId apply_latency_us;
    obs::HistogramId apply_sim_us;
    obs::HistogramId apply_repair_us;
    obs::HistogramId ancor_pass_us;
    obs::HistogramId query_clusters_us;
    obs::HistogramId query_local_us;
    obs::HistogramId snapshot_recompute_us;
  } m_;
  SimilarityEngine engine_;
  std::unique_ptr<PyramidIndex> index_;
  size_t total_touched_ = 0;
  // Index repairs the current ApplyBatch queued, in apply order (empty
  // between calls).
  std::vector<std::pair<EdgeId, double>> pending_repairs_;
#ifdef ANC_CHECK_INVARIANTS
  // Applies since the last periodic self-check (ANC_CHECK_INVARIANTS
  // builds only; see MaybeSelfCheck in anc.cc).
  uint64_t applies_since_check_ = 0;
#endif
  // ANCOR interval bookkeeping.
  double last_reinforce_time_ = 0.0;
  std::unordered_set<EdgeId> interval_edges_;
};

}  // namespace anc

#endif  // ANC_CORE_ANC_H_
