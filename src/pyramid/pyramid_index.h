#ifndef ANC_PYRAMID_PYRAMID_INDEX_H_
#define ANC_PYRAMID_PYRAMID_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "obs/metrics.h"
#include "pyramid/voronoi.h"
#include "pyramid/votes.h"
#include "tier/column.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace anc::check {
class TestHooks;
}  // namespace anc::check

namespace anc {

/// Configuration of the pyramid index P (Section V, Table II).
struct PyramidParams {
  uint32_t num_pyramids = 4;  ///< k, the voting-ensemble size
  double theta = 0.7;         ///< support threshold of the voting function
  uint64_t seed = 42;         ///< RNG seed for the Voronoi seed sets
  /// Workers for the level-parallel batch repair and the build (Lemma 13).
  /// A runtime choice, not index state: a restored index takes the default.
  uint32_t num_threads = 3;
};

/// The index P of Section V: k pyramids, each a suite of ceil(log2 n)
/// Voronoi partitions with 2^(l-1) uniformly random seeds at granularity
/// level l in [1, ceil(log2 n)]. Construction is O(n log^2 n + m log n) and
/// space O(n log^2 n) (Lemma 7).
///
/// The index owns the (anchored) distance-weight array shared by all
/// partitions. Because every weight carries the same global decay factor,
/// pure time passage never changes shortest-path structure and the index is
/// only updated on activations (Lemma 10): UpdateEdgeWeight repairs all
/// k * levels partitions with the bounded searches of Algorithms 1-3 and
/// incrementally maintains the per-level per-edge *same-seed bits* (which
/// pyramids place the edge's endpoints under the same seed — the Remarks of
/// Section V-C), whose count is the edge's vote, so the voting function H_l
/// is an O(1) lookup at any time.
class PyramidIndex {
 public:
  /// Builds the index over `g` with initial distance weights `weights`
  /// (typically SimilarityEngine::Weight for every edge). `metrics`, when
  /// non-null, receives the index's anc.index.* counters (per-level repairs
  /// and touched nodes, vote flips) and the thread pool's anc.pool.*
  /// metrics; it must outlive the index.
  PyramidIndex(const Graph& g, std::vector<double> weights,
               PyramidParams params, obs::MetricsRegistry* metrics = nullptr);

  /// Builds with explicit seed sets (pyramid-major, level-minor;
  /// seed_sets[p * num_levels + (l-1)] is the level-l seed set of pyramid
  /// p). Partition trees are recomputed from the weights; useful for
  /// reproducible experiments with hand-picked seeds. Seed-set shape must
  /// match `params` and the graph.
  PyramidIndex(const Graph& g, std::vector<double> weights,
               PyramidParams params,
               std::vector<std::vector<NodeId>> seed_sets,
               obs::MetricsRegistry* metrics = nullptr);

  /// Restores an index from exported partition trees (exact, including
  /// tie-breaks — the serialization path). Returns null on malformed
  /// state.
  static std::unique_ptr<PyramidIndex> FromTreeStates(
      const Graph& g, std::vector<double> weights, PyramidParams params,
      std::vector<VoronoiPartition::TreeState> trees,
      obs::MetricsRegistry* metrics = nullptr);

  PyramidIndex(const PyramidIndex&) = delete;
  PyramidIndex& operator=(const PyramidIndex&) = delete;

  const Graph& graph() const { return *graph_; }
  const PyramidParams& params() const { return params_; }
  uint32_t num_levels() const { return num_levels_; }
  uint32_t num_pyramids() const { return params_.num_pyramids; }

  /// Minimum number of same-seed pyramids for a positive vote:
  /// ceil(theta * k).
  uint32_t vote_threshold() const { return rule_.threshold(); }

  /// The granularity level whose seed count is closest to sqrt(n) — the
  /// Theta(sqrt(n))-clusters entry point of Problem 1.
  uint32_t DefaultLevel() const { return DefaultLevelFor(graph_->NumNodes()); }

  /// The level geometry of an n-node graph: ceil(log2 n) levels (at least
  /// one), and DefaultLevel() of any index over it.
  static uint32_t NumLevelsFor(uint32_t num_nodes);
  static uint32_t DefaultLevelFor(uint32_t num_nodes);

  /// Levels are 1-based: level 1 is the coarsest (1 seed per pyramid),
  /// num_levels() the finest. Partition access is exposed for tests,
  /// benches and the clustering algorithms.
  const VoronoiPartition& partition(uint32_t pyramid, uint32_t level) const {
    return partitions_[PartitionSlot(pyramid, level)];
  }

  /// Current anchored weight of edge e.
  double WeightOf(EdgeId e) const { return weights_[e]; }

  /// Voting function H_l(u, v) for edge e (Section V-B): 1 iff at least
  /// ceil(theta k) pyramids put the endpoints of e under the same seed at
  /// level `level`. O(1) from the maintained same-seed bits.
  bool EdgePassesVote(EdgeId e, uint32_t level) const {
    return rule_.Passes(same_seed_bits_, e, level);
  }

  /// Raw vote count of edge e at `level` (in [0, k]).
  uint32_t VotesOf(EdgeId e, uint32_t level) const {
    return rule_.Votes(same_seed_bits_, e, level);
  }

  /// Applies one weight update to every partition of every pyramid and
  /// repairs the same-seed bits, serially at any thread count (one update
  /// is too little work to pay for a pool dispatch). Returns the total
  /// number of touched nodes across partitions (stats).
  size_t UpdateEdgeWeight(EdgeId e, double new_weight);

  /// Applies a batch of updates (same edge may repeat) in order, with the
  /// same result as one UpdateEdgeWeight call per update. With
  /// num_threads > 1 the levels replay the batch in parallel: partitions
  /// are mutually independent (Lemma 13) and each level owns its bit
  /// columns.
  /// Every level reads the batch's edges through its own batch-local
  /// overlay of the weights (EdgeWeights), so the extra memory is
  /// O(levels * distinct batch edges), not a weight-array copy per level.
  size_t UpdateEdgeWeights(std::span<const std::pair<EdgeId, double>> updates);

  /// Rebuilds every partition from scratch against `new_weights` keeping
  /// the seed sets (the RECONSTRUCT baseline of Fig. 8). Vote flips on
  /// edges of watched nodes are reported as by an incremental update, at
  /// O(n + levels × watched degree) extra cost, none when no node is
  /// watched.
  void Reconstruct(std::vector<double> new_weights);

  /// Multiplies every weight and every partition distance by `factor`
  /// (> 0). Structure-preserving (Lemma 10): used when the similarity
  /// layer performs a batched rescale of the global decay factor, whose
  /// uniform g^{-1} also applies to the distance weights. O(m + k n log n).
  void ScaleAll(double factor);

  /// Approximate shortest distance between u and v under the current
  /// weights, in the style of the Das Sarma et al. sketch the pyramids are
  /// built on: the best common-seed witness
  ///     min over partitions with S[u] == S[v] of dist(S[u],u)+dist(S[v],v)
  /// Always an upper bound on the true distance; +infinity when no
  /// partition co-seeds the two nodes (only possible across components).
  /// O(k log n).
  double ApproxDistance(NodeId u, NodeId v) const;

  /// The paper's attraction strength (Section IV-C) under the approximate
  /// distance: 1 / ApproxDistance (0 when unreachable, +inf when u == v is
  /// avoided by returning infinity only for distance 0 of distinct nodes —
  /// callers get 1/0-free semantics).
  double AttractionStrength(NodeId u, NodeId v) const;

  // --- Watched-node change reporting (Section V-C Remarks) ---------------

  /// One cluster-membership change: the voting result of `edge` at `level`
  /// flipped to `now_passing` while an endpoint was watched.
  struct VoteChange {
    EdgeId edge;
    uint32_t level;
    bool now_passing;
  };

  /// Registers/unregisters a node for change reporting. The per-update
  /// overhead is one bit test per vote flip — "a cost equal to the
  /// reporting".
  void Watch(NodeId v);
  void Unwatch(NodeId v);
  bool IsWatched(NodeId v) const { return watched_[v] != 0; }

  /// Returns and clears the vote changes on watched nodes accumulated
  /// since the previous drain, ordered by level then occurrence.
  std::vector<VoteChange> DrainVoteChanges();

  /// Heap bytes of the index: partitions + same-seed bits + weight array +
  /// the per-level repair scratch (Fig. 6 accounting; the graph itself is
  /// excluded as in the paper).
  size_t MemoryBytes() const;

  /// Snapshot export hook for the serving layer: a copy of the maintained
  /// same-seed bits, read as votes ([level-1][edge], values in [0, k]). It
  /// is the complete vote input of every Section V-B query algorithm, so an
  /// immutable view built from it answers Clusters / LocalCluster / Zoom
  /// byte-identically to this index at the moment of the copy.
  /// O(levels * ceil(k / 8) * m) flat copies.
  VoteTable ExportVoteCounts() const;

  /// Hands the same-seed bits to a storage tier (docs/storage_tiers.md):
  /// pages of inactive edges spill to mmap'd cold segments. The partition
  /// trees and the weight array stay resident (the SPT repairs walk them on
  /// every update).
  void AttachTier(tier::ColumnHost* host) {
    for (size_t col = 0; col < same_seed_bits_.size(); ++col) {
      same_seed_bits_[col].Attach(
          host, static_cast<uint16_t>(tier::kColBitsBase + col));
    }
  }

  /// Seed sets in the layout the seed-injected constructor accepts.
  std::vector<std::vector<NodeId>> SeedSets() const;

  /// Exported partition trees, pyramid-major, level-minor (serialization).
  std::vector<VoronoiPartition::TreeState> ExportTreeStates() const;

 private:
  /// Test-only corruption seam for tests/check_test.cc (same-seed bits,
  /// cell assignments): proves the anc::check validators catch real damage.
  friend class ::anc::check::TestHooks;

  size_t PartitionSlot(uint32_t pyramid, uint32_t level) const {
    return static_cast<size_t>(pyramid) * num_levels_ + (level - 1);
  }

  /// Same-seed bit layout (VoteRule): the bits of up to eight pyramids
  /// share one byte per edge, and a level's bytes live in its own columns,
  /// so the level-parallel repair writes disjoint columns.
  size_t BitColumn(uint32_t pyramid, uint32_t level) const {
    return static_cast<size_t>(level - 1) * rule_.groups() + pyramid / 8;
  }
  static uint8_t BitMask(uint32_t pyramid) {
    return static_cast<uint8_t>(1u << (pyramid % 8));
  }

  /// Recomputes the same-seed bit of edge e in partition (pyramid, level)
  /// and reports a vote flip on change.
  void RefreshEdgeBit(uint32_t pyramid, uint32_t level, EdgeId e);

  /// Repairs the k partitions of one level after edge e moved from old_w
  /// to new_w (`weights` already reads new_w at e) and refreshes the
  /// level's same-seed bits. Returns the touched nodes.
  size_t RepairLevel(uint32_t level, EdgeId e, double old_w, double new_w,
                     EdgeWeights weights);

  /// Per-level and per-call repair metrics (no-ops without a registry).
  void RecordLevelRepair(uint32_t level, size_t touched);
  void RecordRepair(size_t touched);

  /// Allocates every table with unbuilt partitions and zero bits; the
  /// public constructors build the partitions, FromTreeStates restores them.
  struct Unbuilt {};
  PyramidIndex(const Graph& g, std::vector<double> weights,
               PyramidParams params, obs::MetricsRegistry* metrics, Unbuilt);

  /// Brings every same-seed bit in line with the partitions' seeds, one
  /// pool task per level.
  void CountVotes();

  const Graph* graph_;
  PyramidParams params_;
  uint32_t num_levels_;
  VoteRule rule_;
  std::vector<double> weights_;
  std::vector<VoronoiPartition> partitions_;  // pyramid-major, level-minor
  // Repair scratch shared by the k partitions of a level ([level-1]). A
  // level's repairs run one after another — serially in UpdateEdgeWeight,
  // inside the level's own task in UpdateEdgeWeights — so sharing is
  // race-free.
  std::vector<VoronoiPartition::Scratch> level_scratch_;
  // Bit BitMask(p) of same_seed_bits_[BitColumn(p, l)][e] is set iff the
  // level-l partition of pyramid p currently has both endpoints of e under
  // one seed; rule_ reads them as votes.
  std::vector<tier::Column<uint8_t>> same_seed_bits_;
  std::unique_ptr<ThreadPool> pool_;
  // UpdateEdgeWeights scratch: the pre-batch weight of each distinct batch
  // edge (overlay slot order), each update's overlay slot, and every
  // level's overlay ([level-1], replayed by that level's task).
  std::vector<double> batch_pre_weights_;
  std::vector<size_t> batch_slots_;
  std::vector<std::vector<double>> level_overlays_;
  // Per-level scratch for seed-change reporting (avoids reallocating in the
  // update hot path).
  std::vector<std::vector<NodeId>> seed_changed_scratch_;
  // Watched-node change reporting: per-level event buffers (levels are the
  // parallel unit, so level-local buffers are contention-free).
  std::vector<uint8_t> watched_;
  size_t num_watched_ = 0;  // Reconstruct skips its watch scan at zero
  std::vector<std::vector<VoteChange>> pending_changes_;  // [level-1]

  // Observability (optional; see docs/observability.md). Per-level
  // counters are recorded from the level's own pool task — the registry's
  // thread-local shards keep this contention-free (Lemma 13 parallelism).
  obs::MetricsRegistry* metrics_ = nullptr;
  struct {
    obs::CounterId repairs;
    obs::CounterId touched_nodes;
    obs::CounterId vote_flips;
    obs::CounterId rescales;
    obs::HistogramId touched_per_repair;
    std::vector<obs::CounterId> level_repairs;        // [level-1]
    std::vector<obs::CounterId> level_touched_nodes;  // [level-1]
  } m_;
};

}  // namespace anc

#endif  // ANC_PYRAMID_PYRAMID_INDEX_H_
