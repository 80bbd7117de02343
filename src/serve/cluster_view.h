#ifndef ANC_SERVE_CLUSTER_VIEW_H_
#define ANC_SERVE_CLUSTER_VIEW_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/anc.h"
#include "graph/clustering_types.h"
#include "graph/graph.h"
#include "pyramid/clustering.h"

namespace anc::serve {

/// The durability horizon of a published view: everything the single
/// writer had applied when the view was built.
struct Watermark {
  /// Ingest tickets resolved (applied or — under kDropOldest — shed) up to
  /// and including this sequence number. Tickets are issued by
  /// IngestQueue::Push starting at 1; 0 means "nothing ingested yet".
  uint64_t seq = 0;
  /// Highest activation timestamp applied to the index.
  double time = 0.0;
};

/// An immutable, point-in-time cluster snapshot published by the serve
/// writer (docs/serving.md).
///
/// A view captures the pyramid's per-level vote tallies — the complete
/// input of every Section V-B query algorithm — plus the level geometry,
/// and answers Clusters / LocalCluster / SmallestCluster / Zoom with the
/// exact same template code the live AncIndex runs, so results are
/// byte-identical to a quiesced single-threaded index at the same
/// watermark. Views are shared by shared_ptr: any number of query threads
/// read one concurrently with zero synchronization (all state is const
/// after construction), while the writer keeps mutating the live index and
/// publishing fresh views.
class ClusterView {
 public:
  ClusterView(const Graph& graph, AncIndex::ClusterState state,
              uint64_t epoch, Watermark watermark)
      : graph_(&graph),
        state_(std::move(state)),
        epoch_(epoch),
        watermark_(watermark),
        published_at_(std::chrono::steady_clock::now()) {}

  ClusterView(const ClusterView&) = delete;
  ClusterView& operator=(const ClusterView&) = delete;

  // --- Vote-source interface (pyramid/clustering.h templates) ------------
  const Graph& graph() const { return *graph_; }
  uint32_t num_levels() const { return state_.num_levels; }
  uint32_t DefaultLevel() const { return state_.default_level; }
  uint32_t vote_threshold() const { return state_.vote_threshold; }
  bool EdgePassesVote(EdgeId e, uint32_t level) const {
    return state_.vote_counts[level - 1][e] >= state_.vote_threshold;
  }
  uint32_t VotesOf(EdgeId e, uint32_t level) const {
    return state_.vote_counts[level - 1][e];
  }

  // --- Provenance --------------------------------------------------------

  /// Monotonic publication counter (1 = the view published at Start()).
  uint64_t epoch() const { return epoch_; }
  const Watermark& watermark() const { return watermark_; }

  /// Wall-clock age of the view (seconds since publication) — the
  /// staleness signal the health scorecards judge.
  double AgeSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         published_at_)
        .count();
  }

  // --- Queries (identical semantics to AncIndex) --------------------------

  /// All clusters at `level` (power clustering by default; Section V-B).
  Clustering Clusters(uint32_t level, bool power = true) const {
    return power ? PowerClusteringOf(*this, level)
                 : EvenClusteringOf(*this, level);
  }

  /// All clusters at the Theta(sqrt n) default granularity (Problem 1.1).
  Clustering Clusters() const { return Clusters(DefaultLevel()); }

  /// Local cluster of `query` at `level` (Problem 1.2).
  std::vector<NodeId> LocalCluster(NodeId query, uint32_t level) const {
    return LocalClusterOf(*this, query, level);
  }

  /// The smallest (finest-level) cluster of `query` with >= min_size
  /// members; *level_out receives the level when non-null.
  std::vector<NodeId> SmallestCluster(NodeId query, uint32_t min_size = 2,
                                      uint32_t* level_out = nullptr) const {
    std::vector<NodeId> members;
    const uint32_t level =
        SmallestClusterLevelOf(*this, query, min_size, &members);
    if (level_out != nullptr) *level_out = level;
    return members;
  }

  /// Zoom cursor over this view. The cursor borrows the view: keep the
  /// shared_ptr alive while using it.
  BasicZoomCursor<ClusterView> Zoom() const {
    return BasicZoomCursor<ClusterView>(*this);
  }

  /// Heap bytes of the captured vote tables.
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this);
    for (const auto& row : state_.vote_counts) {
      bytes += row.capacity() * sizeof(uint16_t);
    }
    return bytes;
  }

 private:
  const Graph* graph_;
  AncIndex::ClusterState state_;
  uint64_t epoch_;
  Watermark watermark_;
  std::chrono::steady_clock::time_point published_at_;
};

}  // namespace anc::serve

#endif  // ANC_SERVE_CLUSTER_VIEW_H_
