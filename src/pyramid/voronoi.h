#ifndef ANC_PYRAMID_VORONOI_H_
#define ANC_PYRAMID_VORONOI_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"
#include "util/indexed_heap.h"
#include "util/status.h"

namespace anc::check {
class TestHooks;
}  // namespace anc::check

namespace anc {

inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

/// The distance weights a partition repair reads: the shared anchored
/// weight array, optionally overlaid by a small batch-local array. The
/// batched repair (PyramidIndex::UpdateEdgeWeights) lets every level replay
/// the batch at its own pace, so an edge of the batch must read the level's
/// current value while every other edge reads the shared array. It marks
/// each batch edge in the shared array with the tag -(slot + 1) — real
/// weights are positive — so an unmarked read costs one sign test and no
/// extra memory access.
class EdgeWeights {
 public:
  /// A plain view of `weights` (no overlay; entries must be positive).
  EdgeWeights(const std::vector<double>& weights)  // NOLINT: implicit
      : base_(weights.data()) {}

  /// `weights` with tagged entries resolved through `overlay`.
  EdgeWeights(const std::vector<double>& weights, const double* overlay)
      : base_(weights.data()), overlay_(overlay) {}

  double operator[](EdgeId e) const {
    const double w = base_[e];
    if (w > 0.0) [[likely]] return w;
    return overlay_[SlotOf(w)];
  }

  /// The shared-array tag of overlay slot `slot`, and its inverse.
  static double Tag(size_t slot) { return -static_cast<double>(slot + 1); }
  static size_t SlotOf(double tag) { return static_cast<size_t>(-tag) - 1; }

 private:
  const double* base_;
  const double* overlay_ = nullptr;
};

/// One Voronoi partition of the graph under the distance weights S_t^{-1}
/// (Section V-A): a seed set S, and for every node v its closest seed
/// S[v], the distance dist(S[v], v), and the shortest-path tree (parent +
/// intrusive child list) rooted at the seeds.
///
/// The partition supports the paper's bounded incremental maintenance:
///  - UpdateEdgeWeight dispatches to Update-Decrease (Algorithm 1) or
///    Update-Increase (Algorithm 3); Probe (Algorithm 2) is TryImprove().
///  - The cost is O(sum_{x in U'} deg(x)) up to a log factor, where U' is
///    the set of nodes whose distance or seed changed plus the edge
///    endpoints (Lemma 12).
///
/// Weights are owned by the caller (PyramidIndex) and passed to every
/// operation; all partitions of the index read the same anchored weight
/// array. Unreachable nodes have seed kInvalidNode and distance kInfDist.
class VoronoiPartition {
 public:
  /// Builds the partition from scratch: one multi-source Dijkstra with the
  /// seed set as super source (by-product: the shortest path trees).
  void Build(const Graph& g, const std::vector<double>& weights,
             std::vector<NodeId> seeds);

  const std::vector<NodeId>& seeds() const { return seeds_; }
  NodeId SeedOf(NodeId v) const { return seed_of_[v]; }
  double Dist(NodeId v) const { return dist_[v]; }
  NodeId Parent(NodeId v) const { return parent_[v]; }
  EdgeId ParentEdge(NodeId v) const { return parent_edge_[v]; }

  /// True when u and v are dominated by the same seed (both reachable).
  bool SameSeed(NodeId u, NodeId v) const {
    return seed_of_[u] != kInvalidNode && seed_of_[u] == seed_of_[v];
  }

  /// Repairs the partition after the weight of edge e changed from `old_w`
  /// to `new_w`. `weights` must already contain `new_w` at index e. Nodes
  /// whose *seed* changed are appended to `seed_changed` (callers maintain
  /// vote counts from it). Returns the number of nodes whose distance or
  /// seed was touched (the |U'| of Lemma 12, for stats and tests).
  size_t UpdateEdgeWeight(const Graph& g, EdgeWeights weights, EdgeId e,
                          double old_w, double new_w,
                          std::vector<NodeId>* seed_changed);

  /// Recomputes everything from scratch and reports whether distances and
  /// seed reachability match (test / invariant checker). Seeds may validly
  /// differ between equal-distance ties, so only distances are compared.
  bool ConsistentWith(const Graph& g, const std::vector<double>& weights) const;

  /// Multiplies every stored distance by `factor` (> 0). A uniform scale of
  /// all edge weights scales all shortest distances identically and leaves
  /// tree structure and seed assignments untouched — this is how the index
  /// absorbs a batched rescale of the global decay factor (Lemma 10).
  void ScaleDistances(double factor);

  /// Heap-resident bytes of this partition (index-size accounting, Fig. 6).
  size_t MemoryBytes() const;

  /// Complete tree state (serialization support). The sibling links are
  /// included so a restored partition replays future updates *identically*
  /// — child-visit order breaks equal-distance ties. Scratch state is
  /// derived and excluded.
  struct TreeState {
    std::vector<NodeId> seeds;
    std::vector<NodeId> seed_of;
    std::vector<double> dist;
    std::vector<NodeId> parent;
    std::vector<EdgeId> parent_edge;
    std::vector<NodeId> first_child;
    std::vector<NodeId> next_sibling;
    std::vector<NodeId> prev_sibling;
  };

  TreeState ExportTree() const;

  /// Restores an exported tree over the same graph. Validates array sizes
  /// and id ranges; does NOT re-verify shortest-path optimality (the state
  /// is trusted, as with any loaded index).
  Status RestoreTree(const Graph& g, TreeState state);

 private:
  /// Test-only corruption seam (tests/check_test.cc): plants inconsistent
  /// cell assignments / distances for the invariant-checker tests.
  friend class ::anc::check::TestHooks;

  /// Probe (Algorithm 2): tries to improve a's distance via its neighbor b
  /// along edge e_ab. On success rewires a's parent to b and records a in
  /// the touched set. Returns true when a improved.
  bool TryImprove(NodeId a, NodeId b, EdgeId e_ab, EdgeWeights weights);

  void RunDecrease(const Graph& g, EdgeWeights weights, NodeId u, NodeId v,
                   EdgeId e);
  void RunIncrease(const Graph& g, EdgeWeights weights, NodeId u, NodeId v,
                   EdgeId e);

  /// Rewires the tree so that `parent` becomes the parent of v (unlinking v
  /// from its previous parent's child list first). parent == kInvalidNode
  /// detaches v.
  void SetParent(NodeId v, NodeId parent, EdgeId parent_edge);

  /// Collects the subtree rooted at `root` (inclusive) via the intrusive
  /// child lists.
  void CollectSubtree(NodeId root, std::vector<NodeId>* out) const;

  /// Marks v as touched in the current update epoch, remembering its
  /// pre-update seed the first time.
  void Touch(NodeId v);

  std::vector<NodeId> seeds_;
  std::vector<uint8_t> is_seed_;
  std::vector<NodeId> seed_of_;
  std::vector<double> dist_;
  std::vector<NodeId> parent_;
  std::vector<EdgeId> parent_edge_;
  // Intrusive doubly-linked sibling lists (O(1) unlink, no per-node heap
  // allocations; the index keeps k * ceil(log2 n) partitions alive).
  std::vector<NodeId> first_child_;
  std::vector<NodeId> next_sibling_;
  std::vector<NodeId> prev_sibling_;

  // Update-scoped scratch state.
  IndexedMinHeap queue_{0};
  std::vector<uint32_t> touch_epoch_;
  std::vector<NodeId> old_seed_;
  std::vector<NodeId> touched_;
  std::vector<uint32_t> subtree_epoch_;
  uint32_t epoch_ = 0;
};

}  // namespace anc

#endif  // ANC_PYRAMID_VORONOI_H_
