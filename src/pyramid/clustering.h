#ifndef ANC_PYRAMID_CLUSTERING_H_
#define ANC_PYRAMID_CLUSTERING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "graph/clustering_types.h"
#include "pyramid/pyramid_index.h"

namespace anc::check {
class TestHooks;
}  // namespace anc::check

namespace anc {

/// The clustering algorithms of Section V-B are generic over any *vote
/// source*: a type exposing
///     const Graph& graph() const;
///     uint32_t num_levels() const;
///     bool EdgePassesVote(EdgeId e, uint32_t level) const;
/// Both the live PyramidIndex and the immutable serve::ClusterView
/// snapshots satisfy this, so concurrent snapshot queries are byte-
/// identical to single-threaded queries against the same vote table —
/// they run the exact same code. A source may also expose
///     template <typename Fn> auto WithPassTest(uint32_t level, Fn&& fn) const;
/// returning fn(test) for a callable test(e) == EdgePassesVote(e, level)
/// that it binds to the level once, so the kernels' edge loops skip the
/// per-edge level and owner lookups.

/// Returns fn(test) for the pass test of `level`: the source's own bound
/// test when it has one, the per-edge EdgePassesVote otherwise. Every
/// kernel writes its loop once, inside fn.
template <typename IndexT, typename Fn>
auto WithPassTest(const IndexT& index, uint32_t level, Fn&& fn) {
  if constexpr (requires { index.WithPassTest(level, fn); }) {
    return index.WithPassTest(level, std::forward<Fn>(fn));
  } else {
    return fn(
        [&index, level](EdgeId e) { return index.EdgePassesVote(e, level); });
  }
}

/// Even clustering (Section V-B.1): drop every edge whose voting result is
/// 0 at `level` and report the connected components of what remains.
/// O(n + m) per query, within Lemma 8's bound. Sensitive to single
/// mis-votes (a spurious passing edge merges two clusters), which Power
/// clustering avoids.
template <typename IndexT>
Clustering EvenClusteringOf(const IndexT& index, uint32_t level) {
  return WithPassTest(index, level, [&index](const auto& passes) {
    Clustering out;
    out.labels =
        FilteredComponents(index.graph(), passes, &out.num_clusters);
    return out;
  });
}

/// Power clustering / DirectedCluster (Section V-B.2): direct every passing
/// edge from the higher-degree endpoint to the lower-degree one (node id
/// breaks ties), then scan nodes from high rank to low; each still-
/// unclustered node collects all unclustered nodes reachable downhill into
/// one cluster. The rank order and the downhill half of every adjacency
/// list are fixed per graph (Graph::DegreeOrder / Graph::Downhill, built
/// once in O(n log n + m)), so a query is a single O(n + m) sweep — the
/// Lemma 8 bound without its per-query sort.
template <typename IndexT>
Clustering PowerClusteringOf(const IndexT& index, uint32_t level) {
  return WithPassTest(index, level, [&index](const auto& passes) {
    const Graph& g = index.graph();
    Clustering out;
    out.labels.assign(g.NumNodes(), kNoise);
    // One FIFO for the whole sweep: every node is enqueued exactly once, so
    // the BFS of each cluster continues from where the previous one ended.
    std::vector<NodeId> queue;
    queue.reserve(g.NumNodes());
    size_t head = 0;
    for (NodeId v : g.DegreeOrder()) {
      if (out.labels[v] != kNoise) continue;
      const uint32_t cluster = out.num_clusters++;
      out.labels[v] = cluster;
      queue.push_back(v);
      while (head < queue.size()) {
        const NodeId x = queue[head++];
        for (const Neighbor& nb : g.Downhill(x)) {
          if (out.labels[nb.node] != kNoise) continue;
          if (!passes(nb.edge)) continue;
          out.labels[nb.node] = cluster;
          queue.push_back(nb.node);
        }
      }
    }
    return out;
  });
}

/// The visited set of LocalClusterOf: one epoch stamp per node id, owned by
/// the calling thread and reused across its queries. A query marks what it
/// visits and never clears the set — opening the next query bumps the
/// epoch — so the set costs O(answer), not O(n). The stamps are cleared
/// only when the epoch wraps, which keeps a stale stamp from ever matching.
class VisitedStamp {
 public:
  /// The calling thread's instance.
  static VisitedStamp& ForThisThread();

  /// Opens an empty set over node ids [0, num_nodes); grows the stamp array
  /// to the largest graph this thread has queried.
  void Begin(uint32_t num_nodes);

  bool Contains(NodeId v) const { return stamps_[v] == epoch_; }
  void Insert(NodeId v) { stamps_[v] = epoch_; }

 private:
  /// Test-only seam: moves the epoch next to its wrap.
  friend class ::anc::check::TestHooks;

  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;
};

/// Sorts distinct node ids, each below `num_nodes`, ascending in O(a) for
/// a ids: an LSD radix sort of at most 3 passes of at most 11 bits over the
/// ceil(log2 num_nodes) bits an id can use. Below kRadixSortMinIds ids,
/// where the passes' bucket sweeps would cost more than the ids, std::sort
/// does it. The radix buffer is per-thread, like VisitedStamp.
void SortNodeIds(std::vector<NodeId>* ids, uint32_t num_nodes);

/// SortNodeIds hands fewer ids than this to std::sort. On random distinct
/// ids (4-vCPU x86-64 box) the radix passes win from ~24 ids at
/// n = 12,630 (2 passes of 7 bits), ~48 at n = 2^22 and ~110 at
/// n = 2^32 - 1 (3 passes of 11 bits).
inline constexpr size_t kRadixSortMinIds = 64;

/// Local cluster query (Lemma 9): the cluster containing `query` at
/// `level`, discovered by searching only passing edges from `query`. Cost
/// is proportional to the neighborhoods of the reported nodes, independent
/// of graph size: the visited set is a reused per-thread stamp array, the
/// member list doubles as the search frontier, and SortNodeIds returns the
/// a members sorted by id in O(a). The list always contains `query`.
template <typename IndexT>
std::vector<NodeId> LocalClusterOf(const IndexT& index, NodeId query,
                                   uint32_t level) {
  return WithPassTest(index, level, [&index, query](const auto& passes) {
    const Graph& g = index.graph();
    VisitedStamp& visited = VisitedStamp::ForThisThread();
    visited.Begin(g.NumNodes());
    visited.Insert(query);
    std::vector<NodeId> members = {query};
    for (size_t i = 0; i < members.size(); ++i) {
      for (const Neighbor& nb : g.Neighbors(members[i])) {
        if (visited.Contains(nb.node)) continue;
        if (!passes(nb.edge)) continue;
        visited.Insert(nb.node);
        members.push_back(nb.node);
      }
    }
    SortNodeIds(&members, g.NumNodes());
    return members;
  });
}

/// The finest granularity at which `query`'s cluster has at least
/// `min_size` members, starting from the finest level and zooming out
/// ("the smallest cluster that contains v", Problem 1.2). Returns the level
/// and fills `members`.
template <typename IndexT>
uint32_t SmallestClusterLevelOf(const IndexT& index, NodeId query,
                                uint32_t min_size,
                                std::vector<NodeId>* members) {
  for (uint32_t level = index.num_levels(); level >= 1; --level) {
    std::vector<NodeId> cluster = LocalClusterOf(index, query, level);
    if (cluster.size() >= min_size || level == 1) {
      if (members != nullptr) *members = std::move(cluster);
      return level;
    }
  }
  return 1;  // unreachable; level 1 returns above
}

/// Non-template entry points for the live index (the original public API).
Clustering EvenClustering(const PyramidIndex& index, uint32_t level);
Clustering PowerClustering(const PyramidIndex& index, uint32_t level);
std::vector<NodeId> LocalCluster(const PyramidIndex& index, NodeId query,
                                 uint32_t level);
uint32_t SmallestClusterLevel(const PyramidIndex& index, NodeId query,
                              uint32_t min_size, std::vector<NodeId>* members);

/// Interactive granularity cursor: the zoom-in / zoom-out operations of
/// Problem 1 as a tiny stateful wrapper over any vote source (the live
/// PyramidIndex or an immutable serve::ClusterView; the cursor does not
/// keep the source alive).
template <typename IndexT>
class BasicZoomCursor {
 public:
  /// Starts at the Theta(sqrt(n))-clusters granularity (DefaultLevel).
  explicit BasicZoomCursor(const IndexT& index)
      : index_(&index), level_(index.DefaultLevel()) {}

  uint32_t level() const { return level_; }

  /// Finer granularity (more, smaller clusters). Clamped at the top level.
  bool ZoomIn() {
    if (level_ >= index_->num_levels()) return false;
    ++level_;
    return true;
  }

  /// Coarser granularity (fewer, larger clusters). Clamped at level 1.
  bool ZoomOut() {
    if (level_ <= 1) return false;
    --level_;
    return true;
  }

  /// All clusters at the cursor's granularity (power clustering), through
  /// the source's own Clusters when it has one (a view's answer slot).
  Clustering Clusters() const {
    if constexpr (requires { index_->Clusters(level_); }) {
      return index_->Clusters(level_);
    } else {
      return PowerClusteringOf(*index_, level_);
    }
  }

  /// The local cluster of `query` at the cursor's granularity.
  std::vector<NodeId> Local(NodeId query) const {
    return LocalClusterOf(*index_, query, level_);
  }

 private:
  const IndexT* index_;
  uint32_t level_;
};

using ZoomCursor = BasicZoomCursor<PyramidIndex>;

}  // namespace anc

#endif  // ANC_PYRAMID_CLUSTERING_H_
