#ifndef ANC_SHARD_SHARDED_VIEW_H_
#define ANC_SHARD_SHARDED_VIEW_H_

#include <memory>
#include <utility>
#include <vector>

#include "graph/clustering_types.h"
#include "graph/graph.h"
#include "pyramid/clustering.h"
#include "serve/cluster_view.h"
#include "shard/router.h"
#include "util/status.h"

namespace anc::shard {

/// The scatter-gather read side of a ShardedServer (docs/sharding.md): a
/// consistent *vector watermark* — one immutable per-shard ClusterView
/// captured per shard — merged under the edge-ownership rule.
///
/// Every shard replica tallies votes over the full edge space (it simply
/// never sees activations outside its halo), and all replicas share the
/// same level geometry, so the merge is a per-edge dispatch: edge e's vote
/// row is read from its vote owner's view (Router::EdgeOwner). That makes
/// ShardedView itself a vote source in the pyramid/clustering.h sense, and
/// the Section V-B query algorithms run over it unchanged — on
/// partition-local streams the merged answers are byte-identical to a
/// single unsharded index (asserted in tests/shard_test.cc).
///
/// A view holds shared_ptrs to the per-shard snapshots: reads are
/// zero-copy and need no synchronization; the shard writers keep publishing
/// fresh epochs underneath without disturbing captured views.
class ShardedView {
 public:
  /// `graph` must outlive the view. `router` is the assignment snapshot the
  /// merge dispatches through — shared ownership, because a live migration
  /// can swap the server's router underneath a captured view (the view must
  /// keep merging under the assignment it was captured with). `views` must
  /// hold one non-null snapshot per router shard.
  ShardedView(const Graph& graph, std::shared_ptr<const Router> router,
              std::vector<std::shared_ptr<const serve::ClusterView>> views)
      : graph_(&graph), router_(std::move(router)), views_(std::move(views)) {
    ANC_CHECK(router_ != nullptr, "ShardedView needs a router snapshot");
    ANC_CHECK(views_.size() == router_->num_shards(),
              "ShardedView needs one snapshot per shard");
    for (const auto& view : views_) {
      ANC_CHECK(view != nullptr, "ShardedView snapshot missing");
    }
  }

  // --- Vote-source interface (pyramid/clustering.h templates) ------------
  const Graph& graph() const { return *graph_; }
  uint32_t num_levels() const { return views_[0]->num_levels(); }
  uint32_t DefaultLevel() const { return views_[0]->DefaultLevel(); }
  uint32_t vote_threshold() const { return views_[0]->vote_threshold(); }
  bool EdgePassesVote(EdgeId e, uint32_t level) const {
    return views_[router_->EdgeOwner(e)]->EdgePassesVote(e, level);
  }
  uint32_t VotesOf(EdgeId e, uint32_t level) const {
    return views_[router_->EdgeOwner(e)]->VotesOf(e, level);
  }

  // --- Vector watermark ---------------------------------------------------
  uint32_t num_shards() const { return static_cast<uint32_t>(views_.size()); }
  const serve::ClusterView& shard(uint32_t s) const { return *views_[s]; }
  /// The assignment this capture merges under.
  const Router& router() const { return *router_; }

  /// Per-shard publication epochs — the vector watermark of this capture.
  std::vector<uint64_t> Epochs() const {
    std::vector<uint64_t> epochs;
    epochs.reserve(views_.size());
    for (const auto& view : views_) epochs.push_back(view->epoch());
    return epochs;
  }

  /// Highest activation timestamp any shard has applied.
  double MaxTime() const {
    double max_time = 0.0;
    for (const auto& view : views_) {
      max_time = std::max(max_time, view->watermark().time);
    }
    return max_time;
  }

  // --- Queries (identical semantics to AncIndex / ClusterView) ------------

  /// All clusters at `level`, merged across shards (power clustering by
  /// default; Section V-B).
  Clustering Clusters(uint32_t level, bool power = true) const {
    return power ? PowerClusteringOf(*this, level)
                 : EvenClusteringOf(*this, level);
  }

  Clustering Clusters() const { return Clusters(DefaultLevel()); }

  /// Local cluster of `query` at `level` over the merged votes.
  std::vector<NodeId> LocalCluster(NodeId query, uint32_t level) const {
    return LocalClusterOf(*this, query, level);
  }

  /// The smallest merged cluster of `query` with >= min_size members.
  std::vector<NodeId> SmallestCluster(NodeId query, uint32_t min_size = 2,
                                      uint32_t* level_out = nullptr) const {
    std::vector<NodeId> members;
    const uint32_t level =
        SmallestClusterLevelOf(*this, query, min_size, &members);
    if (level_out != nullptr) *level_out = level;
    return members;
  }

  /// Zoom cursor over the merged votes; borrows the view.
  BasicZoomCursor<ShardedView> Zoom() const {
    return BasicZoomCursor<ShardedView>(*this);
  }

  /// Heap bytes of all captured per-shard snapshots.
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this);
    for (const auto& view : views_) bytes += view->MemoryBytes();
    return bytes;
  }

 private:
  const Graph* graph_;
  std::shared_ptr<const Router> router_;
  std::vector<std::shared_ptr<const serve::ClusterView>> views_;
};

}  // namespace anc::shard

#endif  // ANC_SHARD_SHARDED_VIEW_H_
