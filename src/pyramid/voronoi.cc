#include "pyramid/voronoi.h"

#include <algorithm>
#include <cmath>

namespace anc {

VoronoiPartition::Scratch::Scratch(uint32_t num_nodes)
    : queue_(num_nodes),
      touch_epoch_(num_nodes, 0),
      old_seed_(num_nodes, kInvalidNode) {}

void VoronoiPartition::Scratch::NextEpoch() {
  if (++epoch_ != 0) return;
  std::fill(touch_epoch_.begin(), touch_epoch_.end(), 0);
  epoch_ = 1;
}

size_t VoronoiPartition::Scratch::MemoryBytes() const {
  return queue_.MemoryBytes() + touch_epoch_.capacity() * sizeof(uint32_t) +
         (old_seed_.capacity() + touched_.capacity()) * sizeof(NodeId);
}

void VoronoiPartition::Build(const Graph& g,
                             const std::vector<double>& weights,
                             std::vector<NodeId> seeds) {
  const uint32_t n = g.NumNodes();
  graph_ = &g;
  seeds_ = std::move(seeds);
  nodes_.assign(n, Node{});

  // Multi-source Dijkstra with the seed set as super source. The heap is
  // transient: an index builds its partitions in parallel, so they cannot
  // borrow the per-level repair scratch.
  IndexedMinHeap queue(n);
  for (NodeId s : seeds_) {
    nodes_[s].dist = 0.0;
    nodes_[s].seed = s;
    queue.PushOrUpdate(s, 0.0);
  }
  while (!queue.empty()) {
    auto [x, dx] = queue.PopMin();
    const Node& from = nodes_[x];
    if (dx > from.dist) continue;  // stale (cannot happen: indexed heap)
    for (const Neighbor& nb : g.Neighbors(x)) {
      const double cand = from.dist + weights[nb.edge];
      Node& to = nodes_[nb.node];
      if (cand < to.dist) {
        to = {cand, from.seed, nb.edge};
        queue.PushOrUpdate(nb.node, cand);
      }
    }
  }
}

size_t VoronoiPartition::UpdateEdgeWeight(const Graph& g, EdgeWeights weights,
                                          EdgeId e, double old_w, double new_w,
                                          Scratch& scratch,
                                          std::vector<NodeId>* seed_changed) {
  if (old_w == new_w) return 0;
  const auto& [u, v] = g.Endpoints(e);
  scratch.NextEpoch();
  scratch.touched_.clear();
  scratch.queue_.Clear();

  if (new_w < old_w) {
    RunDecrease(g, weights, u, v, e, scratch);
  } else {
    RunIncrease(g, weights, u, v, e, scratch);
  }

  if (seed_changed != nullptr) {
    for (NodeId x : scratch.touched_) {
      if (scratch.old_seed_[x] != nodes_[x].seed) seed_changed->push_back(x);
    }
  }
  return scratch.touched_.size();
}

size_t VoronoiPartition::UpdateEdgeWeight(const Graph& g, EdgeWeights weights,
                                          EdgeId e, double old_w, double new_w,
                                          std::vector<NodeId>* seed_changed) {
  if (own_scratch_.num_nodes() != g.NumNodes()) {
    own_scratch_ = Scratch(g.NumNodes());
  }
  return UpdateEdgeWeight(g, weights, e, old_w, new_w, own_scratch_,
                          seed_changed);
}

void VoronoiPartition::RunDecrease(const Graph& g, EdgeWeights weights,
                                   NodeId u, NodeId v, EdgeId e,
                                   Scratch& scratch) {
  // Algorithm 1: seed the queue with whichever endpoint the cheaper edge
  // now improves, then run Dijkstra-like relaxation outward. Distances can
  // only decrease, so every relaxation is final-or-improvable and the
  // search touches exactly the affected region (Lemma 11/12).
  IndexedMinHeap& queue = scratch.queue_;
  if (TryImprove(u, v, e, weights, scratch)) {
    queue.PushOrUpdate(u, nodes_[u].dist);
  }
  if (TryImprove(v, u, e, weights, scratch)) {
    queue.PushOrUpdate(v, nodes_[v].dist);
  }
  while (!queue.empty()) {
    auto [x, dx] = queue.PopMin();
    (void)dx;
    for (const Neighbor& nb : g.Neighbors(x)) {
      if (TryImprove(nb.node, x, nb.edge, weights, scratch)) {
        queue.PushOrUpdate(nb.node, nodes_[nb.node].dist);
      }
    }
  }
}

void VoronoiPartition::RunIncrease(const Graph& g, EdgeWeights weights,
                                   NodeId u, NodeId v, EdgeId e,
                                   Scratch& scratch) {
  // Algorithm 3. A heavier edge matters only when it is a tree edge: the
  // orphaned endpoint's whole subtree loses its witness path and must be
  // reattached; everything else keeps a valid, unchanged shortest path.
  NodeId orphan = kInvalidNode;
  if (nodes_[v].parent_edge == e) {
    orphan = v;
  } else if (nodes_[u].parent_edge == e) {
    orphan = u;
  } else {
    return;
  }

  // Collect the orphaned subtree breadth first: a node's children are the
  // neighbors whose parent edge is the edge to it, which costs what the
  // boundary pass below costs. Touch records each node's seed, so until
  // the Dijkstra below starts, the touched nodes of this epoch are exactly
  // the subtree. Then reset it: distances to infinity, seeds invalid, tree
  // links cleared.
  const std::vector<NodeId>& subtree = scratch.touched_;
  Touch(orphan, scratch);
  for (size_t i = 0; i < subtree.size(); ++i) {
    for (const Neighbor& nb : g.Neighbors(subtree[i])) {
      if (nodes_[nb.node].parent_edge == nb.edge) Touch(nb.node, scratch);
    }
  }
  for (NodeId x : subtree) nodes_[x] = Node{};

  // Boundary pass: every subtree node can reattach through a neighbor
  // outside the subtree, whose distance is provably unchanged by the
  // increase (its tree path avoids e). Seed the queue with the best outside
  // witness of each subtree node.
  IndexedMinHeap& queue = scratch.queue_;
  for (NodeId x : subtree) {
    Node& node = nodes_[x];
    // A subtree node that is itself a seed (its own pre-reset seed)
    // re-roots at distance 0.
    if (scratch.old_seed_[x] == x) {
      node.dist = 0.0;
      node.seed = x;
      queue.PushOrUpdate(x, 0.0);
      continue;
    }
    for (const Neighbor& nb : g.Neighbors(x)) {
      if (scratch.touch_epoch_[nb.node] == scratch.epoch_) continue;
      const Node& outside = nodes_[nb.node];
      if (outside.dist == kInfDist) continue;
      const double cand = outside.dist + weights[nb.edge];
      if (cand < node.dist) node = {cand, outside.seed, nb.edge};
    }
    if (node.dist < kInfDist) queue.PushOrUpdate(x, node.dist);
  }

  // Dijkstra over the orphaned region to settle the reattachment.
  while (!queue.empty()) {
    auto [x, dx] = queue.PopMin();
    (void)dx;
    for (const Neighbor& nb : g.Neighbors(x)) {
      if (TryImprove(nb.node, x, nb.edge, weights, scratch)) {
        queue.PushOrUpdate(nb.node, nodes_[nb.node].dist);
      }
    }
  }
}

bool VoronoiPartition::TryImprove(NodeId a, NodeId b, EdgeId e_ab,
                                  EdgeWeights weights, Scratch& scratch) {
  const Node& from = nodes_[b];
  if (from.dist == kInfDist) return false;
  const double cand = from.dist + weights[e_ab];
  if (cand >= nodes_[a].dist) return false;
  Touch(a, scratch);
  nodes_[a] = {cand, from.seed, e_ab};
  return true;
}

void VoronoiPartition::Touch(NodeId v, Scratch& scratch) const {
  if (scratch.touch_epoch_[v] == scratch.epoch_) return;
  scratch.touch_epoch_[v] = scratch.epoch_;
  scratch.old_seed_[v] = nodes_[v].seed;
  scratch.touched_.push_back(v);
}

bool VoronoiPartition::ConsistentWith(const Graph& g,
                                      const std::vector<double>& weights) const {
  VoronoiPartition fresh;
  fresh.Build(g, weights, seeds_);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const double a = nodes_[v].dist;
    const double b = fresh.nodes_[v].dist;
    if (a == kInfDist || b == kInfDist) {
      if (a != b) return false;
      continue;
    }
    const double tol = 1e-9 * std::max({1.0, a, b});
    if (std::abs(a - b) > tol) return false;
  }
  return true;
}

void VoronoiPartition::ScaleDistances(double factor) {
  ANC_CHECK(factor > 0.0 && std::isfinite(factor),
            "scale factor must be positive and finite");
  for (Node& node : nodes_) {
    if (node.dist != kInfDist) node.dist *= factor;
  }
}

VoronoiPartition::TreeState VoronoiPartition::ExportTree() const {
  TreeState state;
  state.seeds = seeds_;
  state.seed_of.reserve(nodes_.size());
  state.dist.reserve(nodes_.size());
  state.parent_edge.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    state.seed_of.push_back(node.seed);
    state.dist.push_back(node.dist);
    state.parent_edge.push_back(node.parent_edge);
  }
  return state;
}

Status VoronoiPartition::RestoreTree(const Graph& g, TreeState state) {
  const uint32_t n = g.NumNodes();
  if (state.seed_of.size() != n || state.dist.size() != n ||
      state.parent_edge.size() != n) {
    return Status::InvalidArgument("tree state size mismatch");
  }
  for (NodeId s : state.seeds) {
    if (s >= n) return Status::InvalidArgument("seed id out of range");
  }
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId e = state.parent_edge[v];
    if (e == kInvalidEdge) continue;
    if (e >= g.NumEdges()) {
      return Status::InvalidArgument("parent edge out of range");
    }
    const auto& [a, b] = g.Endpoints(e);
    if (a != v && b != v) {
      return Status::InvalidArgument("parent edge does not touch its node");
    }
  }
  graph_ = &g;
  seeds_ = std::move(state.seeds);
  nodes_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    nodes_[v] = {state.dist[v], state.seed_of[v], state.parent_edge[v]};
  }
  return Status::OK();
}

size_t VoronoiPartition::MemoryBytes() const {
  return seeds_.capacity() * sizeof(NodeId) + nodes_.capacity() * sizeof(Node);
}

}  // namespace anc
