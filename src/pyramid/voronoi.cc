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
         (old_seed_.capacity() + touched_.capacity() + subtree_.capacity()) *
             sizeof(NodeId);
}

void VoronoiPartition::Build(const Graph& g,
                             const std::vector<double>& weights,
                             std::vector<NodeId> seeds) {
  const uint32_t n = g.NumNodes();
  graph_ = &g;
  seeds_ = std::move(seeds);
  seed_of_.assign(n, kInvalidNode);
  dist_.assign(n, kInfDist);
  parent_edge_.assign(n, kInvalidEdge);
  first_child_.assign(n, kInvalidNode);
  next_sibling_.assign(n, kInvalidNode);
  prev_sibling_.assign(n, kInvalidNode);

  // Multi-source Dijkstra with the seed set as super source. The heap is
  // transient: an index builds its partitions in parallel, so they cannot
  // borrow the per-level repair scratch.
  IndexedMinHeap queue(n);
  for (NodeId s : seeds_) {
    dist_[s] = 0.0;
    seed_of_[s] = s;
    queue.PushOrUpdate(s, 0.0);
  }
  while (!queue.empty()) {
    auto [x, dx] = queue.PopMin();
    if (dx > dist_[x]) continue;  // stale entry (cannot happen with indexed heap)
    for (const Neighbor& nb : g.Neighbors(x)) {
      const double cand = dist_[x] + weights[nb.edge];
      if (cand < dist_[nb.node]) {
        dist_[nb.node] = cand;
        seed_of_[nb.node] = seed_of_[x];
        SetParent(nb.node, x, nb.edge);
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
      if (scratch.old_seed_[x] != seed_of_[x]) seed_changed->push_back(x);
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
  if (TryImprove(u, v, e, weights, scratch)) queue.PushOrUpdate(u, dist_[u]);
  if (TryImprove(v, u, e, weights, scratch)) queue.PushOrUpdate(v, dist_[v]);
  while (!queue.empty()) {
    auto [x, dx] = queue.PopMin();
    (void)dx;
    for (const Neighbor& nb : g.Neighbors(x)) {
      if (TryImprove(nb.node, x, nb.edge, weights, scratch)) {
        queue.PushOrUpdate(nb.node, dist_[nb.node]);
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
  if (parent_edge_[v] == e) {
    orphan = v;
  } else if (parent_edge_[u] == e) {
    orphan = u;
  } else {
    return;
  }

  std::vector<NodeId>& subtree = scratch.subtree_;
  CollectSubtree(orphan, &subtree);

  // Reset the orphaned region: distances to infinity, seeds invalid, tree
  // links cleared. Children of subtree nodes are themselves in the subtree,
  // so clearing first_child_ wholesale is safe; only the orphan must be
  // unlinked from its (outside) parent. Touch records each node's seed
  // before the reset, and until the Dijkstra below starts, the touched
  // nodes of this epoch are exactly the subtree.
  SetParent(orphan, kInvalidNode, kInvalidEdge);
  for (NodeId x : subtree) {
    Touch(x, scratch);
    dist_[x] = kInfDist;
    seed_of_[x] = kInvalidNode;
    parent_edge_[x] = kInvalidEdge;
    first_child_[x] = kInvalidNode;
    next_sibling_[x] = kInvalidNode;
    prev_sibling_[x] = kInvalidNode;
  }

  // Boundary pass: every subtree node can reattach through a neighbor
  // outside the subtree, whose distance is provably unchanged by the
  // increase (its tree path avoids e). Seed the queue with the best outside
  // witness of each subtree node.
  IndexedMinHeap& queue = scratch.queue_;
  for (NodeId x : subtree) {
    // A subtree node that is itself a seed (its own pre-reset seed)
    // re-roots at distance 0.
    if (scratch.old_seed_[x] == x) {
      dist_[x] = 0.0;
      seed_of_[x] = x;
      queue.PushOrUpdate(x, 0.0);
      continue;
    }
    for (const Neighbor& nb : g.Neighbors(x)) {
      if (scratch.touch_epoch_[nb.node] == scratch.epoch_) continue;
      if (dist_[nb.node] == kInfDist) continue;
      const double cand = dist_[nb.node] + weights[nb.edge];
      if (cand < dist_[x]) {
        dist_[x] = cand;
        seed_of_[x] = seed_of_[nb.node];
        SetParent(x, nb.node, nb.edge);
      }
    }
    if (dist_[x] < kInfDist) queue.PushOrUpdate(x, dist_[x]);
  }

  // Dijkstra over the orphaned region to settle the reattachment.
  while (!queue.empty()) {
    auto [x, dx] = queue.PopMin();
    (void)dx;
    for (const Neighbor& nb : g.Neighbors(x)) {
      if (TryImprove(nb.node, x, nb.edge, weights, scratch)) {
        queue.PushOrUpdate(nb.node, dist_[nb.node]);
      }
    }
  }
}

bool VoronoiPartition::TryImprove(NodeId a, NodeId b, EdgeId e_ab,
                                  EdgeWeights weights, Scratch& scratch) {
  if (dist_[b] == kInfDist) return false;
  const double cand = dist_[b] + weights[e_ab];
  if (cand >= dist_[a]) return false;
  Touch(a, scratch);
  dist_[a] = cand;
  seed_of_[a] = seed_of_[b];
  SetParent(a, b, e_ab);
  return true;
}

void VoronoiPartition::SetParent(NodeId v, NodeId parent, EdgeId parent_edge) {
  // Unlink from the previous parent's child list.
  const NodeId old_parent = Parent(v);
  if (old_parent != kInvalidNode) {
    const NodeId prev = prev_sibling_[v];
    const NodeId next = next_sibling_[v];
    if (prev != kInvalidNode) {
      next_sibling_[prev] = next;
    } else if (first_child_[old_parent] == v) {
      first_child_[old_parent] = next;
    }
    if (next != kInvalidNode) prev_sibling_[next] = prev;
  }
  parent_edge_[v] = parent_edge;
  prev_sibling_[v] = kInvalidNode;
  next_sibling_[v] = kInvalidNode;
  if (parent != kInvalidNode) {
    const NodeId head = first_child_[parent];
    next_sibling_[v] = head;
    if (head != kInvalidNode) prev_sibling_[head] = v;
    first_child_[parent] = v;
  }
}

void VoronoiPartition::CollectSubtree(NodeId root,
                                      std::vector<NodeId>* out) const {
  out->clear();
  out->push_back(root);
  for (size_t i = 0; i < out->size(); ++i) {
    for (NodeId c = first_child_[(*out)[i]]; c != kInvalidNode;
         c = next_sibling_[c]) {
      out->push_back(c);
    }
  }
}

void VoronoiPartition::Touch(NodeId v, Scratch& scratch) const {
  if (scratch.touch_epoch_[v] == scratch.epoch_) return;
  scratch.touch_epoch_[v] = scratch.epoch_;
  scratch.old_seed_[v] = seed_of_[v];
  scratch.touched_.push_back(v);
}

bool VoronoiPartition::ConsistentWith(const Graph& g,
                                      const std::vector<double>& weights) const {
  VoronoiPartition fresh;
  fresh.Build(g, weights, seeds_);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const double a = dist_[v];
    const double b = fresh.dist_[v];
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
  for (double& d : dist_) {
    if (d != kInfDist) d *= factor;
  }
}

VoronoiPartition::TreeState VoronoiPartition::ExportTree() const {
  std::vector<NodeId> parent(parent_edge_.size());
  for (NodeId v = 0; v < parent.size(); ++v) parent[v] = Parent(v);
  return {seeds_,       seed_of_,      dist_,         std::move(parent),
          parent_edge_, first_child_,  next_sibling_, prev_sibling_};
}

Status VoronoiPartition::RestoreTree(const Graph& g, TreeState state) {
  const uint32_t n = g.NumNodes();
  if (state.seed_of.size() != n || state.dist.size() != n ||
      state.parent.size() != n || state.parent_edge.size() != n ||
      state.first_child.size() != n || state.next_sibling.size() != n ||
      state.prev_sibling.size() != n) {
    return Status::InvalidArgument("tree state size mismatch");
  }
  for (NodeId s : state.seeds) {
    if (s >= n) return Status::InvalidArgument("seed id out of range");
  }
  auto in_range = [n](const std::vector<NodeId>& ids) {
    for (NodeId v : ids) {
      if (v != kInvalidNode && v >= n) return false;
    }
    return true;
  };
  if (!in_range(state.parent) || !in_range(state.first_child) ||
      !in_range(state.next_sibling) || !in_range(state.prev_sibling)) {
    return Status::InvalidArgument("tree link out of range");
  }
  // The parent is stored as its tree edge alone, so the two must agree.
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId e = state.parent_edge[v];
    if (e == kInvalidEdge) {
      if (state.parent[v] != kInvalidNode) {
        return Status::InvalidArgument("parent without a parent edge");
      }
      continue;
    }
    if (e >= g.NumEdges()) {
      return Status::InvalidArgument("parent edge out of range");
    }
    const auto& [a, b] = g.Endpoints(e);
    if ((a != v || b != state.parent[v]) && (b != v || a != state.parent[v])) {
      return Status::InvalidArgument("parent edge does not join v to parent");
    }
  }
  graph_ = &g;
  seeds_ = std::move(state.seeds);
  seed_of_ = std::move(state.seed_of);
  dist_ = std::move(state.dist);
  parent_edge_ = std::move(state.parent_edge);
  first_child_ = std::move(state.first_child);
  next_sibling_ = std::move(state.next_sibling);
  prev_sibling_ = std::move(state.prev_sibling);
  return Status::OK();
}

size_t VoronoiPartition::MemoryBytes() const {
  size_t bytes = 0;
  bytes += seeds_.capacity() * sizeof(NodeId);
  bytes += seed_of_.capacity() * sizeof(NodeId);
  bytes += dist_.capacity() * sizeof(double);
  bytes += parent_edge_.capacity() * sizeof(EdgeId);
  bytes += first_child_.capacity() * sizeof(NodeId);
  bytes += next_sibling_.capacity() * sizeof(NodeId);
  bytes += prev_sibling_.capacity() * sizeof(NodeId);
  return bytes;
}

}  // namespace anc
