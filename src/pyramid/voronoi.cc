#include "pyramid/voronoi.h"

#include <algorithm>
#include <cmath>

namespace anc {

void VoronoiPartition::Build(const Graph& g,
                             const std::vector<double>& weights,
                             std::vector<NodeId> seeds) {
  const uint32_t n = g.NumNodes();
  seeds_ = std::move(seeds);
  seed_of_.assign(n, kInvalidNode);
  dist_.assign(n, kInfDist);
  parent_.assign(n, kInvalidNode);
  parent_edge_.assign(n, kInvalidEdge);
  first_child_.assign(n, kInvalidNode);
  next_sibling_.assign(n, kInvalidNode);
  prev_sibling_.assign(n, kInvalidNode);
  touch_epoch_.assign(n, 0);
  subtree_epoch_.assign(n, 0);
  old_seed_.assign(n, kInvalidNode);
  is_seed_.assign(n, 0);
  for (NodeId s : seeds_) is_seed_[s] = 1;
  epoch_ = 0;
  queue_ = IndexedMinHeap(n);

  // Multi-source Dijkstra with the seed set as super source.
  for (NodeId s : seeds_) {
    dist_[s] = 0.0;
    seed_of_[s] = s;
    queue_.PushOrUpdate(s, 0.0);
  }
  while (!queue_.empty()) {
    auto [x, dx] = queue_.PopMin();
    if (dx > dist_[x]) continue;  // stale entry (cannot happen with indexed heap)
    for (const Neighbor& nb : g.Neighbors(x)) {
      const double cand = dist_[x] + weights[nb.edge];
      if (cand < dist_[nb.node]) {
        dist_[nb.node] = cand;
        seed_of_[nb.node] = seed_of_[x];
        SetParent(nb.node, x, nb.edge);
        queue_.PushOrUpdate(nb.node, cand);
      }
    }
  }
}

size_t VoronoiPartition::UpdateEdgeWeight(const Graph& g, EdgeWeights weights,
                                          EdgeId e, double old_w, double new_w,
                                          std::vector<NodeId>* seed_changed) {
  if (old_w == new_w) return 0;
  const auto& [u, v] = g.Endpoints(e);
  ++epoch_;
  touched_.clear();
  queue_.Clear();

  if (new_w < old_w) {
    RunDecrease(g, weights, u, v, e);
  } else {
    RunIncrease(g, weights, u, v, e);
  }

  if (seed_changed != nullptr) {
    for (NodeId x : touched_) {
      if (old_seed_[x] != seed_of_[x]) seed_changed->push_back(x);
    }
  }
  return touched_.size();
}

void VoronoiPartition::RunDecrease(const Graph& g, EdgeWeights weights,
                                   NodeId u, NodeId v, EdgeId e) {
  // Algorithm 1: seed the queue with whichever endpoint the cheaper edge
  // now improves, then run Dijkstra-like relaxation outward. Distances can
  // only decrease, so every relaxation is final-or-improvable and the
  // search touches exactly the affected region (Lemma 11/12).
  if (TryImprove(u, v, e, weights)) queue_.PushOrUpdate(u, dist_[u]);
  if (TryImprove(v, u, e, weights)) queue_.PushOrUpdate(v, dist_[v]);
  while (!queue_.empty()) {
    auto [x, dx] = queue_.PopMin();
    (void)dx;
    for (const Neighbor& nb : g.Neighbors(x)) {
      if (TryImprove(nb.node, x, nb.edge, weights)) {
        queue_.PushOrUpdate(nb.node, dist_[nb.node]);
      }
    }
  }
}

void VoronoiPartition::RunIncrease(const Graph& g, EdgeWeights weights,
                                   NodeId u, NodeId v, EdgeId e) {
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

  std::vector<NodeId> subtree;
  CollectSubtree(orphan, &subtree);
  ++epoch_;  // CollectSubtree stamps subtree_epoch_ with the new epoch below

  // Reset the orphaned region: distances to infinity, seeds invalid, tree
  // links cleared. Children of subtree nodes are themselves in the subtree,
  // so clearing first_child_ wholesale is safe; only the orphan must be
  // unlinked from its (outside) parent.
  SetParent(orphan, kInvalidNode, kInvalidEdge);
  for (NodeId x : subtree) {
    Touch(x);
    subtree_epoch_[x] = epoch_;
    dist_[x] = kInfDist;
    seed_of_[x] = kInvalidNode;
    parent_[x] = kInvalidNode;
    parent_edge_[x] = kInvalidEdge;
    first_child_[x] = kInvalidNode;
    next_sibling_[x] = kInvalidNode;
    prev_sibling_[x] = kInvalidNode;
  }

  // Boundary pass: every subtree node can reattach through a neighbor
  // outside the subtree, whose distance is provably unchanged by the
  // increase (its tree path avoids e). Seed the queue with the best outside
  // witness of each subtree node.
  for (NodeId x : subtree) {
    // A subtree node that is itself a seed re-roots at distance 0.
    if (is_seed_[x] != 0) {
      dist_[x] = 0.0;
      seed_of_[x] = x;
      queue_.PushOrUpdate(x, 0.0);
      continue;
    }
    for (const Neighbor& nb : g.Neighbors(x)) {
      if (subtree_epoch_[nb.node] == epoch_) continue;  // inside subtree
      if (dist_[nb.node] == kInfDist) continue;
      const double cand = dist_[nb.node] + weights[nb.edge];
      if (cand < dist_[x]) {
        dist_[x] = cand;
        seed_of_[x] = seed_of_[nb.node];
        SetParent(x, nb.node, nb.edge);
      }
    }
    if (dist_[x] < kInfDist) queue_.PushOrUpdate(x, dist_[x]);
  }

  // Dijkstra over the orphaned region to settle the reattachment.
  while (!queue_.empty()) {
    auto [x, dx] = queue_.PopMin();
    (void)dx;
    for (const Neighbor& nb : g.Neighbors(x)) {
      if (TryImprove(nb.node, x, nb.edge, weights)) {
        queue_.PushOrUpdate(nb.node, dist_[nb.node]);
      }
    }
  }
}

bool VoronoiPartition::TryImprove(NodeId a, NodeId b, EdgeId e_ab,
                                  EdgeWeights weights) {
  if (dist_[b] == kInfDist) return false;
  const double cand = dist_[b] + weights[e_ab];
  if (cand >= dist_[a]) return false;
  Touch(a);
  dist_[a] = cand;
  seed_of_[a] = seed_of_[b];
  SetParent(a, b, e_ab);
  return true;
}

void VoronoiPartition::SetParent(NodeId v, NodeId parent, EdgeId parent_edge) {
  // Unlink from the previous parent's child list.
  const NodeId old_parent = parent_[v];
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
  parent_[v] = parent;
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

void VoronoiPartition::Touch(NodeId v) {
  if (touch_epoch_[v] == epoch_) return;
  touch_epoch_[v] = epoch_;
  old_seed_[v] = seed_of_[v];
  touched_.push_back(v);
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
  return {seeds_,       seed_of_,      dist_,         parent_,
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
  seeds_ = std::move(state.seeds);
  seed_of_ = std::move(state.seed_of);
  dist_ = std::move(state.dist);
  parent_ = std::move(state.parent);
  parent_edge_ = std::move(state.parent_edge);
  first_child_ = std::move(state.first_child);
  next_sibling_ = std::move(state.next_sibling);
  prev_sibling_ = std::move(state.prev_sibling);
  is_seed_.assign(n, 0);
  for (NodeId s : seeds_) is_seed_[s] = 1;
  touch_epoch_.assign(n, 0);
  subtree_epoch_.assign(n, 0);
  old_seed_.assign(n, kInvalidNode);
  epoch_ = 0;
  queue_ = IndexedMinHeap(n);
  return Status::OK();
}

size_t VoronoiPartition::MemoryBytes() const {
  size_t bytes = 0;
  bytes += seeds_.capacity() * sizeof(NodeId);
  bytes += is_seed_.capacity() * sizeof(uint8_t);
  bytes += seed_of_.capacity() * sizeof(NodeId);
  bytes += dist_.capacity() * sizeof(double);
  bytes += parent_.capacity() * sizeof(NodeId);
  bytes += parent_edge_.capacity() * sizeof(EdgeId);
  bytes += first_child_.capacity() * sizeof(NodeId);
  bytes += next_sibling_.capacity() * sizeof(NodeId);
  bytes += prev_sibling_.capacity() * sizeof(NodeId);
  return bytes;
}

}  // namespace anc
