#include "graph/graph.h"

#include <algorithm>
#include <numeric>

namespace anc {

std::optional<EdgeId> Graph::FindEdge(NodeId u, NodeId v) const {
  if (u >= NumNodes() || v >= NumNodes()) return std::nullopt;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto adj = Neighbors(u);
  auto it = std::lower_bound(
      adj.begin(), adj.end(), v,
      [](const Neighbor& nb, NodeId target) { return nb.node < target; });
  if (it != adj.end() && it->node == v) return it->edge;
  return std::nullopt;
}

uint32_t Graph::MaxDegree() const {
  uint32_t best = 0;
  for (NodeId v = 0; v < NumNodes(); ++v) best = std::max(best, Degree(v));
  return best;
}

Status GraphBuilder::AddEdge(NodeId u, NodeId v) {
  if (u == v) {
    return Status::InvalidArgument("self loop on node " + std::to_string(u));
  }
  if (u > v) std::swap(u, v);
  SetNumNodes(v + 1);
  pending_.emplace_back(u, v);
  return Status::OK();
}

Graph GraphBuilder::Build() {
  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());

  Graph g;
  g.endpoints_ = std::move(pending_);
  pending_.clear();

  const uint32_t n = num_nodes_;
  const uint32_t m = static_cast<uint32_t>(g.endpoints_.size());
  num_nodes_ = 0;

  std::vector<uint32_t> degree(n, 0);
  for (const auto& [u, v] : g.endpoints_) {
    ++degree[u];
    ++degree[v];
  }
  g.offsets_.assign(n + 1, 0);
  for (uint32_t v = 0; v < n; ++v) g.offsets_[v + 1] = g.offsets_[v] + degree[v];
  g.adjacency_.resize(2ull * m);

  std::vector<uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    const auto& [u, v] = g.endpoints_[e];
    g.adjacency_[cursor[u]++] = {v, e};
    g.adjacency_[cursor[v]++] = {u, e};
  }
  // Endpoint pairs were emitted in sorted order, and the second components
  // for a fixed first are also sorted, so the adjacency built by the forward
  // scan is already sorted for the "u -> v" entries; the reverse entries need
  // a per-node sort.
  for (NodeId v = 0; v < n; ++v) {
    auto begin = g.adjacency_.begin() + g.offsets_[v];
    auto end = g.adjacency_.begin() + g.offsets_[v + 1];
    std::sort(begin, end, [](const Neighbor& a, const Neighbor& b) {
      return a.node < b.node;
    });
  }

  g.degree_order_.resize(n);
  std::iota(g.degree_order_.begin(), g.degree_order_.end(), 0);
  std::sort(g.degree_order_.begin(), g.degree_order_.end(),
            [&degree](NodeId a, NodeId b) {
              if (degree[a] != degree[b]) return degree[a] > degree[b];
              return a < b;
            });
  std::vector<uint32_t> rank(n);
  for (uint32_t i = 0; i < n; ++i) rank[g.degree_order_[i]] = i;
  g.downhill_offsets_.assign(n + 1, 0);
  g.downhill_.reserve(m);
  for (NodeId v = 0; v < n; ++v) {
    for (const Neighbor& nb : g.Neighbors(v)) {
      if (rank[nb.node] > rank[v]) g.downhill_.push_back(nb);
    }
    g.downhill_offsets_[v + 1] = static_cast<uint32_t>(g.downhill_.size());
  }
  return g;
}

}  // namespace anc
