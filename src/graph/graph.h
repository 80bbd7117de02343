#ifndef ANC_GRAPH_GRAPH_H_
#define ANC_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/status.h"

namespace anc {

using NodeId = uint32_t;
using EdgeId = uint32_t;

inline constexpr NodeId kInvalidNode = UINT32_MAX;
inline constexpr EdgeId kInvalidEdge = UINT32_MAX;

/// One adjacency entry: the neighbor node and the id of the connecting edge.
/// Edge ids are stable and shared by both directions of an undirected edge,
/// so per-edge state (activeness, similarity, votes) is stored once in
/// edge-indexed arrays.
struct Neighbor {
  NodeId node;
  EdgeId edge;
};

/// Immutable undirected, unweighted relation graph G(V,E) in CSR layout.
///
/// Nodes are dense ids [0, NumNodes()), edges dense ids [0, NumEdges()).
/// Per-node adjacency lists are sorted by neighbor id, which gives
/// O(log deg) edge lookup and linear-time sorted-merge common-neighbor
/// enumeration (the dominant operation of the active-similarity and
/// local-reinforcement computations).
///
/// Instances are created by GraphBuilder; the structure never changes
/// afterwards — an activation network updates edge *state*, not topology.
class Graph {
 public:
  Graph() = default;

  uint32_t NumNodes() const { return static_cast<uint32_t>(offsets_.size()) - 1; }
  uint32_t NumEdges() const { return static_cast<uint32_t>(endpoints_.size()); }

  uint32_t Degree(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Adjacency of v, sorted by neighbor id.
  std::span<const Neighbor> Neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// The two endpoints of edge e, with first < second.
  std::pair<NodeId, NodeId> Endpoints(EdgeId e) const { return endpoints_[e]; }

  /// Given edge e and one endpoint v, returns the opposite endpoint.
  NodeId Opposite(EdgeId e, NodeId v) const {
    const auto& [a, b] = endpoints_[e];
    return v == a ? b : a;
  }

  /// Edge id connecting u and v, or nullopt when (u,v) is not an edge.
  /// O(log min(deg(u), deg(v))).
  std::optional<EdgeId> FindEdge(NodeId u, NodeId v) const;

  /// Maximum degree over all nodes (0 for the empty graph).
  uint32_t MaxDegree() const;

  /// All nodes ranked by (degree desc, id asc): the scan order of power
  /// clustering (Section V-B.2). Fixed by the topology, so it is computed
  /// once per graph instead of once per query.
  std::span<const NodeId> DegreeOrder() const { return degree_order_; }

  /// The neighbors of v that rank after v in DegreeOrder() — the downhill
  /// direction of power clustering — sorted by neighbor id. Each edge
  /// appears at exactly one of its endpoints.
  std::span<const Neighbor> Downhill(NodeId v) const {
    return {downhill_.data() + downhill_offsets_[v],
            downhill_offsets_[v + 1] - downhill_offsets_[v]};
  }

 private:
  friend class GraphBuilder;

  std::vector<uint32_t> offsets_ = {0};  // size n+1
  std::vector<Neighbor> adjacency_;      // size 2m, sorted per node
  std::vector<std::pair<NodeId, NodeId>> endpoints_;  // size m
  std::vector<NodeId> degree_order_;              // size n
  std::vector<uint32_t> downhill_offsets_ = {0};  // size n+1
  std::vector<Neighbor> downhill_;                // size m, sorted per node
};

/// Accumulates edges and produces an immutable Graph.
///
/// Self-loops are rejected; duplicate edges are collapsed to one. Node count
/// is max(node id)+1 unless SetNumNodes reserves a larger universe (for
/// graphs with isolated vertices).
class GraphBuilder {
 public:
  /// Declares at least `n` nodes (ids [0, n) valid even if untouched by
  /// edges).
  void SetNumNodes(uint32_t n) {
    if (n > num_nodes_) num_nodes_ = n;
  }

  /// Adds the undirected edge (u, v). Self loops are invalid.
  Status AddEdge(NodeId u, NodeId v);

  uint32_t num_pending_edges() const { return static_cast<uint32_t>(pending_.size()); }

  /// Sorts, deduplicates and freezes into a Graph, including its power-
  /// clustering order (O(n log n + m)). The builder is left empty.
  Graph Build();

 private:
  uint32_t num_nodes_ = 0;
  std::vector<std::pair<NodeId, NodeId>> pending_;
};

}  // namespace anc

#endif  // ANC_GRAPH_GRAPH_H_
