#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "activation/stream_generators.h"
#include "check/test_hooks.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "pyramid/clustering.h"
#include "pyramid/pyramid_index.h"
#include "serve/cluster_view.h"
#include "shard/router.h"
#include "shard/sharded_server.h"
#include "shard/sharded_view.h"
#include "util/rng.h"

namespace anc {
namespace {

// --- Reference kernels ---------------------------------------------------
//
// The Section V-B query kernels as they stood before the per-graph power
// order and the stamped visited set: a per-query degree sort with a rank
// array and a deque BFS, and a hash-set DFS. The production kernels must
// match them byte for byte on every vote source.

template <typename IndexT>
Clustering ReferencePowerClusteringOf(const IndexT& index, uint32_t level) {
  const Graph& g = index.graph();
  const uint32_t n = g.NumNodes();

  // Rank nodes by (degree desc, id asc); edges point from low rank index
  // (strong) to high rank index (weak).
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
    const uint32_t da = g.Degree(a);
    const uint32_t db = g.Degree(b);
    if (da != db) return da > db;
    return a < b;
  });
  std::vector<uint32_t> rank(n);
  for (uint32_t i = 0; i < n; ++i) rank[order[i]] = i;

  Clustering out;
  out.labels.assign(n, kNoise);
  std::deque<NodeId> queue;
  for (NodeId v : order) {
    if (out.labels[v] != kNoise) continue;
    const uint32_t cluster = out.num_clusters++;
    out.labels[v] = cluster;
    queue.push_back(v);
    while (!queue.empty()) {
      NodeId x = queue.front();
      queue.pop_front();
      for (const Neighbor& nb : g.Neighbors(x)) {
        if (out.labels[nb.node] != kNoise) continue;
        if (rank[nb.node] < rank[x]) continue;  // only travel downhill
        if (!index.EdgePassesVote(nb.edge, level)) continue;
        out.labels[nb.node] = cluster;
        queue.push_back(nb.node);
      }
    }
  }
  return out;
}

template <typename IndexT>
std::vector<NodeId> ReferenceLocalClusterOf(const IndexT& index, NodeId query,
                                            uint32_t level) {
  const Graph& g = index.graph();
  std::vector<NodeId> members;
  // Visited set sized to the discovered frontier, not the graph: a local
  // query must not pay O(n). A hash set keyed by node id delivers that.
  std::vector<NodeId> stack = {query};
  std::unordered_set<NodeId> visited = {query};
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    members.push_back(x);
    for (const Neighbor& nb : g.Neighbors(x)) {
      if (!index.EdgePassesVote(nb.edge, level)) continue;
      if (visited.insert(nb.node).second) stack.push_back(nb.node);
    }
  }
  std::sort(members.begin(), members.end());
  return members;
}

/// Asserts every kernel answer over `source` equals the reference: the
/// power clustering and every node's local cluster, at every level.
template <typename IndexT>
void ExpectKernelsMatchReference(const IndexT& source, const char* what,
                                 uint64_t seed) {
  const Graph& g = source.graph();
  for (uint32_t level = 1; level <= source.num_levels(); ++level) {
    const Clustering got = PowerClusteringOf(source, level);
    const Clustering want = ReferencePowerClusteringOf(source, level);
    ASSERT_EQ(got.num_clusters, want.num_clusters)
        << what << " seed " << seed << " level " << level;
    ASSERT_EQ(got.labels, want.labels)
        << what << " seed " << seed << " level " << level;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(LocalClusterOf(source, v, level),
                ReferenceLocalClusterOf(source, v, level))
          << what << " seed " << seed << " level " << level << " node " << v;
    }
  }
}

/// Random graph families that stress the rank order: dense degree ties
/// (rings with fixed chords, stars, complete bipartite), isolated nodes,
/// skewed degrees (Barabasi-Albert) and the 1-node graph.
Graph RandomTieHeavyGraph(uint64_t seed, Rng& rng) {
  if (seed == 0) {
    GraphBuilder single;
    single.SetNumNodes(1);
    return single.Build();
  }
  GraphBuilder b;
  const uint32_t n = 2 + static_cast<uint32_t>(rng.Uniform(60));
  switch (seed % 5) {
    case 0: {  // ring with fixed chords: every degree equal
      const uint32_t hops = 1 + static_cast<uint32_t>(rng.Uniform(3));
      for (NodeId v = 0; v < n; ++v) {
        for (uint32_t h = 1; h <= hops && h < n; ++h) {
          EXPECT_TRUE(b.AddEdge(v, (v + h) % n).ok());
        }
      }
      break;
    }
    case 1: {  // complete bipartite: two degree classes
      const uint32_t left = 1 + static_cast<uint32_t>(rng.Uniform(n - 1));
      for (NodeId u = 0; u < left; ++u) {
        for (NodeId v = left; v < n; ++v) EXPECT_TRUE(b.AddEdge(u, v).ok());
      }
      break;
    }
    case 2:  // skewed degrees
      return BarabasiAlbert(std::max<uint32_t>(n, 4), 2, rng);
    default: {  // sparse random edges with isolated nodes left over
      const uint32_t edges = static_cast<uint32_t>(rng.Uniform(2 * n + 1));
      for (uint32_t i = 0; i < edges; ++i) {
        const NodeId u = static_cast<NodeId>(rng.Uniform(n));
        const NodeId v = static_cast<NodeId>(rng.Uniform(n));
        if (u != v) {
          EXPECT_TRUE(b.AddEdge(u, v).ok());
        }
      }
      break;
    }
  }
  b.SetNumNodes(n + static_cast<uint32_t>(rng.Uniform(4)));  // isolated tail
  return b.Build();
}

/// Random same-seed bits of k pyramids over `g` in the serving layer's
/// snapshot layout.
AncIndex::ClusterState RandomClusterState(const Graph& g, uint32_t k,
                                          uint32_t threshold, Rng& rng) {
  const VoteRule rule(k, threshold);
  const uint32_t levels = PyramidIndex::NumLevelsFor(g.NumNodes());
  std::vector<std::vector<uint8_t>> columns(
      static_cast<size_t>(levels) * rule.groups(),
      std::vector<uint8_t>(g.NumEdges()));
  for (size_t c = 0; c < columns.size(); ++c) {
    const uint32_t bits = std::min<uint32_t>(8, k - (c % rule.groups()) * 8);
    for (uint8_t& byte : columns[c]) {
      byte = static_cast<uint8_t>(rng.Uniform(1u << bits));
    }
  }
  return {VoteTable(rule, std::move(columns)),
          PyramidIndex::DefaultLevelFor(g.NumNodes())};
}

/// Two 5-cliques joined by a single bridge, with strongly separated weights:
/// intra edges cheap (high similarity), bridge expensive.
struct CliquePair {
  Graph graph;
  EdgeId bridge;
  std::vector<double> weights;
};

CliquePair MakeCliquePair() {
  GraphBuilder b;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) EXPECT_TRUE(b.AddEdge(u, v).ok());
  }
  for (NodeId u = 5; u < 10; ++u) {
    for (NodeId v = u + 1; v < 10; ++v) EXPECT_TRUE(b.AddEdge(u, v).ok());
  }
  EXPECT_TRUE(b.AddEdge(4, 5).ok());
  CliquePair out;
  out.graph = b.Build();
  out.bridge = *out.graph.FindEdge(4, 5);
  out.weights.assign(out.graph.NumEdges(), 0.2);
  out.weights[out.bridge] = 50.0;
  return out;
}

PyramidParams Params(uint32_t k = 4) {
  PyramidParams p;
  p.num_pyramids = k;
  p.seed = 7;
  return p;
}

TEST(ClusteringTest, EvenClusteringSeparatesCliquesAtFineLevel) {
  CliquePair data = MakeCliquePair();
  PyramidIndex idx(data.graph, data.weights, Params());
  const uint32_t level = idx.num_levels();  // finest: 8 seeds for 10 nodes
  Clustering c = EvenClustering(idx, level);
  // The two clique interiors must not merge across the expensive bridge.
  EXPECT_NE(c.labels[0], c.labels[9]);
}

TEST(ClusteringTest, Level1IsOneClusterPerComponent) {
  CliquePair data = MakeCliquePair();
  PyramidIndex idx(data.graph, data.weights, Params());
  Clustering c = EvenClustering(idx, 1);
  EXPECT_EQ(c.num_clusters, 1u);  // connected graph
  for (uint32_t l : c.labels) EXPECT_EQ(l, 0u);
}

TEST(ClusteringTest, PowerClusteringCoversAllNodes) {
  CliquePair data = MakeCliquePair();
  PyramidIndex idx(data.graph, data.weights, Params());
  for (uint32_t level = 1; level <= idx.num_levels(); ++level) {
    Clustering c = PowerClustering(idx, level);
    EXPECT_EQ(c.NumAssigned(), data.graph.NumNodes());
  }
}

TEST(ClusteringTest, PowerRefinesEven) {
  // Every power cluster is contained in an even cluster (power only walks
  // downhill over the same passing edges).
  Rng rng(3);
  Graph g = BarabasiAlbert(200, 3, rng);
  std::vector<double> w(g.NumEdges());
  for (double& x : w) x = 0.2 + rng.NextDouble();
  PyramidIndex idx(g, w, Params());
  for (uint32_t level : {2u, idx.DefaultLevel(), idx.num_levels()}) {
    Clustering even = EvenClustering(idx, level);
    Clustering power = PowerClustering(idx, level);
    // Map each power cluster to the even cluster of its first member.
    std::vector<uint32_t> owner(power.num_clusters, kNoise);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const uint32_t pc = power.labels[v];
      if (owner[pc] == kNoise) {
        owner[pc] = even.labels[v];
      } else {
        EXPECT_EQ(owner[pc], even.labels[v])
            << "power cluster spans even clusters at level " << level;
      }
    }
    EXPECT_GE(power.num_clusters, even.num_clusters);
  }
}

TEST(ClusteringTest, ZoomMonotonicity) {
  // Finer levels never produce fewer clusters on average; specifically the
  // finest level has at least as many clusters as level 1.
  Rng rng(5);
  Graph g = BarabasiAlbert(300, 3, rng);
  std::vector<double> w(g.NumEdges());
  for (double& x : w) x = 0.2 + rng.NextDouble();
  PyramidIndex idx(g, w, Params());
  Clustering coarse = EvenClustering(idx, 1);
  Clustering fine = EvenClustering(idx, idx.num_levels());
  EXPECT_GT(fine.num_clusters, coarse.num_clusters);
}

TEST(ClusteringTest, LocalClusterMatchesEvenComponent) {
  Rng rng(7);
  Graph g = BarabasiAlbert(150, 3, rng);
  std::vector<double> w(g.NumEdges());
  for (double& x : w) x = 0.2 + rng.NextDouble();
  PyramidIndex idx(g, w, Params());
  const uint32_t level = idx.DefaultLevel();
  Clustering even = EvenClustering(idx, level);
  for (NodeId q : {NodeId{0}, NodeId{17}, NodeId{93}}) {
    std::vector<NodeId> local = LocalCluster(idx, q, level);
    std::set<NodeId> expected;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (even.labels[v] == even.labels[q]) expected.insert(v);
    }
    EXPECT_EQ(std::set<NodeId>(local.begin(), local.end()), expected)
        << "query " << q;
  }
}

TEST(ClusteringTest, LocalClusterAlwaysContainsQuery) {
  CliquePair data = MakeCliquePair();
  PyramidIndex idx(data.graph, data.weights, Params());
  for (uint32_t level = 1; level <= idx.num_levels(); ++level) {
    for (NodeId q = 0; q < data.graph.NumNodes(); ++q) {
      std::vector<NodeId> members = LocalCluster(idx, q, level);
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), q));
    }
  }
}

TEST(ClusteringTest, SmallestClusterLevelZoomsOutUntilSized) {
  CliquePair data = MakeCliquePair();
  PyramidIndex idx(data.graph, data.weights, Params());
  std::vector<NodeId> members;
  const uint32_t level = SmallestClusterLevel(idx, 0, 3, &members);
  EXPECT_GE(members.size(), 3u);
  EXPECT_LE(level, idx.num_levels());
  EXPECT_TRUE(std::binary_search(members.begin(), members.end(), 0u));
}

TEST(ClusteringTest, ZoomCursorNavigation) {
  CliquePair data = MakeCliquePair();
  PyramidIndex idx(data.graph, data.weights, Params());
  ZoomCursor cursor(idx);
  EXPECT_EQ(cursor.level(), idx.DefaultLevel());
  const uint32_t start = cursor.level();
  EXPECT_TRUE(cursor.ZoomIn() || start == idx.num_levels());
  while (cursor.ZoomOut()) {
  }
  EXPECT_EQ(cursor.level(), 1u);
  EXPECT_FALSE(cursor.ZoomOut());
  while (cursor.ZoomIn()) {
  }
  EXPECT_EQ(cursor.level(), idx.num_levels());
  EXPECT_FALSE(cursor.ZoomIn());
  Clustering c = cursor.Clusters();
  EXPECT_EQ(c.NumAssigned(), data.graph.NumNodes());
  std::vector<NodeId> local = cursor.Local(0);
  EXPECT_FALSE(local.empty());
}

TEST(ClusteringTest, PowerClusteringAvoidsChainMerge) {
  // The paper's motivation for power clustering: even clustering merges
  // everything along a chain of passing edges, power clustering stops at
  // the degree ridge. Build a barbell: two cliques plus a 2-node path
  // bridge whose edges (atypically) pass the vote.
  GraphBuilder b;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) ASSERT_TRUE(b.AddEdge(u, v).ok());
  }
  for (NodeId u = 7; u < 12; ++u) {
    for (NodeId v = u + 1; v < 12; ++v) ASSERT_TRUE(b.AddEdge(u, v).ok());
  }
  ASSERT_TRUE(b.AddEdge(4, 5).ok());
  ASSERT_TRUE(b.AddEdge(5, 6).ok());
  ASSERT_TRUE(b.AddEdge(6, 7).ok());
  Graph g = b.Build();
  // Uniform weights: at level 1 all edges pass everywhere.
  PyramidIndex idx(g, std::vector<double>(g.NumEdges(), 1.0), Params());
  Clustering even = EvenClustering(idx, 1);
  EXPECT_EQ(even.num_clusters, 1u);  // chain merge
  Clustering power = PowerClustering(idx, 1);
  // Power clustering can still produce one cluster here only if a single
  // downhill sweep covers everything; with two degree peaks (the cliques)
  // it must produce at least two clusters.
  EXPECT_GE(power.num_clusters, 2u);
}

TEST(ClusteringKernelTest, GraphPowerOrderMatchesPerQueryRanking) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    const Graph g = RandomTieHeavyGraph(seed, rng);
    std::vector<NodeId> order(g.NumNodes());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
      if (g.Degree(a) != g.Degree(b)) return g.Degree(a) > g.Degree(b);
      return a < b;
    });
    ASSERT_TRUE(std::equal(order.begin(), order.end(),
                           g.DegreeOrder().begin(), g.DegreeOrder().end()))
        << "seed " << seed;
    std::vector<uint32_t> rank(g.NumNodes());
    for (uint32_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
    size_t downhill_entries = 0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      std::vector<NodeId> want;
      for (const Neighbor& nb : g.Neighbors(v)) {
        if (rank[nb.node] > rank[v]) want.push_back(nb.node);
      }
      std::vector<NodeId> got;
      for (const Neighbor& nb : g.Downhill(v)) {
        got.push_back(nb.node);
        ASSERT_EQ(g.Opposite(nb.edge, v), nb.node);
      }
      ASSERT_EQ(got, want) << "seed " << seed << " node " << v;
      downhill_entries += got.size();
    }
    EXPECT_EQ(downhill_entries, g.NumEdges());  // one direction per edge
  }
}

TEST(ClusteringKernelTest, KernelsMatchReferenceOnRandomGraphsAndVotes) {
  // 240 seeded graphs; each is queried through a live PyramidIndex, a
  // ClusterView over a random vote table, and a 2-shard ShardedView
  // merging two random tables under a random vertex partition.
  for (uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(1000 + seed);
    const Graph g = RandomTieHeavyGraph(seed, rng);

    std::vector<double> weights(g.NumEdges());
    for (double& w : weights) w = 0.1 + 2.0 * rng.NextDouble();
    PyramidParams params;
    params.num_pyramids = 1 + static_cast<uint32_t>(rng.Uniform(4));
    params.seed = seed;
    params.num_threads = 1;
    PyramidIndex index(g, weights, params);
    ExpectKernelsMatchReference(index, "PyramidIndex", seed);
    if (HasFatalFailure()) return;

    // Up to 12 pyramids, so some tables span two bit bytes per edge.
    const uint32_t k = 1 + static_cast<uint32_t>(rng.Uniform(12));
    const uint32_t threshold = 1 + static_cast<uint32_t>(rng.Uniform(k));
    const auto view = std::make_shared<const serve::ClusterView>(
        g, RandomClusterState(g, k, threshold, rng), /*epoch=*/1,
        serve::Watermark{});
    ExpectKernelsMatchReference(*view, "ClusterView", seed);
    if (HasFatalFailure()) return;

    shard::Partition partition;
    partition.num_shards = 2;
    partition.node_shard.resize(g.NumNodes());
    for (uint32_t& s : partition.node_shard) {
      s = static_cast<uint32_t>(rng.Uniform(2));
    }
    auto router = std::make_shared<const shard::Router>(g, partition);
    // Both shards share the level geometry and threshold; only the tallies
    // differ, as with real shard replicas.
    AncIndex::ClusterState second = RandomClusterState(g, k, threshold, rng);
    const shard::ShardedView merged(
        g, router,
        {view, std::make_shared<const serve::ClusterView>(
                   g, std::move(second), 1, serve::Watermark{})});
    ExpectKernelsMatchReference(merged, "ShardedView", seed);
    if (HasFatalFailure()) return;
  }
}

TEST(ClusteringKernelTest, VisitedStampWrapClearsStaleMarks) {
  // Drive a fresh thread's visited epoch to the wrap, so the next query
  // opens at the wrapped epoch: it must see neither the zeros of
  // never-visited nodes nor the marks of earlier rounds as visited.
  Rng rng(11);
  Graph g = BarabasiAlbert(150, 3, rng);
  std::vector<double> w(g.NumEdges());
  for (double& x : w) x = 0.2 + rng.NextDouble();
  PyramidIndex idx(g, w, Params());
  std::thread fresh([&] {
    for (int round = 0; round < 3; ++round) {
      check::TestHooks::SetVisitedEpoch(UINT32_MAX);
      for (uint32_t level = 1; level <= idx.num_levels(); ++level) {
        for (NodeId q = 0; q < g.NumNodes(); q += 7) {
          ASSERT_EQ(LocalCluster(idx, q, level),
                    ReferenceLocalClusterOf(idx, q, level))
              << "round " << round << " query " << q << " level " << level;
        }
      }
    }
  });
  fresh.join();
}

/// `count` distinct ids drawn uniformly from [0, num_nodes), always with
/// the largest id among them, in random order.
std::vector<NodeId> RandomDistinctIds(uint32_t num_nodes, size_t count,
                                      Rng& rng) {
  std::unordered_set<NodeId> seen = {num_nodes - 1};
  while (seen.size() < count) {
    seen.insert(static_cast<NodeId>(rng.Uniform(num_nodes)));
  }
  std::vector<NodeId> ids(seen.begin(), seen.end());
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.Uniform(i)]);
  }
  return ids;
}

TEST(ClusteringKernelTest, SortNodeIdsMatchesStdSort) {
  // Graph sizes whose ids need 0 to 32 key bits, across the one-, two- and
  // three-pass radix widths; answers on both sides of the std::sort cutoff.
  const uint32_t graph_sizes[] = {1,    2,    63,           64,
                                  65,   2047, 2048,         2049,
                                  (1u << 22) + 3, UINT32_MAX};
  const size_t answer_sizes[] = {1,
                                 2,
                                 kRadixSortMinIds - 1,
                                 kRadixSortMinIds,
                                 kRadixSortMinIds + 1,
                                 2 * kRadixSortMinIds + 7,
                                 3000};
  Rng rng(37);
  for (uint32_t num_nodes : graph_sizes) {
    for (size_t size : answer_sizes) {
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<NodeId> ids =
            RandomDistinctIds(num_nodes, std::min<size_t>(size, num_nodes), rng);
        std::vector<NodeId> want = ids;
        std::sort(want.begin(), want.end());
        SortNodeIds(&ids, num_nodes);
        ASSERT_EQ(ids, want) << "n " << num_nodes << " size " << size;
      }
    }
  }
}

/// Every answer of `got` equals the one of `want`: power and even
/// clusterings and every node's local cluster at every level, and every
/// node's smallest cluster.
template <typename WantT, typename GotT>
void ExpectSameAnswers(const WantT& want, const GotT& got,
                       const std::string& what) {
  const Graph& g = want.graph();
  ASSERT_EQ(got.num_levels(), want.num_levels()) << what;
  for (uint32_t level = 1; level <= want.num_levels(); ++level) {
    const Clustering want_power = PowerClusteringOf(want, level);
    const Clustering got_power = PowerClusteringOf(got, level);
    ASSERT_EQ(got_power.num_clusters, want_power.num_clusters)
        << what << " power level " << level;
    ASSERT_EQ(got_power.labels, want_power.labels)
        << what << " power level " << level;
    const Clustering want_even = EvenClusteringOf(want, level);
    const Clustering got_even = EvenClusteringOf(got, level);
    ASSERT_EQ(got_even.num_clusters, want_even.num_clusters)
        << what << " even level " << level;
    ASSERT_EQ(got_even.labels, want_even.labels)
        << what << " even level " << level;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(LocalClusterOf(got, v, level), LocalClusterOf(want, v, level))
          << what << " local level " << level << " node " << v;
    }
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (uint32_t min_size : {2u, 20u}) {
      std::vector<NodeId> want_members;
      std::vector<NodeId> got_members;
      ASSERT_EQ(SmallestClusterLevelOf(got, v, min_size, &got_members),
                SmallestClusterLevelOf(want, v, min_size, &want_members))
          << what << " smallest node " << v;
      ASSERT_EQ(got_members, want_members) << what << " smallest node " << v;
    }
  }
}

TEST(ClusteringKernelTest, EveryVoteSourceAnswersByteIdentically) {
  // Four communities with no edges between them, so a community-aligned
  // 2-shard partition cuts nothing and every stream is partition-local.
  Rng rng(41);
  PlantedPartitionParams planted;
  planted.num_communities = 4;
  planted.min_size = 70;  // level-1 answers pass the radix cutoff
  planted.max_size = 100;
  planted.p_in = 0.15;
  planted.mixing = 0.0;
  const GroundTruthGraph data = PlantedPartition(planted, rng);
  const Graph& g = data.graph;
  const ActivationStream stream =
      CommunityBiasedStream(g, data.truth.labels, 20, 0.05, 4.0, rng);

  // k = 4 pyramids read one vote byte per edge; k = 12 read two.
  for (uint32_t k : {4u, 12u}) {
    const std::string what = "k=" + std::to_string(k);
    AncConfig config;
    config.pyramid.num_pyramids = k;
    config.pyramid.seed = 5;
    config.mode = AncMode::kOnline;
    AncIndex oracle(g, config);
    ASSERT_TRUE(oracle.ApplyStream(stream).ok());
    const PyramidIndex& live = oracle.index();

    const auto view = std::make_shared<const serve::ClusterView>(
        g, oracle.ExportClusterState(), /*epoch=*/1, serve::Watermark{});
    ExpectSameAnswers(live, *view, what + " ClusterView");
    if (HasFatalFailure()) return;

    shard::Partition one_shard;
    one_shard.num_shards = 1;
    one_shard.node_shard.assign(g.NumNodes(), 0);
    const shard::ShardedView single(
        g, std::make_shared<const shard::Router>(g, one_shard), {view});
    ExpectSameAnswers(live, single, what + " ShardedView k=1");
    if (HasFatalFailure()) return;

    if (k != 4) continue;
    shard::ShardedOptions options;
    options.partition.num_shards = 2;
    options.partition.explicit_assignment = data.truth.labels;
    for (uint32_t& s : options.partition.explicit_assignment) s %= 2;
    auto created = shard::ShardedServer::Create(g, config, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    shard::ShardedServer& server = *created.value();
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.SubmitStream(stream).ok());
    ASSERT_TRUE(server.Flush(std::chrono::milliseconds(30000)).ok());
    EXPECT_EQ(server.halo_deliveries(), 0u);
    ExpectSameAnswers(live, server.View(), what + " ShardedView k=2");
    server.Stop();
    if (HasFatalFailure()) return;
  }
}

TEST(ServeClusteringKernelTest, FourThreadsQueryTwoServersWhileWritersPublish) {
  // Query threads keep one visited-stamp array each and move between two
  // graphs of different size (the array grows and is reused), while both
  // servers' writers publish fresh views underneath.
  Rng rng(29);
  const Graph small = BarabasiAlbert(120, 3, rng);
  const Graph large = BarabasiAlbert(700, 3, rng);
  const ActivationStream small_stream = UniformStream(small, 12, 0.05, rng);
  const ActivationStream large_stream = UniformStream(large, 12, 0.05, rng);

  AncConfig config;
  config.pyramid.num_pyramids = 2;
  config.mode = AncMode::kOnline;
  auto make_server = [&config](const Graph& g, uint32_t shards) {
    shard::ShardedOptions options;
    options.partition.num_shards = shards;
    options.serve.snapshot_every_activations = 1;
    auto created = shard::ShardedServer::Create(g, config, options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return created.ok() ? std::move(created.value()) : nullptr;
  };
  std::unique_ptr<shard::ShardedServer> servers[2] = {make_server(small, 1),
                                                      make_server(large, 2)};
  for (auto& server : servers) {
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server->Start().ok());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&servers, &stop, r] {
      Rng local(500 + r);
      uint64_t reads = 0;
      while (!stop.load(std::memory_order_acquire) || reads < 8) {
        shard::ShardedServer& server = *servers[(reads + r) % 2];
        const shard::ShardedView view = server.View();
        const NodeId node =
            static_cast<NodeId>(local.Uniform(view.graph().NumNodes()));
        const uint32_t level =
            1 + static_cast<uint32_t>(local.Uniform(view.num_levels()));
        ASSERT_EQ(view.LocalCluster(node, level),
                  ReferenceLocalClusterOf(view, node, level));
        ASSERT_TRUE(server.LocalCluster(node).ok());
        if (reads % 8 == 0) {
          const Clustering got = view.Clusters(level);
          const Clustering want = ReferencePowerClusteringOf(view, level);
          ASSERT_EQ(got.labels, want.labels);
          ASSERT_TRUE(server.Clusters().ok());
        }
        ++reads;
      }
    });
  }
  std::thread producer([&] {
    const size_t steps = std::max(small_stream.size(), large_stream.size());
    for (size_t i = 0; i < steps; ++i) {
      if (i < small_stream.size()) {
        ASSERT_TRUE(servers[0]->Submit(small_stream[i]).ok());
      }
      if (i < large_stream.size()) {
        ASSERT_TRUE(servers[1]->Submit(large_stream[i]).ok());
      }
    }
  });
  producer.join();
  for (auto& server : servers) {
    ASSERT_TRUE(server->Flush(std::chrono::milliseconds(30000)).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  for (auto& server : servers) {
    server->Stop();
    EXPECT_TRUE(server->writer_status().ok());
  }
}

/// The smallest-cluster answer of SmallestClusterLevelOf, from the
/// reference local kernel.
template <typename IndexT>
std::vector<NodeId> ReferenceSmallestClusterOf(const IndexT& index,
                                               NodeId query,
                                               uint32_t min_size) {
  for (uint32_t level = index.num_levels(); level > 1; --level) {
    std::vector<NodeId> members = ReferenceLocalClusterOf(index, query, level);
    if (members.size() >= min_size) return members;
  }
  return ReferenceLocalClusterOf(index, query, 1);
}

TEST(ServeClusteringKernelTest, FourThreadsRunEveryQueryOnOneServerWhileItsWriterPublishes) {
  // Every query thread keeps its own visited stamps and radix buffer while
  // the one-shard server's writer publishes a view per batch: each
  // captured view answers as the reference kernels do, and the server's
  // own query front answers throughout.
  Rng rng(31);
  const Graph g = BarabasiAlbert(900, 3, rng);
  const ActivationStream stream = UniformStream(g, 40, 0.05, rng);

  AncConfig config;
  config.pyramid.num_pyramids = 3;
  config.mode = AncMode::kOnline;
  shard::ShardedOptions options;
  options.partition.num_shards = 1;
  options.serve.snapshot_every_activations = 1;
  auto created = shard::ShardedServer::Create(g, config, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  shard::ShardedServer& server = *created.value();
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&server, &stop, r] {
      Rng local(700 + r);
      uint64_t reads = 0;
      while (!stop.load(std::memory_order_acquire) || reads < 8) {
        const shard::ShardedView view = server.View();
        const NodeId node =
            static_cast<NodeId>(local.Uniform(view.graph().NumNodes()));
        const uint32_t level =
            1 + static_cast<uint32_t>(local.Uniform(view.num_levels()));
        ASSERT_EQ(view.LocalCluster(node, level),
                  ReferenceLocalClusterOf(view, node, level));
        ASSERT_EQ(view.SmallestCluster(node, 64),
                  ReferenceSmallestClusterOf(view, node, 64));
        const auto local_answer = server.LocalCluster(node, level);
        ASSERT_TRUE(local_answer.ok());
        ASSERT_TRUE(std::is_sorted(local_answer->begin(), local_answer->end()));
        const auto smallest = server.SmallestCluster(node, 64);
        ASSERT_TRUE(smallest.ok());
        ASSERT_TRUE(std::binary_search(smallest->begin(), smallest->end(), node));
        if (reads % 8 == 0) {
          ASSERT_EQ(view.Clusters(level).labels,
                    ReferencePowerClusteringOf(view, level).labels);
          ASSERT_TRUE(server.Clusters().ok());
        }
        ++reads;
      }
    });
  }
  ASSERT_TRUE(server.SubmitStream(stream).ok());
  ASSERT_TRUE(server.Flush(std::chrono::milliseconds(30000)).ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  server.Stop();
  EXPECT_TRUE(server.writer_status().ok());
}

}  // namespace
}  // namespace anc
