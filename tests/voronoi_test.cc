#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "check/test_hooks.h"
#include "datasets/synthetic.h"
#include "pyramid/voronoi.h"
#include "util/rng.h"

namespace anc {
namespace {

/// The weighted graph of Fig. 2(a)/Fig. 3 is not reproduced verbatim (node
/// ids differ); these tests build their own shapes.

Graph Path5() {
  GraphBuilder b;
  for (NodeId v = 0; v + 1 < 5; ++v) EXPECT_TRUE(b.AddEdge(v, v + 1).ok());
  return b.Build();
}

TEST(VoronoiTest, SingleSeedIsDijkstraTree) {
  Graph g = Path5();
  std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  VoronoiPartition part;
  part.Build(g, w, {0});
  EXPECT_EQ(part.SeedOf(4), 0u);
  EXPECT_DOUBLE_EQ(part.Dist(0), 0.0);
  EXPECT_DOUBLE_EQ(part.Dist(1), 1.0);
  EXPECT_DOUBLE_EQ(part.Dist(2), 3.0);
  EXPECT_DOUBLE_EQ(part.Dist(3), 6.0);
  EXPECT_DOUBLE_EQ(part.Dist(4), 10.0);
  EXPECT_EQ(part.Parent(4), 3u);
  EXPECT_EQ(part.Parent(0), kInvalidNode);
}

TEST(VoronoiTest, TwoSeedsSplitThePath) {
  Graph g = Path5();
  std::vector<double> w(4, 1.0);
  VoronoiPartition part;
  part.Build(g, w, {0, 4});
  EXPECT_EQ(part.SeedOf(0), 0u);
  EXPECT_EQ(part.SeedOf(1), 0u);
  EXPECT_EQ(part.SeedOf(3), 4u);
  EXPECT_EQ(part.SeedOf(4), 4u);
  EXPECT_TRUE(part.SameSeed(0, 1));
  EXPECT_FALSE(part.SameSeed(1, 3));
}

TEST(VoronoiTest, DisconnectedNodesUnreachable) {
  GraphBuilder b;
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  b.SetNumNodes(3);
  Graph g = b.Build();
  std::vector<double> w = {1.0};
  VoronoiPartition part;
  part.Build(g, w, {0});
  EXPECT_EQ(part.SeedOf(2), kInvalidNode);
  EXPECT_EQ(part.Dist(2), kInfDist);
  EXPECT_FALSE(part.SameSeed(0, 2));
}

TEST(VoronoiTest, DecreaseReroutesThroughCheaperEdge) {
  // Square 0-1-2-3-0; seed 0. Edge (2,3) expensive at first.
  GraphBuilder b;
  ASSERT_TRUE(b.AddEdge(0, 1).ok());  // e0
  ASSERT_TRUE(b.AddEdge(1, 2).ok());  // e1
  ASSERT_TRUE(b.AddEdge(2, 3).ok());  // e2
  ASSERT_TRUE(b.AddEdge(0, 3).ok());  // e3
  Graph g = b.Build();
  std::vector<double> w = {1.0, 1.0, 10.0, 1.0};
  VoronoiPartition part;
  part.Build(g, w, {0});
  EXPECT_DOUBLE_EQ(part.Dist(2), 2.0);  // via 0-1-2
  // Make (2,3) cheap: 2 should now be reached via 0-3-2 at 1 + 0.5.
  const EdgeId e2 = *g.FindEdge(2, 3);
  w[e2] = 0.5;
  std::vector<NodeId> changed;
  part.UpdateEdgeWeight(g, w, e2, 10.0, 0.5, &changed);
  EXPECT_DOUBLE_EQ(part.Dist(2), 1.5);
  EXPECT_EQ(part.Parent(2), 3u);
  EXPECT_TRUE(part.ConsistentWith(g, w));
}

TEST(VoronoiTest, IncreaseOnNonTreeEdgeIsFree) {
  GraphBuilder b;
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  ASSERT_TRUE(b.AddEdge(0, 2).ok());
  Graph g = b.Build();
  // Edge ids follow sorted endpoint order; set weights by lookup so the
  // direct edge (0,2) is the expensive non-tree one.
  std::vector<double> w(g.NumEdges(), 1.0);
  const EdgeId non_tree = *g.FindEdge(0, 2);
  w[non_tree] = 5.0;
  VoronoiPartition part;
  part.Build(g, w, {0});
  ASSERT_NE(part.ParentEdge(2), non_tree);
  w[non_tree] = 50.0;
  std::vector<NodeId> changed;
  const size_t touched =
      part.UpdateEdgeWeight(g, w, non_tree, 5.0, 50.0, &changed);
  EXPECT_EQ(touched, 0u);
  EXPECT_TRUE(changed.empty());
  EXPECT_TRUE(part.ConsistentWith(g, w));
}

TEST(VoronoiTest, IncreaseOnTreeEdgeReattachesSubtree) {
  Graph g = Path5();
  std::vector<double> w(4, 1.0);
  VoronoiPartition part;
  part.Build(g, w, {0, 4});
  // 1 hangs off 0; raising (0,1) pushes 1 to seed 4's side? Path: 0-1-2-3-4,
  // seeds 0 and 4; node 1 at dist 1 from 0 and 3 from 4.
  const EdgeId e01 = *g.FindEdge(0, 1);
  w[e01] = 10.0;
  std::vector<NodeId> changed;
  part.UpdateEdgeWeight(g, w, e01, 1.0, 10.0, &changed);
  EXPECT_TRUE(part.ConsistentWith(g, w));
  EXPECT_EQ(part.SeedOf(1), 4u);  // now cheaper via 4-3-2-1 = 3
  EXPECT_DOUBLE_EQ(part.Dist(1), 3.0);
  // Node 1's seed changed; it must be reported.
  EXPECT_NE(std::find(changed.begin(), changed.end(), 1u), changed.end());
}

TEST(VoronoiTest, IncreaseCanDisconnectSubtree) {
  GraphBuilder b;
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  Graph g = b.Build();
  std::vector<double> w = {1.0};
  VoronoiPartition part;
  part.Build(g, w, {0});
  // Raising the only edge still leaves node 1 reachable (just farther).
  w[0] = 5.0;
  std::vector<NodeId> changed;
  part.UpdateEdgeWeight(g, w, 0, 1.0, 5.0, &changed);
  EXPECT_DOUBLE_EQ(part.Dist(1), 5.0);
  EXPECT_EQ(part.SeedOf(1), 0u);
  EXPECT_TRUE(part.ConsistentWith(g, w));
}

TEST(VoronoiTest, SeedInsideOrphanedSubtreeSurvives) {
  // Path 0-1-2 with seeds {0, 2}: no orphan case; craft one where a seed is
  // inside a subtree: seeds {0}, path 0-1-2; raise (0,1): both 1 and 2
  // reattach through the same (now heavier) edge.
  Graph g = Path5();
  std::vector<double> w(4, 1.0);
  VoronoiPartition part;
  part.Build(g, w, {2});
  const EdgeId e12 = *g.FindEdge(1, 2);
  w[e12] = 4.0;
  std::vector<NodeId> changed;
  part.UpdateEdgeWeight(g, w, e12, 1.0, 4.0, &changed);
  EXPECT_TRUE(part.ConsistentWith(g, w));
  EXPECT_DOUBLE_EQ(part.Dist(1), 4.0);
  EXPECT_DOUBLE_EQ(part.Dist(0), 5.0);
}

class VoronoiPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VoronoiPropertyTest, RandomUpdatesStayConsistentWithRebuild) {
  // The core index invariant (Lemmas 11-12): after any sequence of weight
  // increases and decreases, the incrementally maintained partition has the
  // same distances as a from-scratch Dijkstra.
  Rng rng(GetParam());
  Graph g = BarabasiAlbert(120, 3, rng);
  std::vector<double> w(g.NumEdges());
  for (double& x : w) x = 0.5 + rng.NextDouble();

  const uint32_t num_seeds = 1 + static_cast<uint32_t>(rng.Uniform(12));
  VoronoiPartition part;
  part.Build(g, w, rng.SampleWithoutReplacement(g.NumNodes(), num_seeds));

  for (int step = 0; step < 120; ++step) {
    const EdgeId e = static_cast<EdgeId>(rng.Uniform(g.NumEdges()));
    const double old_w = w[e];
    // Mix of sharpenings (decrease, like an activation) and fades
    // (increase, like decay relative to the rest).
    const double new_w = rng.Bernoulli(0.5) ? old_w * (0.2 + 0.6 * rng.NextDouble())
                                            : old_w * (1.2 + 2.0 * rng.NextDouble());
    w[e] = new_w;
    part.UpdateEdgeWeight(g, w, e, old_w, new_w, nullptr);
    if (step % 10 == 9) {
      ASSERT_TRUE(part.ConsistentWith(g, w)) << "seed " << GetParam()
                                             << " step " << step;
    }
  }
  EXPECT_TRUE(part.ConsistentWith(g, w));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoronoiPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(VoronoiTest, SeedChangeReportingMatchesDiff) {
  // Whatever the update reports as seed-changed must equal the diff of
  // seed assignments before and after.
  Rng rng(77);
  Graph g = BarabasiAlbert(100, 2, rng);
  std::vector<double> w(g.NumEdges());
  for (double& x : w) x = 0.5 + rng.NextDouble();
  VoronoiPartition part;
  part.Build(g, w, rng.SampleWithoutReplacement(g.NumNodes(), 8));

  for (int step = 0; step < 60; ++step) {
    std::vector<NodeId> before(g.NumNodes());
    for (NodeId v = 0; v < g.NumNodes(); ++v) before[v] = part.SeedOf(v);
    const EdgeId e = static_cast<EdgeId>(rng.Uniform(g.NumEdges()));
    const double old_w = w[e];
    const double new_w =
        rng.Bernoulli(0.5) ? old_w * 0.3 : old_w * 3.0;
    w[e] = new_w;
    std::vector<NodeId> reported;
    part.UpdateEdgeWeight(g, w, e, old_w, new_w, &reported);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const bool changed = before[v] != part.SeedOf(v);
      const bool in_report =
          std::find(reported.begin(), reported.end(), v) != reported.end();
      EXPECT_EQ(changed, in_report) << "node " << v << " step " << step;
    }
  }
}

void ExpectSameTree(const VoronoiPartition& a, const VoronoiPartition& b,
                    int step) {
  const VoronoiPartition::TreeState ta = a.ExportTree();
  const VoronoiPartition::TreeState tb = b.ExportTree();
  EXPECT_EQ(ta.seeds, tb.seeds) << "step " << step;
  EXPECT_EQ(ta.seed_of, tb.seed_of) << "step " << step;
  ASSERT_EQ(ta.dist.size(), tb.dist.size());
  EXPECT_EQ(std::memcmp(ta.dist.data(), tb.dist.data(),
                        ta.dist.size() * sizeof(double)),
            0)
      << "step " << step;
  EXPECT_EQ(ta.parent_edge, tb.parent_edge) << "step " << step;
}

/// The shape of the tree below `root`: its height, and whether a node at
/// depth >= 1 below it has two or more children (siblings at depth >= 2).
struct SubtreeShape {
  int height = 0;
  bool deep_siblings = false;
};

SubtreeShape ShapeBelow(const VoronoiPartition& part, const Graph& g,
                        NodeId root) {
  std::vector<std::vector<NodeId>> children(g.NumNodes());
  for (NodeId x = 0; x < g.NumNodes(); ++x) {
    if (part.Parent(x) != kInvalidNode) children[part.Parent(x)].push_back(x);
  }
  SubtreeShape shape;
  std::vector<std::pair<NodeId, int>> stack = {{root, 0}};
  while (!stack.empty()) {
    const auto [x, depth] = stack.back();
    stack.pop_back();
    shape.height = std::max(shape.height, depth);
    if (depth >= 1 && children[x].size() >= 2) shape.deep_siblings = true;
    for (NodeId c : children[x]) stack.push_back({c, depth + 1});
  }
  return shape;
}

TEST(VoronoiTest, RestoredCopyReplaysRepairsByteForByte) {
  // A repair's equal-distance tie-breaks depend on the exported state
  // alone: a copy restored from ExportTree before each step makes the very
  // same repair, byte for byte. Weights in {1, 2, 3} make ties common, and
  // every third step raises the tree edge above a subtree at least three
  // levels high with siblings two or more levels down.
  Rng rng(2024);
  Graph g = BarabasiAlbert(300, 2, rng);
  std::vector<double> w(g.NumEdges());
  for (double& x : w) x = static_cast<double>(1 + rng.Uniform(3));
  VoronoiPartition live;
  live.Build(g, w, rng.SampleWithoutReplacement(g.NumNodes(), 4));

  int deep_orphans = 0;
  for (int step = 0; step < 240; ++step) {
    VoronoiPartition twin;
    ASSERT_TRUE(twin.RestoreTree(g, live.ExportTree()).ok());
    EdgeId e = static_cast<EdgeId>(rng.Uniform(g.NumEdges()));
    const double old_w = w[e];
    double new_w = old_w + static_cast<double>(1 + rng.Uniform(2));
    if (step % 3 == 0) {
      for (int tries = 0; tries < 300; ++tries) {
        const NodeId v = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
        if (live.ParentEdge(v) == kInvalidEdge) continue;
        const SubtreeShape shape = ShapeBelow(live, g, v);
        if (shape.height >= 3 && shape.deep_siblings) {
          e = live.ParentEdge(v);
          ++deep_orphans;
          break;
        }
      }
      new_w = w[e] + static_cast<double>(1 + rng.Uniform(3));
    } else if (step % 3 == 1) {
      new_w = std::max(1.0, old_w - static_cast<double>(1 + rng.Uniform(2)));
    }
    const double before = w[e];
    w[e] = new_w;
    std::vector<NodeId> live_changed;
    std::vector<NodeId> twin_changed;
    EXPECT_EQ(live.UpdateEdgeWeight(g, w, e, before, new_w, &live_changed),
              twin.UpdateEdgeWeight(g, w, e, before, new_w, &twin_changed))
        << "step " << step;
    EXPECT_EQ(live_changed, twin_changed) << "step " << step;
    ExpectSameTree(live, twin, step);
    ASSERT_TRUE(live.ConsistentWith(g, w)) << "step " << step;
    if (HasFailure()) return;
  }
  EXPECT_GE(deep_orphans, 60);
}

TEST(VoronoiTest, SharedScratchMatchesPrivateScratch) {
  // Two partitions repairing through one Scratch (the per-level sharing of
  // PyramidIndex) must evolve exactly like twins with private scratch,
  // including the reported seed changes — also across an epoch wrap.
  Rng rng(31);
  Graph g = BarabasiAlbert(150, 3, rng);
  std::vector<double> w(g.NumEdges());
  for (double& x : w) x = 0.5 + rng.NextDouble();
  const std::vector<NodeId> seeds_a = rng.SampleWithoutReplacement(150, 6);
  const std::vector<NodeId> seeds_b = rng.SampleWithoutReplacement(150, 11);

  VoronoiPartition shared_a, shared_b, private_a, private_b;
  shared_a.Build(g, w, seeds_a);
  shared_b.Build(g, w, seeds_b);
  private_a.Build(g, w, seeds_a);
  private_b.Build(g, w, seeds_b);
  VoronoiPartition::Scratch scratch(g.NumNodes());

  for (int step = 0; step < 300; ++step) {
    if (step % 50 == 25) {
      check::TestHooks::SetRepairEpoch(scratch, UINT32_MAX - 1);
    }
    const EdgeId e = static_cast<EdgeId>(rng.Uniform(g.NumEdges()));
    const double old_w = w[e];
    const double new_w = rng.Bernoulli(0.5) ? old_w * 0.3 : old_w * 3.0;
    w[e] = new_w;
    // Interleave: the shared pair runs in a random order each step.
    const bool a_first = rng.Bernoulli(0.5);
    std::vector<NodeId> got_a, got_b, want_a, want_b;
    size_t touched_a = 0, touched_b = 0;
    for (int i = 0; i < 2; ++i) {
      if ((i == 0) == a_first) {
        touched_a = shared_a.UpdateEdgeWeight(g, w, e, old_w, new_w, scratch,
                                              &got_a);
      } else {
        touched_b = shared_b.UpdateEdgeWeight(g, w, e, old_w, new_w, scratch,
                                              &got_b);
      }
    }
    EXPECT_EQ(touched_a,
              private_a.UpdateEdgeWeight(g, w, e, old_w, new_w, &want_a));
    EXPECT_EQ(touched_b,
              private_b.UpdateEdgeWeight(g, w, e, old_w, new_w, &want_b));
    ASSERT_EQ(got_a, want_a) << "step " << step;
    ASSERT_EQ(got_b, want_b) << "step " << step;
    ExpectSameTree(shared_a, private_a, step);
    ExpectSameTree(shared_b, private_b, step);
    if (HasFailure()) return;
  }
  EXPECT_TRUE(shared_a.ConsistentWith(g, w));
  EXPECT_TRUE(shared_b.ConsistentWith(g, w));
}

TEST(VoronoiTest, MemoryBytesPositiveAndScales) {
  Rng rng(5);
  Graph small = BarabasiAlbert(50, 2, rng);
  Graph large = BarabasiAlbert(500, 2, rng);
  std::vector<double> ws(small.NumEdges(), 1.0);
  std::vector<double> wl(large.NumEdges(), 1.0);
  VoronoiPartition ps;
  VoronoiPartition pl;
  ps.Build(small, ws, {0});
  pl.Build(large, wl, {0});
  EXPECT_GT(ps.MemoryBytes(), 0u);
  EXPECT_GT(pl.MemoryBytes(), ps.MemoryBytes());
  // One 16-byte record per node, plus the seed set.
  EXPECT_EQ(pl.MemoryBytes(), 16u * 500 + sizeof(NodeId));
}

}  // namespace
}  // namespace anc
