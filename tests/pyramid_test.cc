#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/synthetic.h"
#include "pyramid/pyramid_index.h"
#include "util/rng.h"

namespace anc {
namespace {

PyramidParams SmallParams(uint32_t k = 4, uint32_t threads = 1) {
  PyramidParams p;
  p.num_pyramids = k;
  p.theta = 0.7;
  p.seed = 42;
  p.num_threads = threads;
  return p;
}

std::vector<double> UnitWeights(const Graph& g) {
  return std::vector<double>(g.NumEdges(), 1.0);
}

TEST(PyramidIndexTest, LevelCountIsCeilLog2) {
  Rng rng(1);
  Graph g13 = ErdosRenyi(13, 30, rng);
  PyramidIndex idx(g13, UnitWeights(g13), SmallParams(2));
  EXPECT_EQ(idx.num_levels(), 4u);  // ceil(log2 13) = 4, as in Fig. 2

  Graph g16 = ErdosRenyi(16, 40, rng);
  PyramidIndex idx16(g16, UnitWeights(g16), SmallParams(2));
  EXPECT_EQ(idx16.num_levels(), 4u);

  Graph g17 = ErdosRenyi(17, 40, rng);
  PyramidIndex idx17(g17, UnitWeights(g17), SmallParams(2));
  EXPECT_EQ(idx17.num_levels(), 5u);
}

TEST(PyramidIndexTest, SeedCountsPerLevel) {
  Rng rng(2);
  Graph g = ErdosRenyi(100, 300, rng);
  PyramidIndex idx(g, UnitWeights(g), SmallParams(3));
  for (uint32_t p = 0; p < 3; ++p) {
    for (uint32_t l = 1; l <= idx.num_levels(); ++l) {
      const size_t expect =
          std::min<size_t>(1ull << (l - 1), g.NumNodes());
      EXPECT_EQ(idx.partition(p, l).seeds().size(), expect);
    }
  }
}

TEST(PyramidIndexTest, PyramidsDifferByRandomSeeds) {
  Rng rng(3);
  Graph g = ErdosRenyi(200, 600, rng);
  PyramidIndex idx(g, UnitWeights(g), SmallParams(2));
  // At a middle level the two pyramids should have different seed sets.
  const uint32_t level = idx.num_levels() / 2 + 1;
  EXPECT_NE(idx.partition(0, level).seeds(), idx.partition(1, level).seeds());
}

TEST(PyramidIndexTest, VoteThresholdMath) {
  Rng rng(4);
  Graph g = ErdosRenyi(30, 60, rng);
  {
    PyramidIndex idx(g, UnitWeights(g), SmallParams(2));
    EXPECT_EQ(idx.vote_threshold(), 2u);  // ceil(0.7*2) = 2
  }
  {
    PyramidParams p = SmallParams(4);
    PyramidIndex idx(g, UnitWeights(g), p);
    EXPECT_EQ(idx.vote_threshold(), 3u);  // ceil(0.7*4) = 3
  }
  {
    PyramidParams p = SmallParams(10);
    p.theta = 0.5;
    PyramidIndex idx(g, UnitWeights(g), p);
    EXPECT_EQ(idx.vote_threshold(), 5u);
  }
}

TEST(PyramidIndexTest, VotesMatchPartitionsAfterBuild) {
  Rng rng(5);
  Graph g = BarabasiAlbert(150, 3, rng);
  PyramidIndex idx(g, UnitWeights(g), SmallParams(4));
  for (uint32_t l = 1; l <= idx.num_levels(); ++l) {
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const auto& [u, v] = g.Endpoints(e);
      uint32_t expect = 0;
      for (uint32_t p = 0; p < 4; ++p) {
        expect += idx.partition(p, l).SameSeed(u, v) ? 1 : 0;
      }
      ASSERT_EQ(idx.VotesOf(e, l), expect) << "level " << l << " edge " << e;
    }
  }
}

TEST(VoteRuleTest, PassTableAgreesWithPopcount) {
  // Every ensemble size up to two bit bytes, every threshold, every byte
  // value a level can hold: H_l passes exactly when the count of set
  // same-seed bits reaches the threshold, also through the k <= 8 table.
  Rng rng(17);
  for (uint32_t k = 1; k <= 16; ++k) {
    for (uint32_t threshold = 1; threshold <= k; ++threshold) {
      const VoteRule rule(k, threshold);
      ASSERT_EQ(rule.groups(), k <= 8 ? 1u : 2u);
      const uint32_t levels = 2;
      std::vector<std::vector<uint8_t>> columns(levels * rule.groups(),
                                                std::vector<uint8_t>(256));
      for (size_t c = 0; c < columns.size(); ++c) {
        const uint32_t bits = std::min<uint32_t>(8, k - (c % rule.groups()) * 8);
        for (uint32_t b = 0; b < 256; ++b) {
          columns[c][b] = static_cast<uint8_t>(
              c < rule.groups() ? b & ((1u << bits) - 1)
                                : rng.Uniform(1u << bits));
        }
      }
      const VoteTable table(rule, columns);
      ASSERT_EQ(table.num_levels(), levels);
      for (uint32_t level = 1; level <= levels; ++level) {
        for (EdgeId e = 0; e < 256; ++e) {
          uint32_t want = 0;
          for (uint32_t g = 0; g < rule.groups(); ++g) {
            const uint8_t byte = columns[(level - 1) * rule.groups() + g][e];
            for (uint32_t bit = 0; bit < 8; ++bit) want += (byte >> bit) & 1u;
          }
          ASSERT_EQ(table.Votes(e, level), want) << "k " << k;
          ASSERT_EQ(table[level - 1][e], want) << "k " << k;
          ASSERT_EQ(table.Passes(e, level), want >= threshold)
              << "k " << k << " threshold " << threshold << " byte " << e;
        }
      }
    }
  }
}

TEST(PyramidIndexTest, CoarsestLevelConnectsComponents) {
  // Level 1 has one seed per pyramid: all nodes in the seed's component
  // share that seed, so every edge in the component passes the vote.
  Rng rng(6);
  Graph g = BarabasiAlbert(80, 2, rng);  // connected by construction
  PyramidIndex idx(g, UnitWeights(g), SmallParams(4));
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_TRUE(idx.EdgePassesVote(e, 1));
  }
}

class PyramidUpdateTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PyramidUpdateTest, IncrementalUpdatesMatchReconstruct) {
  // The headline index invariant: a stream of incremental UpdateEdgeWeight
  // calls leaves every partition with the same distances (and every edge
  // with the same votes, modulo equal-distance ties) as rebuilding from
  // scratch with the final weights.
  Rng rng(GetParam());
  Graph g = BarabasiAlbert(100, 3, rng);
  std::vector<double> w(g.NumEdges());
  for (double& x : w) x = 0.5 + rng.NextDouble();

  PyramidParams params = SmallParams(3);
  params.seed = 1000 + GetParam();
  PyramidIndex idx(g, w, params);

  for (int step = 0; step < 80; ++step) {
    const EdgeId e = static_cast<EdgeId>(rng.Uniform(g.NumEdges()));
    const double factor =
        rng.Bernoulli(0.6) ? (0.3 + 0.5 * rng.NextDouble())
                           : (1.5 + 1.5 * rng.NextDouble());
    w[e] = idx.WeightOf(e) * factor;
    idx.UpdateEdgeWeight(e, w[e]);
  }
  for (uint32_t p = 0; p < params.num_pyramids; ++p) {
    for (uint32_t l = 1; l <= idx.num_levels(); ++l) {
      EXPECT_TRUE(idx.partition(p, l).ConsistentWith(g, w))
          << "pyramid " << p << " level " << l;
    }
  }
  // Vote counts must match a fresh recount of the live partitions.
  for (uint32_t l = 1; l <= idx.num_levels(); ++l) {
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const auto& [u, v] = g.Endpoints(e);
      uint32_t expect = 0;
      for (uint32_t p = 0; p < params.num_pyramids; ++p) {
        expect += idx.partition(p, l).SameSeed(u, v) ? 1 : 0;
      }
      ASSERT_EQ(idx.VotesOf(e, l), expect) << "level " << l << " edge " << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PyramidUpdateTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

TEST(PyramidIndexTest, ParallelUpdateMatchesSerial) {
  Rng rng(21);
  Graph g = BarabasiAlbert(120, 3, rng);
  std::vector<double> w(g.NumEdges());
  for (double& x : w) x = 0.5 + rng.NextDouble();

  PyramidIndex serial(g, w, SmallParams(4, 1));
  PyramidIndex parallel(g, w, SmallParams(4, 4));

  Rng updates(22);
  for (int step = 0; step < 60; ++step) {
    const EdgeId e = static_cast<EdgeId>(updates.Uniform(g.NumEdges()));
    const double nw = serial.WeightOf(e) *
                      (updates.Bernoulli(0.5) ? 0.4 : 2.5);
    serial.UpdateEdgeWeight(e, nw);
    parallel.UpdateEdgeWeight(e, nw);
  }
  for (uint32_t l = 1; l <= serial.num_levels(); ++l) {
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      ASSERT_EQ(serial.VotesOf(e, l), parallel.VotesOf(e, l));
    }
  }
  for (uint32_t p = 0; p < 4; ++p) {
    for (uint32_t l = 1; l <= serial.num_levels(); ++l) {
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        ASSERT_DOUBLE_EQ(serial.partition(p, l).Dist(v),
                         parallel.partition(p, l).Dist(v));
      }
    }
  }
}

TEST(PyramidIndexTest, ReconstructMatchesIncrementalVotes) {
  Rng rng(31);
  Graph g = BarabasiAlbert(90, 3, rng);
  std::vector<double> w(g.NumEdges());
  for (double& x : w) x = 0.5 + rng.NextDouble();
  PyramidIndex idx(g, w, SmallParams(3));

  std::vector<double> w2 = w;
  for (int step = 0; step < 40; ++step) {
    const EdgeId e = static_cast<EdgeId>(rng.Uniform(g.NumEdges()));
    w2[e] *= rng.Bernoulli(0.5) ? 0.5 : 2.0;
    idx.UpdateEdgeWeight(e, w2[e]);
  }
  // Reconstruct a second index directly at w2 with the same seeds (same
  // params.seed reproduces the seed draw).
  PyramidParams params = SmallParams(3);
  PyramidIndex fresh(g, w2, params);
  for (uint32_t l = 1; l <= idx.num_levels(); ++l) {
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      // Distances agree (ConsistentWith above); votes can differ only on
      // exact-tie seed assignments, which are measure-zero with random
      // weights — require equality.
      ASSERT_EQ(idx.VotesOf(e, l), fresh.VotesOf(e, l))
          << "level " << l << " edge " << e;
    }
  }
}

TEST(PyramidIndexTest, ReconstructResetsToNewWeights) {
  Rng rng(41);
  Graph g = BarabasiAlbert(60, 2, rng);
  std::vector<double> w(g.NumEdges(), 1.0);
  PyramidIndex idx(g, w, SmallParams(2));
  std::vector<double> w2(g.NumEdges());
  for (double& x : w2) x = 0.5 + rng.NextDouble();
  idx.Reconstruct(w2);
  for (uint32_t p = 0; p < 2; ++p) {
    for (uint32_t l = 1; l <= idx.num_levels(); ++l) {
      EXPECT_TRUE(idx.partition(p, l).ConsistentWith(g, w2));
    }
  }
  EXPECT_DOUBLE_EQ(idx.WeightOf(0), w2[0]);
}

// Reconstruct recounts every vote from scratch; a watched node must still
// hear about each flip, exactly as an incremental update would report it.
TEST(PyramidTest, ReconstructReportsWatchedVoteFlips) {
  Rng rng(43);
  Graph g = BarabasiAlbert(120, 3, rng);
  PyramidIndex idx(g, UnitWeights(g), SmallParams(4));
  for (NodeId v = 0; v < g.NumNodes(); ++v) idx.Watch(v);
  const uint32_t levels = idx.num_levels();
  std::vector<std::vector<bool>> before(levels + 1);
  for (uint32_t l = 1; l <= levels; ++l) {
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      before[l].push_back(idx.EdgePassesVote(e, l));
    }
  }
  std::vector<double> w2(g.NumEdges());
  for (double& x : w2) x = 0.05 + 4.0 * rng.NextDouble();
  idx.Reconstruct(w2);

  std::vector<std::tuple<uint32_t, EdgeId, bool>> expected;
  for (uint32_t l = 1; l <= levels; ++l) {
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const bool now = idx.EdgePassesVote(e, l);
      if (now != before[l][e]) expected.emplace_back(l, e, now);
    }
  }
  ASSERT_FALSE(expected.empty()) << "new weights flipped no vote";
  std::vector<std::tuple<uint32_t, EdgeId, bool>> reported;
  uint32_t last_level = 0;
  for (const PyramidIndex::VoteChange& c : idx.DrainVoteChanges()) {
    EXPECT_GE(c.level, last_level) << "changes drain level by level";
    last_level = c.level;
    reported.emplace_back(c.level, c.edge, c.now_passing);
  }
  std::sort(reported.begin(), reported.end());
  EXPECT_EQ(reported, expected);
  EXPECT_TRUE(idx.DrainVoteChanges().empty());
}

TEST(PyramidIndexTest, DefaultLevelTargetsSqrtN) {
  Rng rng(51);
  Graph g = ErdosRenyi(1024, 4096, rng);
  PyramidIndex idx(g, UnitWeights(g), SmallParams(2));
  // sqrt(1024) = 32 seeds -> level 6 (2^5 = 32).
  EXPECT_EQ(idx.DefaultLevel(), 6u);
}

TEST(PyramidIndexTest, MemoryGrowsWithPyramidCount) {
  Rng rng(61);
  Graph g = BarabasiAlbert(200, 3, rng);
  PyramidIndex idx2(g, UnitWeights(g), SmallParams(2));
  PyramidIndex idx8(g, UnitWeights(g), SmallParams(8));
  EXPECT_GT(idx8.MemoryBytes(), 2 * idx2.MemoryBytes());
}

TEST(PyramidIndexTest, DeterministicGivenSeed) {
  Rng rng(71);
  Graph g = BarabasiAlbert(80, 2, rng);
  PyramidIndex a(g, UnitWeights(g), SmallParams(3));
  PyramidIndex b(g, UnitWeights(g), SmallParams(3));
  for (uint32_t p = 0; p < 3; ++p) {
    for (uint32_t l = 1; l <= a.num_levels(); ++l) {
      EXPECT_EQ(a.partition(p, l).seeds(), b.partition(p, l).seeds());
    }
  }
}

}  // namespace
}  // namespace anc
