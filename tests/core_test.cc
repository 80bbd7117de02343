#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "activation/stream_generators.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "metrics/quality.h"
#include "metrics/structural.h"
#include "util/rng.h"

namespace anc {
namespace {

AncConfig SmallConfig(AncMode mode = AncMode::kOnline) {
  AncConfig config;
  config.similarity.lambda = 0.1;
  config.similarity.epsilon = 0.3;
  config.similarity.mu = 3;
  config.pyramid.num_pyramids = 4;
  config.pyramid.seed = 17;
  config.rep = 5;
  config.mode = mode;
  return config;
}

GroundTruthGraph Planted(uint64_t seed) {
  Rng rng(seed);
  PlantedPartitionParams params;
  params.num_communities = 8;
  params.min_size = 16;
  params.max_size = 24;
  params.p_in = 0.45;
  params.mixing = 0.08;
  return PlantedPartition(params, rng);
}

TEST(AncIndexTest, StaticClusteringBeatsTrivialBaselines) {
  GroundTruthGraph data = Planted(1);
  AncIndex anc(data.graph, SmallConfig());
  // Search granularities for the best NMI (the paper picks the granularity
  // whose cluster count is closest to the ground truth).
  double best_nmi = 0.0;
  for (uint32_t l = 1; l <= anc.num_levels(); ++l) {
    Clustering c = anc.Clusters(l);
    best_nmi = std::max(best_nmi, Nmi(c, data.truth));
  }
  EXPECT_GT(best_nmi, 0.6);
}

TEST(AncIndexTest, DefaultClustersReturnsThetaSqrtNGranularity) {
  GroundTruthGraph data = Planted(2);
  AncIndex anc(data.graph, SmallConfig());
  Clustering c = anc.Clusters();
  EXPECT_GT(c.num_clusters, 1u);
  EXPECT_EQ(c.labels.size(), data.graph.NumNodes());
}

TEST(AncIndexTest, OnlineStreamKeepsIndexConsistent) {
  // End-to-end ANCO invariant: after a stream, every partition equals a
  // from-scratch rebuild at the final weights.
  GroundTruthGraph data = Planted(3);
  AncIndex anc(data.graph, SmallConfig(AncMode::kOnline));
  Rng rng(3);
  ActivationStream stream = UniformStream(data.graph, 10, 0.02, rng);
  ASSERT_TRUE(anc.ApplyStream(stream).ok());

  std::vector<double> weights(data.graph.NumEdges());
  for (EdgeId e = 0; e < weights.size(); ++e) {
    weights[e] = anc.engine().Weight(e);
  }
  for (uint32_t p = 0; p < anc.config().pyramid.num_pyramids; ++p) {
    for (uint32_t l = 1; l <= anc.num_levels(); ++l) {
      EXPECT_TRUE(anc.index().partition(p, l).ConsistentWith(data.graph,
                                                             weights))
          << "pyramid " << p << " level " << l;
    }
  }
  EXPECT_GT(anc.total_touched_nodes(), 0u);
}

TEST(AncIndexTest, StatsMatchesTouchedNodesAfterStream) {
  GroundTruthGraph data = Planted(3);
  AncIndex anc(data.graph, SmallConfig(AncMode::kOnline));
  Rng rng(3);
  ActivationStream stream = UniformStream(data.graph, 10, 0.02, rng);
  ASSERT_TRUE(anc.ApplyStream(stream).ok());

  const obs::StatsSnapshot stats = anc.Stats();
  if (!obs::kMetricsEnabled) {
    // Disabled build: the snapshot keeps its shape but reads all-zero.
    EXPECT_EQ(stats.counter("anc.apply.count"), 0u);
    return;
  }
  // The facade's apply counters track the stream exactly.
  EXPECT_EQ(stats.counter("anc.apply.count"), stream.size());
  EXPECT_EQ(stats.counter("anc.apply.online"), stream.size());
  EXPECT_EQ(stats.counter("anc.apply.offline"), 0u);
  // The index counter is the same accounting as total_touched_nodes():
  // every UpdateEdgeWeight call records the nodes it touched.
  EXPECT_EQ(stats.counter("anc.index.touched_nodes"),
            anc.total_touched_nodes());
  EXPECT_GT(stats.counter("anc.index.touched_nodes"), 0u);
  EXPECT_GT(stats.counter("anc.index.repairs"), 0u);
  // Per-level repairs sum to at most repairs * levels, and at least one
  // level saw repair work.
  uint64_t level_repairs = 0;
  for (uint32_t l = 1; l <= anc.num_levels(); ++l) {
    level_repairs +=
        stats.counter("anc.index.level" + std::to_string(l) + ".repairs");
  }
  EXPECT_GT(level_repairs, 0u);
  // Similarity-layer counters: one reinforcement and one activeness bump
  // per online activation (S0 init happens before the stream, but
  // InitializeStatic resets nothing here — so >= stream.size()).
  EXPECT_GE(stats.counter("anc.sim.reinforcements"), stream.size());
  EXPECT_GT(stats.counter("anc.sim.activeness_updates"), 0u);
  // Latency histograms see one sample per batch: ApplyStream is one
  // ApplyBatch call, and every Apply is a batch of one.
  const auto* latency = stats.histogram("anc.apply.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 1u);
  const double t = stream.back().time;
  ASSERT_TRUE(anc.Apply({0, t}).ok());
  ASSERT_TRUE(anc.Apply({1, t}).ok());
  EXPECT_EQ(anc.Stats().histogram("anc.apply.latency_us")->count, 3u);
  // The snapshot serializes and parses back intact.
  obs::StatsSnapshot parsed;
  ASSERT_TRUE(obs::StatsSnapshot::FromJson(stats.ToJson(), &parsed));
  EXPECT_EQ(parsed.counter("anc.index.touched_nodes"),
            stats.counter("anc.index.touched_nodes"));
}

TEST(AncIndexTest, OfflineModeRecordsZeroIndexRepairs) {
  GroundTruthGraph data = Planted(5);
  AncIndex ancf(data.graph, SmallConfig(AncMode::kOffline));
  ancf.metrics().Reset();  // drop construction-time S0 bookkeeping
  Rng rng(5);
  ActivationStream stream = UniformStream(data.graph, 5, 0.05, rng);
  ASSERT_TRUE(ancf.ApplyStream(stream).ok());

  const obs::StatsSnapshot stats = ancf.Stats();
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics disabled";
  // ANCF never touches the index during the stream: no incremental repairs
  // and no reinforcement, only activeness/sigma bookkeeping.
  EXPECT_EQ(stats.counter("anc.apply.offline"), stream.size());
  EXPECT_EQ(stats.counter("anc.index.repairs"), 0u);
  EXPECT_EQ(stats.counter("anc.index.touched_nodes"), 0u);
  EXPECT_EQ(stats.counter("anc.sim.reinforcements"), 0u);
  EXPECT_GT(stats.counter("anc.sim.activeness_updates"), 0u);
  // The snapshot recompute is counted (and is not an index repair).
  ancf.RecomputeSnapshot();
  EXPECT_EQ(ancf.Stats().counter("anc.snapshot.recomputes"), 1u);
  EXPECT_EQ(ancf.Stats().counter("anc.index.repairs"), 0u);
}

TEST(AncIndexTest, AncorRunsPeriodicReinforcement) {
  GroundTruthGraph data = Planted(4);
  AncConfig config = SmallConfig(AncMode::kOnlineReinforce);
  config.reinforce_interval = 2;
  AncIndex ancor(data.graph, config);
  AncIndex anco(data.graph, SmallConfig(AncMode::kOnline));
  Rng rng(4);
  ActivationStream stream = UniformStream(data.graph, 8, 0.02, rng);
  ASSERT_TRUE(ancor.ApplyStream(stream).ok());
  ASSERT_TRUE(anco.ApplyStream(stream).ok());
  // The extra consolidation passes must have produced different similarity
  // state on at least one activated edge.
  bool differs = false;
  for (EdgeId e = 0; e < data.graph.NumEdges() && !differs; ++e) {
    differs = ancor.engine().Similarity(e) != anco.engine().Similarity(e);
  }
  EXPECT_TRUE(differs);
}

TEST(AncIndexTest, OfflineModeDefersToRecomputeSnapshot) {
  GroundTruthGraph data = Planted(5);
  AncIndex ancf(data.graph, SmallConfig(AncMode::kOffline));
  Rng rng(5);
  ActivationStream stream = UniformStream(data.graph, 5, 0.05, rng);

  // In offline mode the index weights do not move with the stream...
  const double w0 = ancf.index().WeightOf(0);
  ASSERT_TRUE(ancf.ApplyStream(stream).ok());
  EXPECT_EQ(ancf.index().WeightOf(0), w0);
  // ...until the snapshot recompute.
  ancf.RecomputeSnapshot();
  for (uint32_t p = 0; p < ancf.config().pyramid.num_pyramids; ++p) {
    std::vector<double> weights(data.graph.NumEdges());
    for (EdgeId e = 0; e < weights.size(); ++e) {
      weights[e] = ancf.engine().Weight(e);
    }
    for (uint32_t l = 1; l <= ancf.num_levels(); ++l) {
      EXPECT_TRUE(
          ancf.index().partition(p, l).ConsistentWith(data.graph, weights));
    }
  }
}

TEST(AncIndexTest, CommunityBiasedStreamImprovesActiveCommunityCohesion) {
  // Activations concentrated inside planted communities must push the
  // similarity of intra-community edges above inter-community ones.
  GroundTruthGraph data = Planted(6);
  AncConfig config = SmallConfig(AncMode::kOnline);
  config.rep = 3;
  AncIndex anc(data.graph, config);
  Rng rng(6);
  ActivationStream stream = CommunityBiasedStream(
      data.graph, data.truth.labels, 15, 0.03, 10.0, rng);
  ASSERT_TRUE(anc.ApplyStream(stream).ok());
  double intra_sum = 0.0;
  double inter_sum = 0.0;
  uint32_t intra_count = 0;
  uint32_t inter_count = 0;
  for (EdgeId e = 0; e < data.graph.NumEdges(); ++e) {
    const auto& [u, v] = data.graph.Endpoints(e);
    if (data.truth.labels[u] == data.truth.labels[v]) {
      intra_sum += anc.engine().Similarity(e);
      ++intra_count;
    } else {
      inter_sum += anc.engine().Similarity(e);
      ++inter_count;
    }
  }
  ASSERT_GT(intra_count, 0u);
  ASSERT_GT(inter_count, 0u);
  EXPECT_GT(intra_sum / intra_count, inter_sum / inter_count);
}

TEST(AncIndexTest, LocalClusterAndSmallestCluster) {
  GroundTruthGraph data = Planted(7);
  AncIndex anc(data.graph, SmallConfig());
  const NodeId q = 0;
  std::vector<NodeId> local = anc.LocalCluster(q, anc.DefaultLevel());
  EXPECT_TRUE(std::binary_search(local.begin(), local.end(), q));
  uint32_t level = 0;
  std::vector<NodeId> smallest = anc.SmallestCluster(q, 3, &level);
  EXPECT_GE(smallest.size(), 3u);
  EXPECT_GE(level, 1u);
  EXPECT_LE(level, anc.num_levels());
}

TEST(AncIndexTest, ZoomCursorRoundTrip) {
  GroundTruthGraph data = Planted(8);
  AncIndex anc(data.graph, SmallConfig());
  ZoomCursor cursor = anc.Zoom();
  const uint32_t start = cursor.level();
  cursor.ZoomIn();
  cursor.ZoomOut();
  EXPECT_EQ(cursor.level(), start);
}

TEST(AncIndexTest, MemoryAccounting) {
  GroundTruthGraph data = Planted(9);
  AncIndex anc(data.graph, SmallConfig());
  EXPECT_GT(anc.MemoryBytes(), 0u);
}

TEST(AncIndexTest, MidStreamRescaleKeepsIndexConsistent) {
  // A long stream with aggressive decay forces batched rescales (the
  // exponent guard); the index must absorb them via ScaleAll + clamp
  // repairs and stay equal to a from-scratch rebuild.
  GroundTruthGraph data = Planted(11);
  AncConfig config = SmallConfig(AncMode::kOnline);
  config.similarity.lambda = 2.0;  // lambda * t > 60 within ~30 time units
  AncIndex anc(data.graph, config);
  Rng rng(11);
  double t = 0.0;
  for (int i = 0; i < 400; ++i) {
    t += 0.25;  // reaches t = 100: multiple forced rescales
    const EdgeId e = static_cast<EdgeId>(rng.Uniform(data.graph.NumEdges()));
    ASSERT_TRUE(anc.Apply({e, t}).ok());
  }
  ASSERT_GE(anc.engine().activeness().rescale_count(), 1u);

  std::vector<double> weights(data.graph.NumEdges());
  for (EdgeId e = 0; e < weights.size(); ++e) {
    weights[e] = anc.engine().Weight(e);
  }
  // Index weights must equal engine weights exactly...
  for (EdgeId e = 0; e < weights.size(); ++e) {
    ASSERT_NEAR(anc.index().WeightOf(e), weights[e],
                1e-9 * std::max(1.0, weights[e]))
        << "edge " << e;
  }
  // ...and partition distances must match a rebuild.
  for (uint32_t p = 0; p < config.pyramid.num_pyramids; ++p) {
    for (uint32_t l = 1; l <= anc.num_levels(); ++l) {
      EXPECT_TRUE(
          anc.index().partition(p, l).ConsistentWith(data.graph, weights))
          << "pyramid " << p << " level " << l;
    }
  }
}

TEST(AncConfigTest, ValidateAcceptsDefaults) {
  AncConfig config;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(AncConfigTest, ValidateRejectsEachBadKnob) {
  {
    AncConfig c;
    c.similarity.lambda = -0.1;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    AncConfig c;
    c.similarity.epsilon = 1.5;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    AncConfig c;
    c.similarity.mu = 0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    AncConfig c;
    c.similarity.min_similarity = 0.0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    AncConfig c;
    c.pyramid.num_pyramids = 0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    AncConfig c;
    c.pyramid.theta = 0.0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    AncConfig c;
    c.mode = AncMode::kOnlineReinforce;
    c.reinforce_interval = 0;
    EXPECT_FALSE(c.Validate().ok());
  }
}

TEST(AncIndexTest, CreateFactoryValidates) {
  GroundTruthGraph data = Planted(12);
  AncConfig bad = SmallConfig();
  bad.pyramid.theta = -1.0;
  Result<std::unique_ptr<AncIndex>> r = AncIndex::Create(data.graph, bad);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  Result<std::unique_ptr<AncIndex>> good =
      AncIndex::Create(data.graph, SmallConfig());
  ASSERT_TRUE(good.ok());
  EXPECT_GT(good.value()->num_levels(), 0u);
}

TEST(AncIndexTest, TinyGraphsWork) {
  // Degenerate relation networks must not crash any query path.
  GraphBuilder b;
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  Graph g = b.Build();
  AncConfig config;
  config.rep = 2;
  config.similarity.mu = 1;
  AncIndex anc(g, config);
  ASSERT_TRUE(anc.Apply({0, 1.0}).ok());
  Clustering c = anc.Clusters();
  EXPECT_EQ(c.NumAssigned(), 2u);
  EXPECT_FALSE(anc.LocalCluster(0, 1).empty());
  ZoomCursor cursor = anc.Zoom();
  cursor.ZoomOut();
  cursor.ZoomIn();
}

TEST(AncIndexTest, RejectsOutOfRangeActivation) {
  GroundTruthGraph data = Planted(10);
  AncIndex anc(data.graph, SmallConfig());
  EXPECT_FALSE(anc.Apply({data.graph.NumEdges(), 1.0}).ok());
}

}  // namespace
}  // namespace anc
