// Tests of the anc::check invariant-checker subsystem: each validator must
// stay silent on healthy state, report deliberately planted corruption
// (via check::TestHooks), and the differential oracle must certify that
// incremental maintenance matches a from-scratch rebuild on randomized
// activation streams (docs/correctness.md).

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "activation/stream_generators.h"
#include "check/invariants.h"
#include "check/oracle.h"
#include "check/test_hooks.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "pyramid/pyramid_index.h"
#include "similarity/similarity_engine.h"
#include "util/rng.h"

namespace anc {
namespace {

using check::CheckReport;
using check::TestHooks;

bool Has(const CheckReport& report, const std::string& invariant) {
  return std::any_of(report.violations().begin(), report.violations().end(),
                     [&](const check::Violation& v) {
                       return v.invariant == invariant;
                     });
}

GroundTruthGraph MakeCommunityGraph(uint64_t seed) {
  PlantedPartitionParams params;
  params.num_communities = 4;
  params.min_size = 10;
  params.max_size = 14;
  params.p_in = 0.4;
  params.mixing = 0.15;
  Rng rng(seed);
  return PlantedPartition(params, rng);
}

AncConfig MakeConfig() {
  AncConfig config;
  config.similarity.lambda = 0.1;
  config.similarity.epsilon = 0.3;
  config.similarity.mu = 3;
  config.rep = 2;
  config.pyramid.num_pyramids = 3;
  config.pyramid.seed = 11;
  config.mode = AncMode::kOnline;
  return config;
}

/// A consistent (engine, index) pair over a community graph, with some
/// stream history applied so the state is non-trivial.
struct Fixture {
  GroundTruthGraph data;
  SimilarityEngine engine;
  std::unique_ptr<PyramidIndex> index;

  explicit Fixture(uint64_t seed = 7)
      : data(MakeCommunityGraph(seed)),
        engine(data.graph, MakeConfig().similarity) {
    engine.InitializeStatic(2);
    std::vector<double> weights(data.graph.NumEdges());
    for (EdgeId e = 0; e < weights.size(); ++e) weights[e] = engine.Weight(e);
    index = std::make_unique<PyramidIndex>(data.graph, weights,
                                           MakeConfig().pyramid);
    Rng rng(seed + 1);
    ActivationStream stream = UniformStream(data.graph, 10, 0.05, rng);
    for (const Activation& a : stream) {
      double w = 0.0;
      const Status status = engine.ApplyActivation(a.edge, a.time, &w);
      ANC_CHECK(status.ok(), "fixture stream apply failed");
      index->UpdateEdgeWeight(a.edge, w);
    }
  }
};

TEST(CheckReportTest, ToStringListsViolations) {
  CheckReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.ToString(), "ok");
  report.Add("some.invariant", "detail text");
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("some.invariant"), std::string::npos);
  EXPECT_NE(report.ToString().find("detail text"), std::string::npos);
}

TEST(CheckReportTest, CapsViolationsPerInvariant) {
  CheckReport report;
  report.set_max_per_invariant(3);
  for (int i = 0; i < 10; ++i) report.Add("capped", "x");
  report.Add("other", "y");
  EXPECT_EQ(report.violations().size(), 4u);  // 3 capped + 1 other
}

TEST(InvariantCheckerTest, HealthyStateIsSilent) {
  Fixture f;
  CheckReport report;
  check::CheckAll(f.engine, *f.index, /*deep=*/true, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(InvariantCheckerTest, NegativeAnchoredActivenessIsReported) {
  Fixture f;
  TestHooks::SetAnchoredActiveness(f.engine, 0, -1.0);
  CheckReport report;
  check::CheckActiveness(f.engine, &report);
  EXPECT_TRUE(Has(report, "activeness.non_negative")) << report.ToString();
}

TEST(InvariantCheckerTest, NanAnchoredActivenessIsReported) {
  Fixture f;
  TestHooks::SetAnchoredActiveness(f.engine, 1,
                                   std::numeric_limits<double>::quiet_NaN());
  CheckReport report;
  check::CheckActiveness(f.engine, &report);
  EXPECT_TRUE(Has(report, "activeness.non_negative")) << report.ToString();
}

TEST(InvariantCheckerTest, NodeActivityCacheDriftIsReported) {
  Fixture f;
  TestHooks::SetNodeActivity(f.engine, 3,
                             f.engine.RecomputeNodeActivity(3) + 5.0);
  CheckReport report;
  check::CheckActiveness(f.engine, &report);
  EXPECT_TRUE(Has(report, "activeness.node_activity_cache"))
      << report.ToString();
}

TEST(InvariantCheckerTest, SigmaNumeratorCacheDriftIsReported) {
  Fixture f;
  // Pick an edge with common neighbors so the numerator is meaningful.
  TestHooks::SetSigmaNumerator(f.engine, 0,
                               f.engine.RecomputeSigmaNumerator(0) + 7.0);
  CheckReport report;
  check::CheckActiveness(f.engine, &report);
  EXPECT_TRUE(Has(report, "activeness.sigma_numerator_cache"))
      << report.ToString();
  // The same corruption breaks PosM sigma agreement (Lemma 4).
  CheckReport sim_report;
  check::CheckSimilarityStore(f.engine, &sim_report);
  EXPECT_TRUE(Has(sim_report, "similarity.sigma_agreement"))
      << sim_report.ToString();
}

TEST(InvariantCheckerTest, SimilarityOutsideClampIsReported) {
  Fixture f;
  TestHooks::SetSimilarity(f.engine, 2, 0.0);  // below min: 1/S would be inf
  CheckReport report;
  check::CheckSimilarityStore(f.engine, &report);
  EXPECT_TRUE(Has(report, "similarity.clamp")) << report.ToString();

  TestHooks::SetSimilarity(f.engine, 2, 1e20);  // above max ceiling
  CheckReport report_high;
  check::CheckSimilarityStore(f.engine, &report_high);
  EXPECT_TRUE(Has(report_high, "similarity.clamp")) << report_high.ToString();
}

TEST(InvariantCheckerTest, VoteCountCorruptionIsReported) {
  Fixture f;
  // The vote of an edge is the count of its same-seed bits, so a flipped
  // bit is a wrong vote.
  const uint32_t level = f.index->DefaultLevel();
  TestHooks::FlipSameSeedBit(*f.index, /*pyramid=*/0, level, /*e=*/0);
  CheckReport report;
  check::CheckPyramidStructure(*f.index, &report);
  EXPECT_TRUE(Has(report, "pyramid.vote_count")) << report.ToString();
}

TEST(InvariantCheckerTest, CellCorruptionIsReported) {
  Fixture f;
  // Reassign node 0's Voronoi cell at the finest level of pyramid 0 to a
  // node that is not a seed of that partition.
  const uint32_t level = f.index->num_levels();
  const auto& part = f.index->partition(0, level);
  NodeId non_seed = kInvalidNode;
  for (NodeId v = 0; v < f.data.graph.NumNodes(); ++v) {
    if (part.SeedOf(v) != v) {
      non_seed = v;
      break;
    }
  }
  ASSERT_NE(non_seed, kInvalidNode);
  TestHooks::SetSeedOf(*f.index, 0, level, 0, non_seed);
  CheckReport report;
  check::CheckPyramidStructure(*f.index, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(Has(report, "pyramid.cell_seed") ||
              Has(report, "pyramid.spt_cell") ||
              Has(report, "pyramid.seed_self") ||
              Has(report, "pyramid.vote_count"))
      << report.ToString();
}

TEST(InvariantCheckerTest, DistanceCorruptionIsReported) {
  Fixture f;
  // A non-seed reachable node: its SPT distance gap check must fire.
  const uint32_t level = f.index->num_levels();
  const auto& part = f.index->partition(0, level);
  NodeId victim = kInvalidNode;
  for (NodeId v = 0; v < f.data.graph.NumNodes(); ++v) {
    if (part.SeedOf(v) != kInvalidNode && part.SeedOf(v) != v) {
      victim = v;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  TestHooks::SetDist(*f.index, 0, level, victim, part.Dist(victim) + 123.0);
  CheckReport report;
  check::CheckPyramidStructure(*f.index, &report);
  EXPECT_TRUE(Has(report, "pyramid.spt_dist")) << report.ToString();
  // The deep rebuild comparison independently catches the same damage.
  CheckReport deep;
  check::CheckPartitionsAgainstRebuild(*f.index, &deep);
  EXPECT_TRUE(Has(deep, "pyramid.rebuild_distance")) << deep.ToString();
}

TEST(InvariantCheckerTest, WeightDesyncIsReported) {
  Fixture f;
  TestHooks::SetIndexWeight(*f.index, 0, f.engine.Weight(0) * 3.0);
  CheckReport report;
  check::CheckAll(f.engine, *f.index, /*deep=*/false, &report);
  EXPECT_TRUE(Has(report, "weights.agree")) << report.ToString();
}

TEST(AncIndexInvariantsTest, ValidateInvariantsOnLiveIndex) {
  GroundTruthGraph data = MakeCommunityGraph(21);
  AncConfig config = MakeConfig();
  auto created = AncIndex::Create(data.graph, config);
  ASSERT_TRUE(created.ok());
  AncIndex& anc = **created;
  EXPECT_TRUE(anc.ValidateInvariants(/*deep=*/true).ok());

  Rng rng(22);
  ActivationStream stream = UniformStream(data.graph, 20, 0.05, rng);
  ASSERT_TRUE(anc.ApplyStream(stream).ok());
  const Status status = anc.ValidateInvariants(/*deep=*/true);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(InvariantCheckerTest, RepairEpochWrapKeepsVotesExact) {
  // The Voronoi repair stamps touched nodes with a 32-bit epoch shared by
  // a level's partitions. Push every level's epoch to the brink of its wrap
  // repeatedly and stream activations across it: vote tallies must stay
  // exact (a stale stamp matching the wrapped epoch would hide seed
  // changes from the vote maintenance).
  Fixture f;
  Rng rng(23);
  for (int round = 0; round < 20; ++round) {
    TestHooks::SetRepairEpoch(*f.index, UINT32_MAX - 1);
    const ActivationStream stream =
        UniformStream(f.data.graph, 1, 0.15, rng);
    for (Activation a : stream) {
      a.time = 10.0 + round;  // after the fixture's history
      double w = 0.0;
      ASSERT_TRUE(f.engine.ApplyActivation(a.edge, a.time, &w).ok());
      f.index->UpdateEdgeWeight(a.edge, w);
    }
  }
  CheckReport report;
  check::CheckAll(f.engine, *f.index, /*deep=*/true, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();

  std::vector<double> weights(f.data.graph.NumEdges());
  for (EdgeId e = 0; e < weights.size(); ++e) weights[e] = f.index->WeightOf(e);
  const PyramidIndex rebuilt(f.data.graph, weights, f.index->params(),
                             f.index->SeedSets());
  for (uint32_t level = 1; level <= f.index->num_levels(); ++level) {
    for (EdgeId e = 0; e < f.data.graph.NumEdges(); ++e) {
      ASSERT_EQ(f.index->VotesOf(e, level), rebuilt.VotesOf(e, level))
          << "level " << level << " edge " << e;
    }
  }
}

// --- Differential oracle: incremental vs from-scratch rebuild ------------

TEST(DifferentialOracleTest, UniformStreamMatchesRebuild) {
  GroundTruthGraph data = MakeCommunityGraph(31);
  Rng rng(32);
  ActivationStream stream = UniformStream(data.graph, 30, 0.05, rng);
  ASSERT_FALSE(stream.empty());

  check::OracleOptions options;
  options.checkpoint_interval = 100;
  options.deep_partition_check = true;
  check::OracleResult result =
      check::RunDifferentialOracle(data.graph, MakeConfig(), stream, options);
  EXPECT_TRUE(result.ok()) << result.report.ToString();
  EXPECT_EQ(result.activations, stream.size());
  EXPECT_GE(result.checkpoints, 2u);
}

TEST(DifferentialOracleTest, CommunityBiasedStreamMatchesRebuildUnderAncor) {
  GroundTruthGraph data = MakeCommunityGraph(41);
  Rng rng(42);
  ActivationStream stream = CommunityBiasedStream(
      data.graph, data.truth.labels, 30, 0.05, 4.0, rng);
  ASSERT_FALSE(stream.empty());

  AncConfig config = MakeConfig();
  config.mode = AncMode::kOnlineReinforce;
  config.reinforce_interval = 7;
  check::OracleOptions options;
  options.checkpoint_interval = 120;
  check::OracleResult result =
      check::RunDifferentialOracle(data.graph, config, stream, options);
  EXPECT_TRUE(result.ok()) << result.report.ToString();
  EXPECT_EQ(result.activations, stream.size());
  EXPECT_GE(result.checkpoints, 2u);
}

TEST(DifferentialOracleTest, BurstyStreamWithRescalesMatchesRebuild) {
  GroundTruthGraph data = MakeCommunityGraph(51);
  Rng rng(52);
  // Minute-indexed diurnal stream over one "day". Forcing a batched
  // rescale every 40 activations makes the replay cross several ScaleAll
  // repairs (Lemma 1 + Lemma 10) while the moderate decay keeps weights
  // off the similarity clamp — clamp saturation would flood the graph with
  // equal weights and tie-broken partitions the exact oracle can't compare.
  ActivationStream stream =
      DiurnalStream(data.graph, 60, 5.0, 0.1, 20.0, rng);
  ASSERT_FALSE(stream.empty());

  AncConfig config = MakeConfig();
  config.similarity.rescale_interval = 40;
  check::OracleOptions options;
  options.checkpoint_interval = 150;
  options.deep_partition_check = true;
  check::OracleResult result =
      check::RunDifferentialOracle(data.graph, config, stream, options);
  EXPECT_TRUE(result.ok()) << result.report.ToString();
  EXPECT_EQ(result.activations, stream.size());
  EXPECT_GE(result.checkpoints, 1u);
}

TEST(DifferentialOracleTest, OfflineModeActivenessStillValidated) {
  GroundTruthGraph data = MakeCommunityGraph(61);
  Rng rng(62);
  ActivationStream stream = UniformStream(data.graph, 15, 0.05, rng);

  AncConfig config = MakeConfig();
  config.mode = AncMode::kOffline;
  check::OracleResult result =
      check::RunDifferentialOracle(data.graph, config, stream);
  EXPECT_TRUE(result.ok()) << result.report.ToString();
}

TEST(DifferentialOracleTest, ReportsApplyFailure) {
  GroundTruthGraph data = MakeCommunityGraph(71);
  ActivationStream stream = {{data.graph.NumEdges() + 5, 1.0}};  // bad edge
  check::OracleResult result =
      check::RunDifferentialOracle(data.graph, MakeConfig(), stream);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(Has(result.report, "oracle.apply"))
      << result.report.ToString();
}

}  // namespace
}  // namespace anc
