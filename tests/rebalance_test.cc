// Rebalance-subsystem tests (src/rebalance/, docs/sharding.md
// "Rebalancing & live migration"): Fennel/HDRF partitioner units, the
// ANCMIG01 migration journal, the cut-drift monitor and activity-weighted
// planner, and the live-migration differential guarantees — merged
// answers byte-identical to an unsharded oracle before and after a
// whole-community move, crash seams that recover byte-identical through
// ShardedServer::RecoverAll, and a drift-triggered Rebalancer loop.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "activation/stream_generators.h"
#include "check/test_hooks.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "rebalance/activity.h"
#include "rebalance/journal.h"
#include "rebalance/migrator.h"
#include "rebalance/monitor.h"
#include "rebalance/rebalancer.h"
#include "shard/partitioner.h"
#include "shard/router.h"
#include "shard/sharded_server.h"
#include "shard/sharded_view.h"
#include "store/test_hooks.h"
#include "tier/tiered_store.h"
#include "util/rng.h"

namespace anc {
namespace {

using rebalance::ActivityTracker;
using rebalance::CutMonitor;
using rebalance::CutMonitorOptions;
using rebalance::CutSample;
using rebalance::DecodeJournal;
using rebalance::EncodeJournal;
using rebalance::MigrationJournal;
using rebalance::MigrationPhase;
using rebalance::Migrator;
using rebalance::PlanRebalance;
using rebalance::Rebalancer;
using rebalance::RebalancerOptions;
using rebalance::RebalancePlan;
using shard::ComputeStats;
using shard::FennelPartition;
using shard::HashPartition;
using shard::HdrfPartition;
using shard::LdgPartition;
using shard::MakePartition;
using shard::Partition;
using shard::PartitionerKind;
using shard::PartitionerKindName;
using shard::PartitionOptions;
using shard::PartitionStats;
using shard::Router;
using shard::ShardedOptions;
using shard::ShardedServer;
using shard::ShardedView;

constexpr std::chrono::milliseconds kAwait{10000};

std::string TempDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

AncConfig TestConfig() {
  AncConfig config;
  config.similarity.lambda = 0.15;
  config.similarity.epsilon = 0.3;
  config.similarity.mu = 3;
  config.rep = 3;
  config.pyramid.num_pyramids = 3;
  config.pyramid.seed = 77;
  config.mode = AncMode::kOnline;
  return config;
}

/// Four communities with zero inter-community edges: a community-aligned
/// partition has no cut edges, and moving a whole community keeps its
/// active neighborhood closed — the byte-identity regime for live
/// migration (docs/sharding.md).
GroundTruthGraph DisjointCommunities(Rng& rng) {
  PlantedPartitionParams params;
  params.num_communities = 4;
  params.min_size = 14;
  params.max_size = 20;
  params.p_in = 0.35;
  params.mixing = 0.0;
  return PlantedPartition(params, rng);
}

std::vector<NodeId> CommunityMembers(const GroundTruthGraph& data,
                                     uint32_t community) {
  std::vector<NodeId> members;
  for (NodeId v = 0; v < data.truth.labels.size(); ++v) {
    if (data.truth.labels[v] == community) members.push_back(v);
  }
  return members;
}

void ExpectClusteringsEqual(const Clustering& a, const Clustering& b,
                            const std::string& what) {
  ASSERT_EQ(a.num_clusters, b.num_clusters) << what;
  ASSERT_EQ(a.labels, b.labels) << what;
}

/// Asserts the merged sharded answers are byte-identical to `oracle` at
/// every level.
void ExpectMatchesOracle(const ShardedServer& server, const AncIndex& oracle,
                         const std::string& what) {
  const ShardedView view = server.View();
  ASSERT_EQ(view.num_levels(), oracle.num_levels()) << what;
  const AncIndex::ClusterState oracle_state = oracle.ExportClusterState();
  for (uint32_t level = 1; level <= view.num_levels(); ++level) {
    for (EdgeId e = 0; e < server.graph().NumEdges(); ++e) {
      const uint32_t owner = server.router()->EdgeOwner(e);
      ASSERT_EQ(view.VotesOf(e, level),
                oracle_state.vote_counts[level - 1][e])
          << what << ": level " << level << " edge " << e << " ("
          << server.graph().Endpoints(e).first << ","
          << server.graph().Endpoints(e).second << ") owner " << owner
          << " w_shard="
          << const_cast<ShardedServer&>(server)
                 .shard_index(owner)
                 .index()
                 .WeightOf(e)
          << " w_oracle=" << oracle.index().WeightOf(e);
    }
    ExpectClusteringsEqual(view.Clusters(level), oracle.Clusters(level),
                           what + " at level " + std::to_string(level));
  }
}

// --- Partitioners: Fennel and HDRF ----------------------------------------

TEST(RebalancePartitionerTest, FennelAndHdrfCoverBalanceAndBeatHash) {
  Rng rng(11);
  PlantedPartitionParams params;
  params.num_communities = 8;
  params.min_size = 20;
  params.max_size = 40;
  params.mixing = 0.10;
  GroundTruthGraph data = PlantedPartition(params, rng);
  const Graph& g = data.graph;

  auto hash = HashPartition(g, 4, 1);
  ASSERT_TRUE(hash.ok());
  const PartitionStats hash_stats = ComputeStats(g, hash.value());

  for (const PartitionerKind kind :
       {PartitionerKind::kFennel, PartitionerKind::kHdrf}) {
    PartitionOptions options;
    options.num_shards = 4;
    options.kind = kind;
    options.ldg_passes = 2;
    auto partition = MakePartition(g, options);
    ASSERT_TRUE(partition.ok()) << PartitionerKindName(kind);
    const PartitionStats stats = ComputeStats(g, partition.value());
    uint64_t nodes = 0;
    uint64_t owned = 0;
    for (const uint32_t c : stats.shard_nodes) nodes += c;
    for (const uint32_t c : stats.shard_owned_edges) owned += c;
    EXPECT_EQ(nodes, g.NumNodes()) << PartitionerKindName(kind);
    EXPECT_EQ(owned, g.NumEdges()) << PartitionerKindName(kind);
    EXPECT_LT(stats.cut_ratio, hash_stats.cut_ratio)
        << PartitionerKindName(kind);
    EXPECT_LT(stats.cut_ratio, 0.5) << PartitionerKindName(kind);
    EXPECT_LE(stats.balance, 1.1 * 1.1) << PartitionerKindName(kind);
  }
}

TEST(RebalancePartitionerTest, FennelAndHdrfAreDeterministicPerSeed) {
  Rng rng(13);
  const Graph g = BarabasiAlbert(200, 3, rng);
  for (const auto& run : {FennelPartition, HdrfPartition}) {
    auto a = run(g, 4, 1.1, 42, 1);
    auto b = run(g, 4, 1.1, 42, 1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().node_shard, b.value().node_shard);
  }
}

TEST(RebalancePartitionerTest, SeedVariesArrivalOrder) {
  Rng rng(17);
  const Graph g = BarabasiAlbert(300, 3, rng);
  // The seed drives the arrival order: another seed should change the
  // greedy outcome for at least one of the streaming partitioners, while
  // each seed stays reproducible.
  bool any_differs = false;
  for (const auto& run : {LdgPartition, FennelPartition, HdrfPartition}) {
    auto base = run(g, 4, 1.1, /*seed=*/1, 1);
    auto shuffled = run(g, 4, 1.1, /*seed=*/99, 1);
    auto shuffled_again = run(g, 4, 1.1, /*seed=*/99, 1);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(shuffled.ok());
    ASSERT_TRUE(shuffled_again.ok());
    EXPECT_EQ(shuffled.value().node_shard, shuffled_again.value().node_shard);
    if (shuffled.value().node_shard != base.value().node_shard) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(RebalancePartitionerTest, RestreamingTightensFennelAndHdrfCuts) {
  Rng rng(19);
  PlantedPartitionParams params;
  params.num_communities = 8;
  params.min_size = 20;
  params.max_size = 40;
  params.mixing = 0.10;
  GroundTruthGraph data = PlantedPartition(params, rng);
  for (const auto& run : {FennelPartition, HdrfPartition}) {
    auto one_pass = run(data.graph, 4, 1.1, 1, /*passes=*/1);
    auto restreamed = run(data.graph, 4, 1.1, 1, /*passes=*/3);
    ASSERT_TRUE(one_pass.ok());
    ASSERT_TRUE(restreamed.ok());
    const PartitionStats before = ComputeStats(data.graph, one_pass.value());
    const PartitionStats after = ComputeStats(data.graph, restreamed.value());
    EXPECT_LE(after.cut_ratio, before.cut_ratio);
    EXPECT_LE(after.balance, 1.1 * 1.1);
  }
}

TEST(RebalancePartitionerTest, KindNamesRoundTrip) {
  EXPECT_STREQ(PartitionerKindName(PartitionerKind::kFennel), "fennel");
  EXPECT_STREQ(PartitionerKindName(PartitionerKind::kHdrf), "hdrf");
  ASSERT_TRUE(shard::ParsePartitionerKind("fennel").ok());
  EXPECT_EQ(shard::ParsePartitionerKind("fennel").value(),
            PartitionerKind::kFennel);
  ASSERT_TRUE(shard::ParsePartitionerKind("hdrf").ok());
  EXPECT_EQ(shard::ParsePartitionerKind("hdrf").value(),
            PartitionerKind::kHdrf);
}

// --- Migration journal ----------------------------------------------------

TEST(MigrationJournalTest, EncodeDecodeRoundTripsAllFields) {
  MigrationJournal journal;
  journal.id = 42;
  journal.from = 1;
  journal.to = 3;
  journal.s_a = 12345;
  journal.s_b = 678;
  journal.g0 = 9;
  journal.phase = MigrationPhase::kCommitted;
  journal.moving = {7, 11, 13, 17};

  std::string encoded;
  EncodeJournal(journal, &encoded);
  auto decoded = DecodeJournal(
      reinterpret_cast<const uint8_t*>(encoded.data()), encoded.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id, journal.id);
  EXPECT_EQ(decoded.value().from, journal.from);
  EXPECT_EQ(decoded.value().to, journal.to);
  EXPECT_EQ(decoded.value().s_a, journal.s_a);
  EXPECT_EQ(decoded.value().s_b, journal.s_b);
  EXPECT_EQ(decoded.value().g0, journal.g0);
  EXPECT_EQ(decoded.value().phase, journal.phase);
  EXPECT_EQ(decoded.value().moving, journal.moving);
}

TEST(MigrationJournalTest, DecodeRejectsCorruption) {
  MigrationJournal journal;
  journal.id = 1;
  journal.moving = {1, 2, 3};
  std::string encoded;
  EncodeJournal(journal, &encoded);
  const uint8_t* data = reinterpret_cast<const uint8_t*>(encoded.data());

  // Truncations at every boundary fail cleanly.
  for (const size_t size : {size_t{0}, size_t{4}, size_t{9},
                            encoded.size() - 1}) {
    EXPECT_FALSE(DecodeJournal(data, size).ok()) << "size " << size;
  }
  // Bad magic.
  std::string bad_magic = encoded;
  bad_magic[0] ^= 0x5a;
  EXPECT_FALSE(DecodeJournal(reinterpret_cast<const uint8_t*>(
                                 bad_magic.data()),
                             bad_magic.size())
                   .ok());
  // Payload bit flip breaks the CRC.
  std::string bad_crc = encoded;
  bad_crc.back() ^= 0x5a;
  EXPECT_FALSE(DecodeJournal(reinterpret_cast<const uint8_t*>(bad_crc.data()),
                             bad_crc.size())
                   .ok());
}

TEST(MigrationJournalTest, WriteReadAndArtifactListing) {
  const std::string dir = TempDir("anc_rebalance_journal");
  std::filesystem::create_directories(dir);

  EXPECT_EQ(rebalance::ReadJournal(dir).status().code(),
            StatusCode::kNotFound);

  MigrationJournal journal;
  journal.id = 5;
  journal.from = 0;
  journal.to = 1;
  journal.s_a = 99;
  journal.moving = {2, 4};
  ASSERT_TRUE(rebalance::WriteJournal(dir, journal).ok());
  auto read = rebalance::ReadJournal(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().id, 5u);
  EXPECT_EQ(read.value().moving, journal.moving);

  // Sidecars show up in the artifact listing alongside the journal.
  const std::string sidecar = rebalance::SidecarPath(dir, 5, 0);
  { std::ofstream(sidecar) << "x"; }
  const std::vector<std::string> artifacts =
      rebalance::ListMigrationArtifacts(dir);
  ASSERT_GE(artifacts.size(), 2u);
  EXPECT_EQ(artifacts.front(), rebalance::JournalPath(dir));
  EXPECT_NE(std::find(artifacts.begin(), artifacts.end(), sidecar),
            artifacts.end());
  std::filesystem::remove_all(dir);
}

// --- Cut monitor and planner ----------------------------------------------

TEST(CutMonitorTest, AccumulatesSmallWindowsAndDebouncesDrift) {
  CutMonitorOptions options;
  options.min_window_accepted = 100;
  options.consecutive_windows = 2;
  CutMonitor monitor(options);

  // First sample only primes the baseline.
  CutSample sample;
  sample.accepted = 0;
  sample.halo_deliveries = 0;
  sample.shard_accepted = {0, 0};
  EXPECT_FALSE(monitor.Update(sample, 0.05));

  // A window below the floor accumulates instead of counting.
  sample.accepted = 50;
  sample.halo_deliveries = 30;
  sample.shard_accepted = {25, 25};
  EXPECT_FALSE(monitor.Update(sample, 0.05));
  EXPECT_EQ(monitor.windows(), 0u);
  EXPECT_FALSE(monitor.ShouldRebalance());

  // Folding in the rest makes one full drifted window (ratio 0.6 vs
  // static 0.05): streak 1, still debounced.
  sample.accepted = 200;
  sample.halo_deliveries = 120;
  sample.shard_accepted = {100, 100};
  EXPECT_TRUE(monitor.Update(sample, 0.05));
  EXPECT_EQ(monitor.windows(), 1u);
  EXPECT_NEAR(monitor.observed_cut_ratio(), 0.6, 1e-9);
  EXPECT_FALSE(monitor.ShouldRebalance());

  // Second drifted window trips it.
  sample.accepted = 400;
  sample.halo_deliveries = 240;
  sample.shard_accepted = {200, 200};
  EXPECT_TRUE(monitor.Update(sample, 0.05));
  EXPECT_TRUE(monitor.ShouldRebalance());

  // Healthy windows decay the EWMA back under the threshold and clear
  // the streak (one window is not enough — the EWMA has memory).
  for (int i = 0; i < 5; ++i) {
    sample.accepted += 200;
    sample.halo_deliveries += 2;
    sample.shard_accepted[0] += 100;
    sample.shard_accepted[1] += 100;
    EXPECT_TRUE(monitor.Update(sample, 0.05));
  }
  EXPECT_LT(monitor.observed_cut_ratio(), 0.2);
  EXPECT_FALSE(monitor.ShouldRebalance());
}

TEST(CutMonitorTest, IngestSkewAloneTrips) {
  CutMonitorOptions options;
  options.min_window_accepted = 100;
  options.consecutive_windows = 1;
  CutMonitor monitor(options);

  CutSample sample;
  sample.shard_accepted = {0, 0, 0};
  EXPECT_FALSE(monitor.Update(sample, 0.5));
  // No halo drift (cut 0), but shard 0 takes the whole window: skew 3.0,
  // over the monitor's 2.0 threshold.
  sample.accepted = 200;
  sample.halo_deliveries = 0;
  sample.shard_accepted = {200, 0, 0};
  EXPECT_TRUE(monitor.Update(sample, 0.5));
  EXPECT_NEAR(monitor.ingest_skew(), 3.0, 1e-9);
  EXPECT_TRUE(monitor.ShouldRebalance());
}

TEST(RebalancePlanTest, MovesMisplacedHotVertexWithinCapacity) {
  // Two triangles bridged by one edge; vertex 3 sits on shard 0 while its
  // hot triangle {3,4,5} lives on shard 1.
  GraphBuilder builder;
  builder.SetNumNodes(6);
  const std::pair<NodeId, NodeId> edges[] = {
      {0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 3},
  };
  for (const auto& [u, v] : edges) ASSERT_TRUE(builder.AddEdge(u, v).ok());
  const Graph g = builder.Build();

  Partition partition;
  partition.num_shards = 2;
  partition.node_shard = {0, 0, 0, 0, 1, 1};
  std::vector<double> activity = {0, 0, 0, 10, 10, 10};

  rebalance::PlanOptions options;
  const RebalancePlan plan =
      PlanRebalance(g, partition, activity, options);
  ASSERT_EQ(plan.moves.size(), 1u);
  EXPECT_EQ(plan.moves[0].node, 3u);
  EXPECT_EQ(plan.moves[0].from, 0u);
  EXPECT_EQ(plan.moves[0].to, 1u);
  EXPECT_GT(plan.moves[0].gain, 0.0);
  EXPECT_EQ(plan.before.cut_edges, 2u);     // (3,4) (3,5)
  EXPECT_EQ(plan.projected.cut_edges, 1u);  // (2,3) remains

  // A stream that matches the partition plans nothing.
  partition.node_shard = {0, 0, 0, 1, 1, 1};
  const RebalancePlan aligned =
      PlanRebalance(g, partition, activity, options);
  EXPECT_TRUE(aligned.moves.empty());

  // Capacity: vertex 3's whole neighborhood lives on shard 1, but shard 1
  // is already at capacity (3 = ceil(6/2) with no slack), so the planner
  // must hold the move back.
  partition.node_shard = {0, 0, 1, 0, 1, 1};
  options.balance_slack = 1.0;
  activity = {10, 10, 10, 10, 10, 10};
  const RebalancePlan capped =
      PlanRebalance(g, partition, activity, options);
  EXPECT_TRUE(capped.moves.empty());
}

TEST(ActivityTrackerTest, ObserveAndRotateTrackDecayedCounts) {
  GraphBuilder builder;
  builder.SetNumNodes(4);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3).ok());
  const Graph g = builder.Build();

  ActivityTracker tracker(g, /*alpha=*/1.0);  // no smoothing: exact counts
  tracker.Observe(0);
  tracker.Observe(0);
  tracker.Observe(1);
  tracker.Observe(99);  // out of range: ignored
  EXPECT_EQ(tracker.observed(), 3u);
  tracker.Rotate();
  ASSERT_EQ(tracker.activity().size(), 4u);
  EXPECT_DOUBLE_EQ(tracker.activity()[0], 2.0);
  EXPECT_DOUBLE_EQ(tracker.activity()[1], 2.0);
  EXPECT_DOUBLE_EQ(tracker.activity()[2], 1.0);
  EXPECT_DOUBLE_EQ(tracker.activity()[3], 1.0);
  // An empty window zeroes alpha=1 activity (full decay).
  tracker.Rotate();
  EXPECT_DOUBLE_EQ(tracker.activity()[0], 0.0);
  EXPECT_EQ(tracker.rotations(), 2u);
}

// --- Health surfacing -----------------------------------------------------

TEST(RebalanceHealthTest, ObservedCutDriftTripsClusterScorecard) {
  obs::ClusterHealthSample sample;
  sample.num_shards = 2;
  sample.num_edges = 1000;
  sample.cut_edges = 50;
  sample.cut_ratio = 0.05;
  sample.balance = 1.0;
  sample.accepted = 4096;
  sample.halo_deliveries = 2048;  // observed 0.5 vs static 0.05
  sample.observed_cut_ratio = 0.5;
  sample.shards.resize(2);
  sample.shards[0].accepted = 2048;
  sample.shards[1].accepted = 2048;

  const obs::HealthReport report = obs::Assess(sample);
  EXPECT_NE(report.cluster_state, obs::HealthState::kHealthy)
      << report.ToString();
  bool found = false;
  for (const std::string& reason : report.cluster_reasons) {
    if (reason.find("cut_drift") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << report.ToString();

  // Below the traffic floor the drift check stays quiet.
  sample.accepted = 100;
  EXPECT_EQ(obs::Assess(sample).cluster_state, obs::HealthState::kHealthy);
}

// --- Router re-delivery after an assignment change (satellite) ------------

TEST(RebalanceRouterTest, HaloRedeliveryFollowsAssignmentChange) {
  GraphBuilder builder;
  builder.SetNumNodes(4);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());  // edge 0: intra shard 0
  ASSERT_TRUE(builder.AddEdge(1, 2).ok());  // edge 1: cut
  ASSERT_TRUE(builder.AddEdge(2, 3).ok());  // edge 2: intra shard 1
  const Graph g = builder.Build();

  Partition before;
  before.num_shards = 2;
  before.node_shard = {0, 0, 1, 1};
  const Router old_router(g, before);
  EXPECT_EQ(old_router.DeliveryOf(0), (std::pair<uint32_t, uint32_t>{
                                          0, Router::kNoShard}));
  EXPECT_EQ(old_router.DeliveryOf(1), (std::pair<uint32_t, uint32_t>{0, 1}));
  EXPECT_TRUE(old_router.IsCut(1));

  // Vertex 1 moves to shard 1: edge 1 stops being cut (no halo copy), and
  // edge 0 starts fanning out to shard 0 as the halo.
  Partition after = before;
  after.node_shard[1] = 1;
  const Router new_router(g, after);
  EXPECT_EQ(new_router.DeliveryOf(1), (std::pair<uint32_t, uint32_t>{
                                          1, Router::kNoShard}));
  EXPECT_FALSE(new_router.IsCut(1));
  EXPECT_EQ(new_router.EdgeOwner(0), 0u);  // first endpoint still owns
  EXPECT_EQ(new_router.DeliveryOf(0), (std::pair<uint32_t, uint32_t>{0, 1}));
  EXPECT_TRUE(new_router.IsCut(0));
  EXPECT_EQ(new_router.cut_edges(), 1u);
}

TEST(RebalanceRouterTest, LiveDeliveriesFollowMigratedOwnership) {
  Rng rng(59);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  const std::string dir = TempDir("anc_rebalance_redelivery");

  ShardedOptions options;
  options.partition.num_shards = 4;
  options.partition.explicit_assignment = data.truth.labels;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;
  auto created = ShardedServer::Create(g, TestConfig(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedServer& server = *created.value();
  ASSERT_TRUE(server.Start().ok());

  // Find an edge inside community 1 and prove its deliveries move from
  // shard 1 to shard 3 across the migration.
  EdgeId inner = g.NumEdges();
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    if (data.truth.labels[u] == 1 && data.truth.labels[v] == 1) {
      inner = e;
      break;
    }
  }
  ASSERT_LT(inner, g.NumEdges());
  ASSERT_TRUE(server.Submit({inner, 1.0}).ok());
  ASSERT_TRUE(server.Flush(kAwait).ok());
  const uint64_t owner_before = server.shard(1).accepted();
  const uint64_t target_before = server.shard(3).accepted();
  EXPECT_GT(owner_before, 0u);

  Migrator migrator(&server);
  const uint64_t epoch_before = server.assignment_epoch();
  ASSERT_TRUE(migrator.Migrate(CommunityMembers(data, 1), 3).ok());
  EXPECT_GT(server.assignment_epoch(), epoch_before);
  EXPECT_EQ(server.router()->EdgeOwner(inner), 3u);

  ASSERT_TRUE(server.Submit({inner, 2.0}).ok());
  ASSERT_TRUE(server.Flush(kAwait).ok());
  EXPECT_EQ(server.shard(1).accepted(), owner_before);  // no new delivery
  EXPECT_GT(server.shard(3).accepted(), target_before);
  server.Stop();
  std::filesystem::remove_all(dir);
}

// --- Live migration: byte-identity ----------------------------------------

TEST(LiveMigrationTest, MergedAnswersStayByteIdenticalAcrossMigration) {
  Rng rng(61);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  const AncConfig config = TestConfig();
  const ActivationStream stream =
      CommunityBiasedStream(g, data.truth.labels, 30, 0.05, 4.0, rng);
  const size_t half = stream.size() / 2;
  const ActivationStream first(stream.begin(), stream.begin() + half);
  const ActivationStream second(stream.begin() + half, stream.end());
  const std::string dir = TempDir("anc_rebalance_identity");

  ShardedOptions options;
  options.partition.num_shards = 4;
  options.partition.explicit_assignment = data.truth.labels;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;
  auto created = ShardedServer::Create(g, config, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedServer& server = *created.value();
  ASSERT_TRUE(server.Start().ok());

  // Before: the prefix answers match an oracle that applied the prefix.
  ASSERT_TRUE(server.SubmitStream(first).ok());
  ASSERT_TRUE(server.FlushDurable(kAwait).ok());
  AncIndex oracle(g, config);
  ASSERT_TRUE(oracle.ApplyStream(first).ok());
  ExpectMatchesOracle(server, oracle, "before migration");

  // During: keep ingest and queries running while community 2 moves from
  // shard 2 to shard 0 — ingest never stops.
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (const Activation& activation : second) {
      ASSERT_TRUE(server.Submit(activation).ok());
    }
  });
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto clusters = server.Clusters();
      ASSERT_TRUE(clusters.ok());
      std::this_thread::yield();
    }
  });
  Migrator migrator(&server);
  const Status migrated = migrator.Migrate(CommunityMembers(data, 2), 0);
  producer.join();
  done.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  EXPECT_EQ(migrator.migrations(), 1u);

  // After: ownership moved, and the merged answers still match an oracle
  // that applied the whole stream.
  EXPECT_EQ(server.router()->NodeOwner(CommunityMembers(data, 2)[0]), 0u);
  ASSERT_TRUE(server.Flush(kAwait).ok());
  ASSERT_TRUE(oracle.ApplyStream(second).ok());
  ExpectMatchesOracle(server, oracle, "after migration");

  // And the moved vertices answer identically through the query front.
  for (const NodeId v : CommunityMembers(data, 2)) {
    auto local = server.LocalCluster(v);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(local.value(), oracle.LocalCluster(v, oracle.DefaultLevel()));
  }
  server.Stop();
  std::filesystem::remove_all(dir);
}

TEST(LiveMigrationTest, TieredShardsMigrateAndRecoverByteIdentical) {
  Rng rng(63);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  const AncConfig config = TestConfig();
  const ActivationStream stream =
      CommunityBiasedStream(g, data.truth.labels, 30, 0.05, 4.0, rng);
  const size_t half = stream.size() / 2;
  const ActivationStream first(stream.begin(), stream.begin() + half);
  const ActivationStream second(stream.begin() + half, stream.end());
  const std::string dir = TempDir("anc_rebalance_tiered");

  // Two tiered shards: communities 0 and 2 on shard 0, 1 and 3 on shard 1.
  // A small resident budget keeps both tiers spilling while the import
  // writes moved edges' history into the target's columns.
  ShardedOptions options;
  options.partition.num_shards = 2;
  options.partition.explicit_assignment = data.truth.labels;
  for (uint32_t& shard : options.partition.explicit_assignment) shard %= 2;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;
  tier::TierOptions tier_options;
  tier_options.tier_budget_bytes = 4096;
  tier_options.page_elems = 64;
  options.tier = tier_options;
  const std::vector<NodeId> moving = CommunityMembers(data, 2);
  AncIndex oracle(g, config);
  {
    auto created = ShardedServer::Create(g, config, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ShardedServer& server = *created.value();
    ASSERT_TRUE(server.Start().ok());
    // Both tiers also compact while the migration imports.
    for (uint32_t s = 0; s < server.num_shards(); ++s) {
      check::TestHooks::SetCompactMinSegments(*server.shard_tier(s), 4);
    }
    ASSERT_TRUE(server.SubmitStream(first).ok());
    ASSERT_TRUE(server.FlushDurable(kAwait).ok());
    ASSERT_TRUE(oracle.ApplyStream(first).ok());
    ExpectMatchesOracle(server, oracle, "tiered, before migration");

    // Ingest keeps flowing while community 2 moves from shard 0 to 1.
    std::thread producer([&] {
      for (const Activation& activation : second) {
        ASSERT_TRUE(server.Submit(activation).ok());
      }
    });
    Migrator migrator(&server);
    const Status migrated = migrator.Migrate(moving, 1);
    producer.join();
    ASSERT_TRUE(migrated.ok()) << migrated.ToString();
    EXPECT_EQ(server.router()->NodeOwner(moving[0]), 1u);

    ASSERT_TRUE(server.FlushDurable(kAwait).ok());
    ASSERT_TRUE(oracle.ApplyStream(second).ok());
    ExpectMatchesOracle(server, oracle, "tiered, after migration");
    server.Stop();
    EXPECT_TRUE(server.store_status().ok())
        << server.store_status().ToString();
    for (uint32_t s = 0; s < server.num_shards(); ++s) {
      ASSERT_NE(server.shard_tier(s), nullptr);
      EXPECT_GT(server.shard_tier(s)->Stats().spills, 0u) << "shard " << s;
    }
  }

  // Recovery resolves each shard's page references and replays its WAL
  // tail on top of the post-migration checkpoint.
  auto recovered = ShardedServer::RecoverAll(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ShardedServer& server = *recovered.value();
  EXPECT_EQ(server.router()->NodeOwner(moving[0]), 1u);
  ASSERT_TRUE(server.Start().ok());
  ExpectMatchesOracle(server, oracle, "tiered, recovered");
  server.Stop();
  std::filesystem::remove_all(dir);
}

TEST(LiveMigrationTest, ValidatesArguments) {
  Rng rng(67);
  GroundTruthGraph data = DisjointCommunities(rng);
  const std::string dir = TempDir("anc_rebalance_validate");

  ShardedOptions options;
  options.partition.num_shards = 4;
  options.partition.explicit_assignment = data.truth.labels;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;
  auto created = ShardedServer::Create(data.graph, TestConfig(), options);
  ASSERT_TRUE(created.ok());
  ShardedServer& server = *created.value();

  Migrator migrator(&server);
  const std::vector<NodeId> community = CommunityMembers(data, 1);
  // Not running yet.
  EXPECT_EQ(migrator.Migrate(community, 3).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(server.Start().ok());
  // Empty set, bad target, no-op target, mixed owners.
  EXPECT_EQ(migrator.Migrate({}, 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(migrator.Migrate(community, 9).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(migrator.Migrate(community, 1).code(),
            StatusCode::kInvalidArgument);
  std::vector<NodeId> mixed = community;
  mixed.push_back(CommunityMembers(data, 0)[0]);
  EXPECT_EQ(migrator.Migrate(mixed, 3).code(), StatusCode::kInvalidArgument);
  server.Stop();
  std::filesystem::remove_all(dir);

  // Non-durable servers refuse migration outright.
  ShardedOptions volatile_options;
  volatile_options.partition.num_shards = 4;
  volatile_options.partition.explicit_assignment = data.truth.labels;
  auto volatile_server =
      ShardedServer::Create(data.graph, TestConfig(), volatile_options);
  ASSERT_TRUE(volatile_server.ok());
  ASSERT_TRUE(volatile_server.value()->Start().ok());
  Migrator volatile_migrator(volatile_server.value().get());
  EXPECT_EQ(volatile_migrator.Migrate(community, 3).code(),
            StatusCode::kFailedPrecondition);
  volatile_server.value()->Stop();
}

// --- Crash seams ----------------------------------------------------------

/// Runs one migration into an armed crash seam, then proves RecoverAll
/// lands byte-identical to the unsharded oracle — rollback for seams
/// before the committed journal, roll-forward after it.
void RunCrashSeam(store::CrashPoint seam, bool expect_committed) {
  Rng rng(71);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  const AncConfig config = TestConfig();
  const ActivationStream stream =
      CommunityBiasedStream(g, data.truth.labels, 25, 0.05, 4.0, rng);
  const std::string dir =
      TempDir(std::string("anc_rebalance_seam_") +
              store::CrashPointName(seam));

  ShardedOptions options;
  options.partition.num_shards = 4;
  options.partition.explicit_assignment = data.truth.labels;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;
  const std::vector<NodeId> moving = CommunityMembers(data, 1);
  {
    auto created = ShardedServer::Create(g, config, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ShardedServer& server = *created.value();
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.SubmitStream(stream).ok());
    ASSERT_TRUE(server.FlushDurable(kAwait).ok());

    store::TestHooks::ArmCrash(seam, /*skip=*/0);
    Migrator migrator(&server);
    const Status status = migrator.Migrate(moving, 3);
    store::TestHooks::Disarm();
    ASSERT_FALSE(status.ok()) << "seam did not fire";
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(server.assignment_epoch() > 1, expect_committed);
    server.Stop();
  }

  // The frozen disk state must carry the journal (the seams all land
  // between the prepare journal and cleanup).
  EXPECT_TRUE(std::filesystem::exists(rebalance::JournalPath(dir)));

  auto recovered = ShardedServer::RecoverAll(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ShardedServer& server = *recovered.value();
  EXPECT_EQ(server.router()->NodeOwner(moving[0]),
            expect_committed ? 3u : 1u);
  ASSERT_TRUE(server.Start().ok());

  // Start() retires the artifacts either way (rollback: target durable
  // state never changed; roll-forward: recovery spliced the sidecars and
  // checkpointed).
  EXPECT_TRUE(rebalance::ListMigrationArtifacts(dir).empty());

  AncIndex oracle(g, config);
  ASSERT_TRUE(oracle.ApplyStream(stream).ok());
  ExpectMatchesOracle(server, oracle,
                      std::string("recovered from ") +
                          store::CrashPointName(seam));

  // The recovered server still serves and still migrates consistently:
  // submit a little more traffic and re-check against the oracle.
  Rng more_rng(73);
  ActivationStream more =
      CommunityBiasedStream(g, data.truth.labels, 5, 0.05, 4.0, more_rng);
  // The generator restarts its clock at 1; shift past the first stream so
  // the oracle (which enforces non-decreasing timestamps) accepts it.
  for (Activation& a : more) a.time += 25.0;
  ASSERT_TRUE(server.SubmitStream(more).ok());
  ASSERT_TRUE(server.Flush(kAwait).ok());
  ASSERT_TRUE(oracle.ApplyStream(more).ok());
  ExpectMatchesOracle(server, oracle, "post-recovery traffic");
  server.Stop();
  std::filesystem::remove_all(dir);
}

TEST(MigrationCrashTest, MidImportCrashRollsBack) {
  RunCrashSeam(store::CrashPoint::kMidMigrationImport,
               /*expect_committed=*/false);
}

TEST(MigrationCrashTest, PreCommitCrashRollsBack) {
  RunCrashSeam(store::CrashPoint::kPreMigrationCommit,
               /*expect_committed=*/false);
}

TEST(MigrationCrashTest, PostCommitPreMetaCrashRollsForward) {
  RunCrashSeam(store::CrashPoint::kPostMigrationCommitPreMeta,
               /*expect_committed=*/true);
}

TEST(MigrationCrashTest, PostCommitTrafficOnMovedEdgesRecoversExact) {
  // Crash between the commit and the phase-5 cleanup, but keep serving
  // first: post-commit deliveries on the moved edges land in the target's
  // WAL *after* S_B yet *before* the splice point, so recovery defers and
  // re-applies them after the sidecars. By then the replay of later
  // non-deferred records has advanced the strict clock past their
  // timestamps — they must go through the anchored out-of-order path, or
  // their mass is silently lost.
  Rng rng(89);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  const AncConfig config = TestConfig();
  const ActivationStream stream =
      CommunityBiasedStream(g, data.truth.labels, 25, 0.05, 4.0, rng);
  const std::string dir = TempDir("anc_rebalance_post_commit_traffic");

  ShardedOptions options;
  options.partition.num_shards = 4;
  options.partition.explicit_assignment = data.truth.labels;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;
  const std::vector<NodeId> moving = CommunityMembers(data, 1);

  // Post-commit traffic interleaving moved-community edges with the
  // target's own community: each moved-edge record is followed by a
  // later-timestamped community-3 record in shard 3's WAL.
  std::vector<EdgeId> moved_edges;
  std::vector<EdgeId> target_edges;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    if (data.truth.labels[u] == 1 && data.truth.labels[v] == 1) {
      moved_edges.push_back(e);
    }
    if (data.truth.labels[u] == 3 && data.truth.labels[v] == 3) {
      target_edges.push_back(e);
    }
  }
  ASSERT_FALSE(moved_edges.empty());
  ASSERT_FALSE(target_edges.empty());
  ActivationStream post;
  double time = 26.0;  // past the base stream's clock
  for (int i = 0; i < 40; ++i) {
    post.push_back({moved_edges[i % moved_edges.size()], time});
    time += 0.01;
    post.push_back({target_edges[i % target_edges.size()], time});
    time += 0.01;
  }

  {
    auto created = ShardedServer::Create(g, config, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ShardedServer& server = *created.value();
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.SubmitStream(stream).ok());
    ASSERT_TRUE(server.FlushDurable(kAwait).ok());

    // Commit the migration but die before shards.meta / cleanup: the
    // committed journal and the sidecars stay behind.
    store::TestHooks::ArmCrash(
        store::CrashPoint::kPostMigrationCommitPreMeta, /*skip=*/0);
    Migrator migrator(&server);
    const Status status = migrator.Migrate(moving, 3);
    store::TestHooks::Disarm();
    ASSERT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
    ASSERT_GT(server.assignment_epoch(), 1u);

    // The swap is live: post-commit traffic on the moved edges routes to
    // the new owner while the journal still owns the move on disk.
    ASSERT_TRUE(server.SubmitStream(post).ok());
    ASSERT_TRUE(server.FlushDurable(kAwait).ok());
    server.Stop();
  }
  EXPECT_TRUE(std::filesystem::exists(rebalance::JournalPath(dir)));

  auto recovered = ShardedServer::RecoverAll(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ShardedServer& server = *recovered.value();
  EXPECT_EQ(server.router()->NodeOwner(moving[0]), 3u);
  ASSERT_TRUE(server.Start().ok());

  AncIndex oracle(g, config);
  ASSERT_TRUE(oracle.ApplyStream(stream).ok());
  ASSERT_TRUE(oracle.ApplyStream(post).ok());
  ExpectMatchesOracle(server, oracle, "post-commit traffic recovery");
  server.Stop();
  std::filesystem::remove_all(dir);
}

TEST(LiveMigrationTest, RolledBackImportMarksTargetDirtyAndRefusesRetry) {
  // An abort cannot undo imports already applied to the target's live
  // index (they never touch its WAL): retrying the migration would splice
  // the same history again and double-count. The rollback must poison the
  // target for further imports — from any Migrator instance — while other
  // targets keep working.
  Rng rng(97);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  const AncConfig config = TestConfig();
  const ActivationStream stream =
      CommunityBiasedStream(g, data.truth.labels, 25, 0.05, 4.0, rng);
  const std::string dir = TempDir("anc_rebalance_dirty_target");

  ShardedOptions options;
  options.partition.num_shards = 4;
  options.partition.explicit_assignment = data.truth.labels;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;
  auto created = ShardedServer::Create(g, config, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedServer& server = *created.value();
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.SubmitStream(stream).ok());
  ASSERT_TRUE(server.FlushDurable(kAwait).ok());

  // Fail after the sidecar-0 import reached shard 3's live index.
  const std::vector<NodeId> moving = CommunityMembers(data, 1);
  store::TestHooks::ArmCrash(store::CrashPoint::kPreMigrationCommit,
                             /*skip=*/0);
  Migrator migrator(&server);
  const Status status = migrator.Migrate(moving, 3);
  store::TestHooks::Disarm();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(server.assignment_epoch(), 1u);  // rolled back
  EXPECT_TRUE(server.shard_import_dirty(3));
  EXPECT_FALSE(server.shard_import_dirty(0));

  // Retrying into the polluted target is refused — by the same Migrator
  // and by a freshly constructed one.
  EXPECT_EQ(migrator.Migrate(moving, 3).code(),
            StatusCode::kFailedPrecondition);
  Migrator other(&server);
  EXPECT_EQ(other.Migrate(moving, 3).code(),
            StatusCode::kFailedPrecondition);

  // A clean target still accepts the move, and the merged answers stay
  // exact: shard 3's polluted copies are never authoritative (the
  // vote-ownership merge ignores non-owner votes).
  ASSERT_TRUE(migrator.Migrate(moving, 2).ok());
  EXPECT_EQ(server.router()->NodeOwner(moving[0]), 2u);
  ASSERT_TRUE(server.Flush(kAwait).ok());
  AncIndex oracle(g, config);
  ASSERT_TRUE(oracle.ApplyStream(stream).ok());
  ExpectMatchesOracle(server, oracle, "after dirty-target rollback");
  server.Stop();
  std::filesystem::remove_all(dir);
}

TEST(LiveMigrationTest, ServerIssuedIdsKeepArchivesDistinctAcrossMigrators) {
  // Migration ids name the import archives in the target's shard
  // directory — the only copy of the moved edges' pre-import history. Two
  // Migrator instances on one server (the Rebalancer's internal one plus
  // a directly constructed one) must never reuse an id, even when a
  // failed attempt has consumed one without bumping the assignment epoch.
  Rng rng(101);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  const AncConfig config = TestConfig();
  const ActivationStream stream =
      CommunityBiasedStream(g, data.truth.labels, 25, 0.05, 4.0, rng);
  const std::string dir = TempDir("anc_rebalance_distinct_ids");

  ShardedOptions options;
  options.partition.num_shards = 4;
  options.partition.explicit_assignment = data.truth.labels;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;
  auto created = ShardedServer::Create(g, config, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedServer& server = *created.value();
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.SubmitStream(stream).ok());
  ASSERT_TRUE(server.FlushDurable(kAwait).ok());

  // One attempt dies before any import (and before the epoch could bump),
  // consuming a migration id with no archive to show for it.
  Migrator first(&server);
  store::TestHooks::ArmCrash(store::CrashPoint::kMidMigrationImport,
                             /*skip=*/0);
  ASSERT_FALSE(first.Migrate(CommunityMembers(data, 1), 0).ok());
  store::TestHooks::Disarm();
  EXPECT_FALSE(server.shard_import_dirty(0));  // died before any import

  // Two successful migrations into the same target, via different
  // Migrator instances: each must archive its own sidecar pair.
  ASSERT_TRUE(first.Migrate(CommunityMembers(data, 1), 0).ok());
  Migrator second(&server);
  ASSERT_TRUE(second.Migrate(CommunityMembers(data, 2), 0).ok());
  const std::string shard0_dir =
      (std::filesystem::path(dir) / "shard-0").string();
  EXPECT_EQ(rebalance::ListImportArchives(shard0_dir).size(), 4u);

  ASSERT_TRUE(server.Flush(kAwait).ok());
  AncIndex oracle(g, config);
  ASSERT_TRUE(oracle.ApplyStream(stream).ok());
  ExpectMatchesOracle(server, oracle, "after two-coordinator migrations");
  server.Stop();
  std::filesystem::remove_all(dir);
}

// --- Rebalancer loop ------------------------------------------------------

TEST(RebalancerTest, DriftTriggersMigrationsThatReduceTheCut) {
  Rng rng(79);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  const std::string dir = TempDir("anc_rebalance_loop");

  // Misplace community 0: alternate its members between shards 0 and 1 so
  // roughly half its edges are cut, then drive traffic through it.
  std::vector<uint32_t> assignment = data.truth.labels;
  const std::vector<NodeId> hot = CommunityMembers(data, 0);
  for (size_t i = 0; i < hot.size(); ++i) {
    assignment[hot[i]] = i % 2 == 0 ? 0 : 1;
  }

  ShardedOptions options;
  options.partition.num_shards = 4;
  options.partition.explicit_assignment = assignment;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;
  auto created = ShardedServer::Create(g, TestConfig(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedServer& server = *created.value();
  ASSERT_TRUE(server.Start().ok());
  const double static_cut = server.partition_stats().cut_ratio;
  EXPECT_GT(static_cut, 0.0);

  RebalancerOptions rebalancer_options;
  rebalancer_options.monitor.min_window_accepted = 256;
  rebalancer_options.monitor.consecutive_windows = 2;
  rebalancer_options.plan.max_moves = 64;
  Rebalancer rebalancer(&server, rebalancer_options);

  // Only community 0's edges fire: the observed cut ratio is the cut
  // fraction *of the hot community* (~0.5), far above the static ratio.
  std::vector<EdgeId> hot_edges;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    if (data.truth.labels[u] == 0 && data.truth.labels[v] == 0) {
      hot_edges.push_back(e);
    }
  }
  ASSERT_FALSE(hot_edges.empty());

  rebalance::RebalanceOutcome outcome;
  double time = 1.0;
  for (int window = 0; window < 4 && !outcome.triggered; ++window) {
    for (int i = 0; i < 300; ++i) {
      const Activation activation{hot_edges[i % hot_edges.size()], time};
      time += 0.001;
      ASSERT_TRUE(server.Submit(activation).ok());
      rebalancer.Observe(activation);
    }
    ASSERT_TRUE(server.Flush(kAwait).ok());
    outcome = rebalancer.Step();
  }
  ASSERT_TRUE(outcome.triggered) << "drift never tripped the monitor";
  EXPECT_GT(rebalancer.monitor().observed_cut_ratio(), static_cut);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_GT(outcome.migrations, 0u);
  EXPECT_GT(outcome.migrated_vertices, 0u);
  EXPECT_GT(server.assignment_epoch(), 1u);

  // The executed moves consolidated the hot community: the live router's
  // static cut shrank.
  const PartitionStats after =
      ComputeStats(g, server.router()->partition());
  EXPECT_LT(after.cut_ratio, static_cut);

  if (obs::kMetricsEnabled) {
    const obs::StatsSnapshot stats = server.Stats();
    EXPECT_GT(stats.counter("anc.rebalance.windows"), 0u);
    EXPECT_GT(stats.counter("anc.rebalance.triggers"), 0u);
    EXPECT_GT(stats.counter("anc.rebalance.migrations"), 0u);
    EXPECT_GT(stats.counter("anc.rebalance.moved_vertices"), 0u);
    EXPECT_GT(stats.gauge("anc.rebalance.observed_cut_x1000"), 0);
  }
  server.Stop();
  std::filesystem::remove_all(dir);
}

// --- Migration stress (ASan/TSan tiers) -----------------------------------

TEST(MigrationStressTest, ConcurrentIngestQueriesAndMigrationsStayExact) {
  Rng rng(83);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  const AncConfig config = TestConfig();
  const ActivationStream stream =
      CommunityBiasedStream(g, data.truth.labels, 40, 0.05, 4.0, rng);
  const std::string dir = TempDir("anc_rebalance_stress");

  ShardedOptions options;
  options.partition.num_shards = 4;
  options.partition.explicit_assignment = data.truth.labels;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;
  auto created = ShardedServer::Create(g, config, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedServer& server = *created.value();
  ASSERT_TRUE(server.Start().ok());

  // One producer replays the stream, one reader hammers the merged query
  // surfaces, and the coordinator consolidates three communities onto
  // shard 0 — three live migrations against full concurrency.
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (const Activation& activation : stream) {
      ASSERT_TRUE(server.Submit(activation).ok());
    }
  });
  std::thread reader([&] {
    uint64_t queries = 0;
    while (!done.load(std::memory_order_acquire)) {
      const ShardedView view = server.View();
      (void)view.Clusters(view.DefaultLevel());
      if (++queries % 4 == 0) std::this_thread::yield();
    }
  });

  Migrator migrator(&server);
  for (const uint32_t community : {1u, 2u, 3u}) {
    const Status status =
        migrator.Migrate(CommunityMembers(data, community), 0);
    ASSERT_TRUE(status.ok()) << "community " << community << ": "
                             << status.ToString();
  }
  producer.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(migrator.migrations(), 3u);

  // Everything ends up owned by shard 0, and the merged answers are still
  // byte-identical to the unsharded oracle.
  ASSERT_TRUE(server.Flush(kAwait).ok());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(server.router()->NodeOwner(v), 0u) << "node " << v;
  }
  AncIndex oracle(g, config);
  ASSERT_TRUE(oracle.ApplyStream(stream).ok());
  ExpectMatchesOracle(server, oracle, "after migration storm");
  server.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace anc
