// Sharding-subsystem tests (src/shard/, docs/sharding.md): partitioner
// quality/validation, router delivery sets, and the ShardedServer
// differential guarantees — byte-identical merged answers to a single
// unsharded AncIndex on partition-local streams, NMI/modularity within
// tolerance on cross-shard streams, and per-shard crash recovery whose
// merged answers match a fresh prefix replay.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "activation/stream_generators.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "metrics/quality.h"
#include "metrics/structural.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parked_writer.h"
#include "serve/server.h"
#include "shard/health.h"
#include "shard/partitioner.h"
#include "shard/router.h"
#include "shard/sharded_server.h"
#include "shard/sharded_view.h"
#include "store/test_hooks.h"
#include "util/rng.h"

namespace anc {
namespace {

using shard::ComputeStats;
using shard::HashPartition;
using shard::LdgPartition;
using shard::MakePartition;
using shard::Partition;
using shard::PartitionerKind;
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

/// A 4-community planted partition with zero inter-community edges:
/// components align with communities, so a community-aligned partition has
/// no cut edges and no cross-shard shortest paths — the byte-identity
/// regime of docs/sharding.md.
GroundTruthGraph DisjointCommunities(Rng& rng) {
  PlantedPartitionParams params;
  params.num_communities = 4;
  params.min_size = 18;
  params.max_size = 26;
  params.p_in = 0.35;
  params.mixing = 0.0;
  return PlantedPartition(params, rng);
}

void ExpectClusteringsEqual(const Clustering& a, const Clustering& b,
                            const std::string& what) {
  ASSERT_EQ(a.num_clusters, b.num_clusters) << what;
  ASSERT_EQ(a.labels, b.labels) << what;
}

/// Routes `stream` the same way ShardedServer::Submit does: owner shard
/// always, halo shard additionally for cut edges. The per-shard streams
/// are exactly what each shard's writer applies (in order), so prefix
/// replays of them reproduce per-shard recovered states.
std::vector<ActivationStream> RouteStream(const Router& router,
                                          const ActivationStream& stream) {
  std::vector<ActivationStream> routed(router.num_shards());
  for (const Activation& activation : stream) {
    const auto [owner, halo] = router.DeliveryOf(activation.edge);
    routed[owner].push_back(activation);
    if (halo != Router::kNoShard) routed[halo].push_back(activation);
  }
  return routed;
}

// --- Partitioner ----------------------------------------------------------

TEST(ShardPartitionerTest, HashCoversAndRoughlyBalances) {
  Rng rng(7);
  const Graph g = BarabasiAlbert(400, 3, rng);
  auto partition = HashPartition(g, 4, /*seed=*/1);
  ASSERT_TRUE(partition.ok());
  const PartitionStats stats = ComputeStats(g, partition.value());
  EXPECT_EQ(stats.num_shards, 4u);
  uint64_t nodes = 0;
  uint64_t owned = 0;
  for (const uint32_t c : stats.shard_nodes) nodes += c;
  for (const uint32_t c : stats.shard_owned_edges) owned += c;
  EXPECT_EQ(nodes, g.NumNodes());
  EXPECT_EQ(owned, g.NumEdges());
  EXPECT_GE(stats.balance, 1.0);
  EXPECT_LT(stats.balance, 1.5);  // splitmix on 100 nodes/shard
  EXPECT_GT(stats.cut_ratio, 0.5);  // hash has no locality
}

TEST(ShardPartitionerTest, LdgCutsFarFewerEdgesThanHashOnCommunities) {
  Rng rng(11);
  PlantedPartitionParams params;
  params.num_communities = 8;
  params.min_size = 20;
  params.max_size = 40;
  params.mixing = 0.10;
  GroundTruthGraph data = PlantedPartition(params, rng);
  const Graph& g = data.graph;

  auto hash = HashPartition(g, 4, 1);
  auto ldg = LdgPartition(g, 4, /*balance_slack=*/1.1, /*seed=*/1);
  ASSERT_TRUE(hash.ok());
  ASSERT_TRUE(ldg.ok());
  const PartitionStats hash_stats = ComputeStats(g, hash.value());
  const PartitionStats ldg_stats = ComputeStats(g, ldg.value());
  EXPECT_LT(ldg_stats.cut_ratio, hash_stats.cut_ratio);
  EXPECT_LT(ldg_stats.cut_ratio, 0.5);
  // LDG's capacity rule keeps shards within the slack bound.
  EXPECT_LE(ldg_stats.balance, 1.1 * 1.1);
}

TEST(ShardPartitionerTest, RestreamingPassesTightenTheCut) {
  Rng rng(11);
  PlantedPartitionParams params;
  params.num_communities = 8;
  params.min_size = 20;
  params.max_size = 40;
  params.mixing = 0.10;
  GroundTruthGraph data = PlantedPartition(params, rng);
  const Graph& g = data.graph;

  auto one_pass = LdgPartition(g, 4, 1.1, 1, /*passes=*/1);
  auto restreamed = LdgPartition(g, 4, 1.1, 1, /*passes=*/3);
  ASSERT_TRUE(one_pass.ok());
  ASSERT_TRUE(restreamed.ok());
  const PartitionStats before = ComputeStats(g, one_pass.value());
  const PartitionStats after = ComputeStats(g, restreamed.value());
  // Restreaming re-places every vertex against its full neighborhood, so
  // the cut can only meaningfully improve; balance stays inside the slack.
  EXPECT_LE(after.cut_ratio, before.cut_ratio);
  EXPECT_LE(after.balance, 1.1 * 1.1);

  auto again = LdgPartition(g, 4, 1.1, 1, /*passes=*/3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().node_shard, restreamed.value().node_shard);
  EXPECT_EQ(LdgPartition(g, 4, 1.1, 1, /*passes=*/0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardPartitionerTest, LdgIsDeterministicPerSeed) {
  Rng rng(13);
  const Graph g = BarabasiAlbert(200, 3, rng);
  auto a = LdgPartition(g, 4, 1.1, 42);
  auto b = LdgPartition(g, 4, 1.1, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().node_shard, b.value().node_shard);
}

TEST(ShardPartitionerTest, RejectsInvalidOptions) {
  Rng rng(17);
  const Graph g = BarabasiAlbert(30, 2, rng);
  EXPECT_EQ(HashPartition(g, 0, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(HashPartition(g, 31, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LdgPartition(g, 4, 0.5, 1).status().code(),
            StatusCode::kInvalidArgument);

  PartitionOptions options;
  options.num_shards = 2;
  options.explicit_assignment = {0, 1};  // wrong size
  EXPECT_EQ(MakePartition(g, options).status().code(),
            StatusCode::kInvalidArgument);
  options.explicit_assignment.assign(g.NumNodes(), 5);  // bad shard id
  EXPECT_EQ(MakePartition(g, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardPartitionerTest, KindNamesRoundTrip) {
  EXPECT_STREQ(PartitionerKindName(PartitionerKind::kHash), "hash");
  EXPECT_STREQ(PartitionerKindName(PartitionerKind::kLdg), "ldg");
  ASSERT_TRUE(shard::ParsePartitionerKind("ldg").ok());
  EXPECT_EQ(shard::ParsePartitionerKind("ldg").value(), PartitionerKind::kLdg);
  EXPECT_FALSE(shard::ParsePartitionerKind("metis").ok());
}

// --- Router ---------------------------------------------------------------

TEST(ShardRouterTest, DeliveryMatchesEndpointOwnership) {
  Rng rng(19);
  const Graph g = BarabasiAlbert(120, 3, rng);
  auto partition = HashPartition(g, 3, 2);
  ASSERT_TRUE(partition.ok());
  const PartitionStats stats = ComputeStats(g, partition.value());
  const Router router(g, partition.value());

  EXPECT_EQ(router.cut_edges(), stats.cut_edges);
  uint64_t cut = 0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    const auto [owner, halo] = router.DeliveryOf(e);
    EXPECT_EQ(owner, router.NodeOwner(u));
    EXPECT_EQ(owner, router.EdgeOwner(e));
    if (router.NodeOwner(u) == router.NodeOwner(v)) {
      EXPECT_EQ(halo, Router::kNoShard);
    } else {
      EXPECT_EQ(halo, router.NodeOwner(v));
      EXPECT_TRUE(router.IsCut(e));
      ++cut;
    }
  }
  EXPECT_EQ(cut, router.cut_edges());
}

// --- Differential: partition-local byte-identity --------------------------

TEST(ShardedServerTest, ByteIdenticalToSingleIndexOnPartitionLocalStreams) {
  Rng rng(23);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  const AncConfig config = TestConfig();
  // mixing = 0: every edge is intra-community, so any stream is
  // partition-local for the community-aligned partition.
  const ActivationStream stream =
      CommunityBiasedStream(g, data.truth.labels, 30, 0.05, 4.0, rng);

  // Oracle: one unsharded index applies the full stream.
  AncIndex oracle(g, config);
  ASSERT_TRUE(oracle.ApplyStream(stream).ok());

  // 4-shard server with the community-aligned partition (cut = 0).
  ShardedOptions options;
  options.partition.num_shards = 4;
  options.partition.explicit_assignment = data.truth.labels;
  auto created = ShardedServer::Create(g, config, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedServer& server = *created.value();
  EXPECT_EQ(server.partition_stats().cut_edges, 0u);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.SubmitStream(stream).ok());
  ASSERT_TRUE(server.Flush(kAwait).ok());
  EXPECT_EQ(server.accepted(), stream.size());
  EXPECT_EQ(server.halo_deliveries(), 0u);

  // Byte-identity of the merged vote tables...
  const ShardedView view = server.View();
  ASSERT_EQ(view.num_levels(), oracle.num_levels());
  EXPECT_EQ(view.DefaultLevel(), oracle.DefaultLevel());
  const AncIndex::ClusterState oracle_state = oracle.ExportClusterState();
  EXPECT_EQ(view.vote_threshold(), oracle_state.vote_counts.threshold());
  for (uint32_t level = 1; level <= view.num_levels(); ++level) {
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      ASSERT_EQ(view.VotesOf(e, level),
                oracle_state.vote_counts[level - 1][e])
          << "level " << level << " edge " << e;
    }
  }
  // ... and of every query surface.
  for (uint32_t level = 1; level <= view.num_levels(); ++level) {
    ExpectClusteringsEqual(view.Clusters(level), oracle.Clusters(level),
                           "clusters at level " + std::to_string(level));
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(view.LocalCluster(v, view.DefaultLevel()),
              oracle.LocalCluster(v, oracle.DefaultLevel()))
        << "node " << v;
    uint32_t sharded_level = 0;
    uint32_t oracle_level = 0;
    EXPECT_EQ(view.SmallestCluster(v, 2, &sharded_level),
              oracle.SmallestCluster(v, 2, &oracle_level))
        << "node " << v;
    EXPECT_EQ(sharded_level, oracle_level) << "node " << v;
  }

  // The admissioned query front agrees with the raw view.
  auto merged = server.Clusters();
  ASSERT_TRUE(merged.ok());
  ExpectClusteringsEqual(merged.value(), oracle.Clusters(), "default level");
  server.Stop();
}

// --- Differential: cross-shard quality tolerance --------------------------

TEST(ShardedServerTest, CrossShardStreamsStayWithinQualityTolerance) {
  Rng rng(29);
  PlantedPartitionParams params;
  params.num_communities = 8;
  params.min_size = 16;
  params.max_size = 28;
  params.p_in = 0.35;
  params.mixing = 0.15;
  GroundTruthGraph data = PlantedPartition(params, rng);
  const Graph& g = data.graph;
  const AncConfig config = TestConfig();
  const ActivationStream stream =
      CommunityBiasedStream(g, data.truth.labels, 30, 0.06, 4.0, rng);

  AncIndex oracle(g, config);
  ASSERT_TRUE(oracle.ApplyStream(stream).ok());

  ShardedOptions options;
  options.partition.num_shards = 4;
  options.partition.kind = PartitionerKind::kLdg;
  auto created = ShardedServer::Create(g, config, options);
  ASSERT_TRUE(created.ok());
  ShardedServer& server = *created.value();
  EXPECT_GT(server.partition_stats().cut_edges, 0u);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.SubmitStream(stream).ok());
  ASSERT_TRUE(server.Flush(kAwait).ok());
  EXPECT_GT(server.halo_deliveries(), 0u);

  const Clustering oracle_clusters = oracle.Clusters();
  auto merged = server.Clusters();
  ASSERT_TRUE(merged.ok());

  // Cut edges make the merged answers approximate (each shard's replica
  // misses activations beyond its halo), but the clustering must stay
  // close to the unsharded oracle both label-wise and structurally.
  const double nmi_vs_oracle = Nmi(merged.value(), oracle_clusters);
  const double oracle_q = Modularity(g, oracle_clusters);
  const double sharded_q = Modularity(g, merged.value());
  EXPECT_GE(nmi_vs_oracle, 0.55)
      << "sharded clustering diverged from the oracle";
  EXPECT_GE(sharded_q, oracle_q - 0.10)
      << "sharded modularity collapsed: " << sharded_q << " vs " << oracle_q;

  // And it must not be further from the ground truth than the oracle by
  // more than a modest margin.
  const double oracle_nmi = Nmi(oracle_clusters, data.truth);
  const double sharded_nmi = Nmi(merged.value(), data.truth);
  EXPECT_GE(sharded_nmi, oracle_nmi - 0.15);
  server.Stop();
}

// --- Serving semantics ----------------------------------------------------

TEST(ShardedServerTest, SubmitValidatesAndAwaitSeqCovers) {
  Rng rng(31);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  ShardedOptions options;
  options.partition.num_shards = 2;
  auto created = ShardedServer::Create(g, TestConfig(), options);
  ASSERT_TRUE(created.ok());
  ShardedServer& server = *created.value();

  // Not running yet.
  EXPECT_EQ(server.Submit({0, 1.0}).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());  // no restart

  // Edge validation.
  EXPECT_EQ(server.Submit({g.NumEdges(), 1.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.rejected(), 1u);

  const ActivationStream stream = UniformStream(g, 10, 0.05, rng);
  uint64_t last_seq = 0;
  ASSERT_TRUE(server.SubmitStream(stream, &last_seq).ok());
  EXPECT_EQ(last_seq, stream.size());
  ASSERT_TRUE(server.AwaitSeq(last_seq, kAwait).ok());
  // Awaiting a ticket never issued is OutOfRange, not a hang.
  EXPECT_EQ(server.AwaitSeq(last_seq + 1, kAwait).code(),
            StatusCode::kOutOfRange);

  // After AwaitSeq, the merged view covers every routed delivery.
  const ShardedView view = server.View();
  uint64_t covered = 0;
  for (uint32_t s = 0; s < server.num_shards(); ++s) {
    covered += view.shard(s).watermark().seq;
  }
  EXPECT_GE(server.watermark().seq, last_seq);
  EXPECT_GE(covered, stream.size());
  EXPECT_EQ(view.Epochs().size(), server.num_shards());

  server.Stop();
  EXPECT_EQ(server.Submit({0, 99.0}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardedServerTest, StatsExposePerShardGauges) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics disabled";
  Rng rng(37);
  PlantedPartitionParams params;
  params.num_communities = 4;
  params.min_size = 14;
  params.max_size = 20;
  params.mixing = 0.2;
  GroundTruthGraph data = PlantedPartition(params, rng);
  const Graph& g = data.graph;
  ShardedOptions options;
  options.partition.num_shards = 4;
  options.partition.kind = PartitionerKind::kHash;  // guarantees cut edges
  auto created = ShardedServer::Create(g, TestConfig(), options);
  ASSERT_TRUE(created.ok());
  ShardedServer& server = *created.value();
  ASSERT_TRUE(server.Start().ok());
  const ActivationStream stream = UniformStream(g, 8, 0.08, rng);
  ASSERT_TRUE(server.SubmitStream(stream).ok());
  ASSERT_TRUE(server.Flush(kAwait).ok());

  const obs::StatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.counter("anc.shard.accepted"), stream.size());
  EXPECT_GT(stats.counter("anc.shard.halo_deliveries"), 0u);
  EXPECT_EQ(stats.gauge("anc.shard.num_shards"), 4);
  EXPECT_EQ(stats.gauge("anc.shard.cut_edges"),
            static_cast<int64_t>(server.router()->cut_edges()));
  EXPECT_GT(stats.gauge("anc.shard.balance_x1000"), 0);
  uint64_t per_shard_accepted = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    const std::string prefix = "anc.shard." + std::to_string(s) + ".";
    per_shard_accepted += stats.counter(prefix + "accepted");
    EXPECT_GE(stats.gauge(prefix + "epoch"), 1);
    EXPECT_EQ(stats.gauge(prefix + "queue_depth"), 0);  // flushed
  }
  EXPECT_EQ(per_shard_accepted,
            stream.size() + server.halo_deliveries() - server.halo_partial());

  // Per-shard deep stats stay reachable.
  EXPECT_GT(server.ShardStats(0).counter("anc.serve.epochs"), 0u);
  server.Stop();
}

TEST(ShardedServerTest, HarnessDrivesShardedTargetThroughRouterCallbacks) {
  Rng rng(41);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  ShardedOptions options;
  options.partition.num_shards = 4;
  options.serve.ingest.clamp_out_of_order = true;  // racing producers
  auto created = ShardedServer::Create(g, TestConfig(), options);
  ASSERT_TRUE(created.ok());
  ShardedServer& server = *created.value();
  ASSERT_TRUE(server.Start().ok());

  // Three producers race through one stream (each claims the next entry)
  // while two readers issue merged queries until ingest ends.
  const ActivationStream stream = UniformStream(g, 15, 0.05, rng);
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> submit_errors{0};
  std::atomic<bool> ingest_done{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> query_errors{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < stream.size();
           i = next.fetch_add(1)) {
        submitted.fetch_add(1);
        if (!server.Submit(stream[i]).ok()) submit_errors.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng local(static_cast<uint64_t>(100 + r));
      uint64_t q = 0;
      do {
        const NodeId node = static_cast<NodeId>(local.Uniform(g.NumNodes()));
        const bool ok = q++ % 16 == 0 ? server.Clusters().ok()
                                      : server.LocalCluster(node).ok();
        if (!ok) query_errors.fetch_add(1);
        queries.fetch_add(1);
      } while (!ingest_done.load());
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_TRUE(server.Flush(kAwait).ok());
  ingest_done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(submitted.load(), stream.size());
  EXPECT_EQ(submit_errors.load(), 0u);
  EXPECT_EQ(server.accepted(), stream.size());
  // Bad edges plus deliveries a shard queue refused: both are submissions
  // some replica never applied.
  EXPECT_EQ(server.rejected() + server.halo_partial(), 0u);
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(query_errors.load(), 0u);
  // "anc.serve.epochs" reads 0 when metrics are compiled out.
  if (obs::kMetricsEnabled) {
    uint64_t epochs = 0;
    for (uint32_t s = 0; s < server.num_shards(); ++s) {
      epochs += server.ShardStats(s).counter("anc.serve.epochs");
    }
    EXPECT_GT(epochs, 0u);
  }
  server.Stop();
}

// --- Crash recovery per shard ---------------------------------------------

/// Compares every shard's recovered state against a fresh replica that
/// applied exactly that shard's routed prefix, then compares the merged
/// scatter-gather answers against a merge of the fresh replicas.
void ExpectRecoveryMatchesFreshReplay(
    const Graph& g, const AncConfig& config, ShardedServer& recovered,
    const std::vector<ActivationStream>& routed) {
  const uint32_t k = recovered.num_shards();
  std::vector<std::unique_ptr<AncIndex>> fresh;
  for (uint32_t s = 0; s < k; ++s) {
    ASSERT_LT(s, recovered.recovery_info().size());
    const shard::ShardRecoveryInfo& info = recovered.recovery_info()[s];
    EXPECT_EQ(info.shard, s);
    ASSERT_LE(info.watermark.seq, routed[s].size()) << "shard " << s;
    auto replica = std::make_unique<AncIndex>(g, config);
    for (uint64_t i = 0; i < info.watermark.seq; ++i) {
      ASSERT_TRUE(replica->Apply(routed[s][i]).ok());
    }
    // Byte-identical per-shard vote state.
    const AncIndex::ClusterState got =
        recovered.shard_index(s).ExportClusterState();
    const AncIndex::ClusterState want = replica->ExportClusterState();
    ASSERT_EQ(got.vote_counts.num_levels(), want.vote_counts.num_levels())
        << "shard " << s;
    ASSERT_EQ(got.vote_counts, want.vote_counts) << "shard " << s;
    fresh.push_back(std::move(replica));
  }

  // Merged answers from the recovered server == merge of fresh replicas.
  ASSERT_TRUE(recovered.Start().ok());
  std::vector<std::shared_ptr<const serve::ClusterView>> views;
  for (uint32_t s = 0; s < k; ++s) {
    views.push_back(std::make_shared<const serve::ClusterView>(
        recovered.graph(), fresh[s]->ExportClusterState(), 1,
        serve::Watermark{}));
  }
  const ShardedView expected(recovered.graph(), recovered.router(),
                             std::move(views));
  const ShardedView got = recovered.View();
  for (uint32_t level = 1; level <= expected.num_levels(); ++level) {
    ExpectClusteringsEqual(got.Clusters(level), expected.Clusters(level),
                           "recovered merge at level " +
                               std::to_string(level));
  }
  recovered.Stop();
}

TEST(ShardRecoveryTest, RecoverAllAfterCleanShutdownMatchesFreshReplay) {
  Rng rng(43);
  PlantedPartitionParams params;
  params.num_communities = 6;
  params.min_size = 12;
  params.max_size = 20;
  params.mixing = 0.15;
  GroundTruthGraph data = PlantedPartition(params, rng);
  const Graph& g = data.graph;
  const AncConfig config = TestConfig();
  const ActivationStream stream = UniformStream(g, 12, 0.05, rng);
  const std::string dir = TempDir("anc_shard_clean_recovery");

  ShardedOptions options;
  options.partition.num_shards = 3;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;

  std::vector<ActivationStream> routed;
  {
    auto created = ShardedServer::Create(g, config, options);
    ASSERT_TRUE(created.ok());
    ShardedServer& server = *created.value();
    ASSERT_TRUE(server.Start().ok());
    routed = RouteStream(*server.router(), stream);
    ASSERT_TRUE(server.SubmitStream(stream).ok());
    const Status durable = server.FlushDurable(kAwait);
    ASSERT_TRUE(durable.ok())
        << durable.ToString() << " store=" << server.store_status().ToString();
    server.Stop();
  }

  auto recovered = ShardedServer::RecoverAll(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // Clean shutdown: every shard recovers its complete routed stream.
  for (uint32_t s = 0; s < recovered.value()->num_shards(); ++s) {
    EXPECT_EQ(recovered.value()->recovery_info()[s].watermark.seq,
              routed[s].size())
        << "shard " << s;
  }
  ExpectRecoveryMatchesFreshReplay(g, config, *recovered.value(), routed);
  std::filesystem::remove_all(dir);
}

TEST(ShardRecoveryTest, ShardsFailIndependentlyAndRecoverTheirOwnPrefix) {
  Rng rng(47);
  PlantedPartitionParams params;
  params.num_communities = 6;
  params.min_size = 12;
  params.max_size = 20;
  params.mixing = 0.15;
  GroundTruthGraph data = PlantedPartition(params, rng);
  const Graph& g = data.graph;
  const AncConfig config = TestConfig();
  const ActivationStream stream = UniformStream(g, 12, 0.05, rng);
  const std::string dir = TempDir("anc_shard_partial_recovery");

  ShardedOptions options;
  options.partition.num_shards = 3;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;

  std::vector<ActivationStream> routed;
  {
    auto created = ShardedServer::Create(g, config, options);
    ASSERT_TRUE(created.ok());
    ShardedServer& server = *created.value();
    ASSERT_TRUE(server.Start().ok());
    routed = RouteStream(*server.router(), stream);
    ASSERT_TRUE(server.SubmitStream(stream).ok());
    ASSERT_TRUE(server.FlushDurable(kAwait).ok());
    server.Stop();
  }

  // Shard 1 loses the tail of its WAL (torn write); the others are intact.
  std::string wal_path;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/shard-1")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && entry.file_size() > 0) {
      if (wal_path.empty() || name > std::filesystem::path(wal_path)
                                         .filename()
                                         .string()) {
        wal_path = entry.path().string();
      }
    }
  }
  ASSERT_FALSE(wal_path.empty());
  const uint64_t wal_size = std::filesystem::file_size(wal_path);
  ASSERT_GT(wal_size, 4u);
  ASSERT_TRUE(store::TestHooks::CorruptByte(wal_path, wal_size - 3).ok());

  auto recovered = ShardedServer::RecoverAll(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ShardedServer& server = *recovered.value();
  // The corrupted shard rolled back to its own durable horizon; the other
  // shards kept everything — failures are independent.
  EXPECT_LT(server.recovery_info()[1].watermark.seq, routed[1].size());
  EXPECT_EQ(server.recovery_info()[0].watermark.seq, routed[0].size());
  EXPECT_EQ(server.recovery_info()[2].watermark.seq, routed[2].size());
  ExpectRecoveryMatchesFreshReplay(g, config, server, routed);
  std::filesystem::remove_all(dir);
}

TEST(ShardRecoveryTest, LiveCrashSeamFreezesOneShardAndRecoverAllSurvives) {
  Rng rng(53);
  PlantedPartitionParams params;
  params.num_communities = 4;
  params.min_size = 12;
  params.max_size = 18;
  params.mixing = 0.1;
  GroundTruthGraph data = PlantedPartition(params, rng);
  const Graph& g = data.graph;
  const AncConfig config = TestConfig();
  const ActivationStream stream = UniformStream(g, 14, 0.06, rng);
  const std::string dir = TempDir("anc_shard_live_crash");

  ShardedOptions options;
  options.partition.num_shards = 2;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;

  std::vector<ActivationStream> routed;
  {
    auto created = ShardedServer::Create(g, config, options);
    ASSERT_TRUE(created.ok());
    ShardedServer& server = *created.value();
    ASSERT_TRUE(server.Start().ok());
    routed = RouteStream(*server.router(), stream);
    // Arm a one-shot WAL crash: whichever shard appends first loses its
    // store (the error is sticky) while the other keeps committing. Group
    // commit batches aggressively, so only skip=0 is guaranteed to trip.
    store::TestHooks::ArmCrash(store::CrashPoint::kPostAppendPreFsync,
                               /*skip=*/0);
    ASSERT_TRUE(server.SubmitStream(stream).ok());
    EXPECT_FALSE(server.FlushDurable(kAwait).ok());
    EXPECT_FALSE(server.store_status().ok());
    ASSERT_TRUE(server.Flush(kAwait).ok());  // live serving unaffected
    EXPECT_EQ(server.accepted(), stream.size());
    store::TestHooks::Disarm();
    server.Stop();
  }

  auto recovered = ShardedServer::RecoverAll(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ShardedServer& server = *recovered.value();
  // At most one shard lost a suffix; nobody recovered past its stream.
  uint32_t complete = 0;
  for (uint32_t s = 0; s < server.num_shards(); ++s) {
    const uint64_t seq = server.recovery_info()[s].watermark.seq;
    ASSERT_LE(seq, routed[s].size());
    if (seq == routed[s].size()) ++complete;
  }
  EXPECT_GE(complete, server.num_shards() - 1);
  ExpectRecoveryMatchesFreshReplay(g, config, server, routed);
  std::filesystem::remove_all(dir);
}

TEST(ShardRecoveryTest, RecoverAllFailsCleanlyWithoutMeta) {
  const std::string dir = TempDir("anc_shard_no_meta");
  std::filesystem::create_directories(dir);
  ShardedOptions options;
  EXPECT_EQ(ShardedServer::RecoverAll(dir, options).status().code(),
            StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
}

// --- Health and tracing ---------------------------------------------------

TEST(ShardHealthTest, HashReadsUnhealthyWhereLdgReadsHealthy) {
  Rng rng(23);
  PlantedPartitionParams params;
  params.num_communities = 8;
  params.min_size = 20;
  params.max_size = 40;
  params.mixing = 0.10;
  GroundTruthGraph data = PlantedPartition(params, rng);
  Rng stream_rng(29);
  ActivationStream stream = CommunityBiasedStream(
      data.graph, data.truth.labels, 60, 0.08, 4.0, stream_rng);

  for (const PartitionerKind kind :
       {PartitionerKind::kHash, PartitionerKind::kLdg}) {
    ShardedOptions options;
    options.partition.num_shards = 4;
    options.partition.kind = kind;
    options.partition.ldg_passes = 3;
    auto created = ShardedServer::Create(data.graph, TestConfig(), options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ShardedServer& server = *created.value();
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.SubmitStream(stream).ok());
    ASSERT_TRUE(server.Flush(kAwait).ok());

    const obs::ClusterHealthSample sample = shard::CollectHealthSample(server);
    EXPECT_EQ(sample.num_shards, 4u);
    EXPECT_EQ(sample.shards.size(), 4u);
    EXPECT_EQ(sample.num_edges, data.graph.NumEdges());
    EXPECT_FALSE(sample.shards[0].durable_enabled);

    const obs::HealthReport report = shard::AssessHealth(server);
    server.Stop();
    if (kind == PartitionerKind::kHash) {
      // Hash cuts ~ (k-1)/k of a community graph's edges: the scorecard
      // must call that out even though every shard is individually fine.
      EXPECT_NE(report.cluster_state, obs::HealthState::kHealthy)
          << report.ToString();
      EXPECT_NE(report.overall, obs::HealthState::kHealthy);
      ASSERT_FALSE(report.cluster_reasons.empty());
      EXPECT_NE(report.cluster_reasons[0].find("cut_ratio"),
                std::string::npos);
    } else {
      EXPECT_EQ(report.overall, obs::HealthState::kHealthy)
          << report.ToString();
    }
  }
}

TEST(ShardedServerTest, AwaitSeqReturnsAtOnceForVisibleTicket) {
  Rng rng(61);
  GroundTruthGraph data = DisjointCommunities(rng);
  const Graph& g = data.graph;
  ShardedOptions options;
  options.partition.num_shards = 2;
  auto created = ShardedServer::Create(g, TestConfig(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedServer& server = *created.value();
  ASSERT_TRUE(server.Start().ok());
  const ActivationStream stream = UniformStream(g, 10, 0.05, rng);
  ASSERT_TRUE(server.SubmitStream(stream).ok());
  ASSERT_TRUE(server.Flush(kAwait).ok());

  // An edge only shard 1 applies, so the later delivery queues behind the
  // parked writer and nowhere else.
  const std::shared_ptr<const Router> router = server.router();
  EdgeId later_edge = kInvalidEdge;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (router->DeliveryOf(e) == std::make_pair(1u, Router::kNoShard)) {
      later_edge = e;
      break;
    }
  }
  ASSERT_NE(later_edge, kInvalidEdge);
  {
    ParkedWriter parked(&server.shard(1));
    const Activation later{later_edge, stream.back().time + 1.0};
    uint64_t later_seq = 0;
    ASSERT_TRUE(server.SubmitBatch(&later, 1, &later_seq).ok());
    const uint64_t visible = server.watermark().seq;
    ASSERT_GT(visible, 0u);
    ASSERT_LT(visible, later_seq);
    // Awaiting a published ticket must not wait for the parked delivery.
    EXPECT_TRUE(
        server.AwaitSeq(visible, std::chrono::milliseconds(100)).ok());
  }
  ASSERT_TRUE(server.Flush(kAwait).ok());
  EXPECT_GE(server.watermark().seq, stream.size() + 1);
  server.Stop();
}

TEST(ShardHealthTest, ViewAgesOnlyWhileTheShardOwesWork) {
  Rng rng(41);
  GroundTruthGraph data = DisjointCommunities(rng);
  Rng stream_rng(43);
  ActivationStream stream = CommunityBiasedStream(
      data.graph, data.truth.labels, 20, 0.1, 4.0, stream_rng);
  ShardedOptions options;
  options.partition.num_shards = 1;
  auto created = ShardedServer::Create(data.graph, TestConfig(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedServer& server = *created.value();
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.SubmitStream(stream).ok());
  ASSERT_TRUE(server.Flush(kAwait).ok());

  const auto view_age_tripped = [&] {
    const obs::HealthReport report = shard::AssessHealth(server);
    for (const std::string& reason : report.shards[0].reasons) {
      if (reason.find("view_age_s") != std::string::npos) return true;
    }
    return false;
  };
  const auto eventually = [](const auto& condition) {
    const auto deadline = std::chrono::steady_clock::now() + kAwait;
    while (!condition() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return condition();
  };
  {
    ParkedWriter parked(&server.shard(0));
    const Activation pending{0, stream.back().time + 1.0};
    ASSERT_TRUE(server.SubmitBatch(&pending, 1).ok());
    // The staleness check trips once the owed view is 0.5 s old.
    EXPECT_TRUE(eventually(view_age_tripped))
        << "a pending ticket ages the view";
  }
  ASSERT_TRUE(server.Flush(kAwait).ok());
  ASSERT_TRUE(eventually(
      [&] { return server.shard(0).View()->AgeSeconds() > 0.5; }));
  EXPECT_FALSE(view_age_tripped()) << "a caught-up view is not stale";
  server.Stop();
}

TEST(ShardTraceTest, QuerySpansCorrelatePerShard) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics disabled";
  Rng rng(31);
  GroundTruthGraph data = DisjointCommunities(rng);
  Rng stream_rng(37);
  ActivationStream stream = CommunityBiasedStream(
      data.graph, data.truth.labels, 20, 0.1, 4.0, stream_rng);

  ShardedOptions options;
  options.partition.num_shards = 2;
  options.partition.kind = PartitionerKind::kLdg;
  auto created = ShardedServer::Create(data.graph, TestConfig(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedServer& server = *created.value();

  std::ostringstream out;
  obs::TraceSink sink(&out);
  server.SetTraceSink(&sink);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.SubmitStream(stream).ok());
  ASSERT_TRUE(server.Flush(kAwait).ok());
  ASSERT_TRUE(server.Clusters().ok());
  ASSERT_TRUE(server.LocalCluster(0).ok());
  server.Stop();
  server.SetTraceSink(nullptr);

  struct Tagged {
    uint64_t trace = 0;
    int shard = -1;
  };
  std::map<std::string, std::vector<Tagged>> spans;
  std::set<uint64_t> queue_wait_traces;
  std::set<uint64_t> apply_traces;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    obs::Json event;
    ASSERT_TRUE(obs::Json::Parse(line, &event)) << line;
    const obs::Json* name = event.Find("name");
    ASSERT_NE(name, nullptr) << line;
    Tagged tagged;
    if (const obs::Json* trace = event.Find("trace"); trace != nullptr) {
      tagged.trace = static_cast<uint64_t>(trace->number());
    }
    if (const obs::Json* shard = event.Find("shard"); shard != nullptr) {
      tagged.shard = static_cast<int>(shard->number());
    }
    spans[name->str()].push_back(tagged);
    if (name->str() == "ingest.queue_wait" && tagged.trace != 0) {
      queue_wait_traces.insert(tagged.trace);
      // The writer stamps its shard ordinal on every serving span.
      EXPECT_GE(tagged.shard, 0) << line;
      EXPECT_LT(tagged.shard, 2) << line;
    }
    if (name->str() == "serve.apply" && tagged.trace != 0) {
      apply_traces.insert(tagged.trace);
    }
  }

  // Routed ingest: every traced delivery's queue-wait correlates with an
  // apply on the shard that absorbed it.
  EXPECT_EQ(queue_wait_traces.size(), stream.size());
  for (const uint64_t trace : queue_wait_traces) {
    EXPECT_TRUE(apply_traces.count(trace) > 0) << trace;
  }

  // Scatter-gather: each merged query minted one trace; its gather spans
  // cover every shard and its merge span closes the request.
  for (const char* query_name : {"shard.query_clusters", "shard.query_local"}) {
    ASSERT_EQ(spans[query_name].size(), 1u) << query_name;
    const uint64_t trace = spans[query_name][0].trace;
    ASSERT_NE(trace, 0u) << query_name;
    std::set<int> gathered;
    for (const Tagged& gather : spans["shard.gather"]) {
      if (gather.trace == trace) gathered.insert(gather.shard);
    }
    EXPECT_EQ(gathered, (std::set<int>{0, 1})) << query_name;
    size_t merges = 0;
    for (const Tagged& merge : spans["shard.merge"]) {
      if (merge.trace == trace) ++merges;
    }
    EXPECT_EQ(merges, 1u) << query_name;
  }

  // The query counter and latency histograms on the sharded registry saw
  // both merged queries.
  const obs::StatsSnapshot snap = server.Stats();
  EXPECT_GE(snap.counter("anc.shard.queries"), 2u);
  const auto* query_us = snap.histogram("anc.shard.query_us");
  ASSERT_NE(query_us, nullptr);
  EXPECT_GE(query_us->count, 2u);
}

}  // namespace
}  // namespace anc
