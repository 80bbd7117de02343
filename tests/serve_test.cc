// Serving-layer tests (src/serve/): ingest-queue backpressure and ticket
// semantics, the per-shard AncServer engine's watermark linearizability and
// snapshot/live equivalence (views must be byte-identical to a quiesced
// single-threaded AncIndex at the same watermark), query edge cases under
// views, and — through a one-shard ShardedServer, the public server — query
// range validation, the harness and a reader-vs-writer stress that doubles
// as a TSan target (scripts/check.sh tsan).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "activation/stream_generators.h"
#include "activation/stream_io.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/cluster_view.h"
#include "serve/ingest_queue.h"
#include "serve/server.h"
#include "shard/sharded_server.h"
#include "util/rng.h"

namespace anc {
namespace {

using serve::AncServer;
using serve::BackpressurePolicy;
using serve::ClusterView;
using serve::IngestOptions;
using serve::IngestQueue;
using serve::ServeOptions;
using serve::Watermark;

constexpr std::chrono::milliseconds kAwait{5000};

AncConfig SmallConfig() {
  AncConfig config;
  config.pyramid.num_pyramids = 3;
  config.pyramid.seed = 7;
  config.mode = AncMode::kOnline;
  return config;
}

GroundTruthGraph SmallCommunityGraph(uint64_t seed = 11) {
  PlantedPartitionParams pp;
  pp.num_communities = 4;
  pp.min_size = 10;
  pp.max_size = 14;
  Rng rng(seed);
  return PlantedPartition(pp, rng);
}

/// Enqueues `stream` through the engine's batch hand-off (the router's
/// path); every entry must be accepted. Returns the last ticket.
uint64_t SubmitAll(AncServer& server, const ActivationStream& stream) {
  uint64_t last_seq = 0;
  Result<size_t> accepted =
      server.SubmitBatch(stream.data(), stream.size(), &last_seq);
  EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted.ok() ? accepted.value() : 0, stream.size());
  return last_seq;
}

/// A started one-shard ShardedServer: the public server at k = 1.
std::unique_ptr<shard::ShardedServer> StartOneShard(
    const Graph& g, ServeOptions serve = ServeOptions{}) {
  shard::ShardedOptions options;
  options.partition.num_shards = 1;
  options.serve = serve;
  auto created = shard::ShardedServer::Create(g, SmallConfig(), options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  if (!created.ok()) return nullptr;
  EXPECT_TRUE(created.value()->Start().ok());
  return std::move(created.value());
}

/// Asserts every query on `view` answers byte-identically to the (quiesced)
/// live index — the central serving guarantee.
void ExpectViewMatchesIndex(const ClusterView& view, const AncIndex& index) {
  ASSERT_EQ(view.num_levels(), index.num_levels());
  ASSERT_EQ(view.DefaultLevel(), index.DefaultLevel());
  const Graph& g = view.graph();
  for (uint32_t level = 1; level <= index.num_levels(); ++level) {
    const Clustering from_view = view.Clusters(level);
    const Clustering from_index = index.Clusters(level);
    ASSERT_EQ(from_view.num_clusters, from_index.num_clusters) << "level "
                                                               << level;
    ASSERT_EQ(from_view.labels, from_index.labels) << "level " << level;
    const Clustering even_view = view.Clusters(level, /*power=*/false);
    const Clustering even_index = index.Clusters(level, /*power=*/false);
    ASSERT_EQ(even_view.labels, even_index.labels) << "level " << level;
  }
  for (NodeId v = 0; v < g.NumNodes(); v += 3) {
    for (uint32_t level = 1; level <= index.num_levels(); ++level) {
      ASSERT_EQ(view.LocalCluster(v, level), index.LocalCluster(v, level))
          << "node " << v << " level " << level;
    }
    uint32_t view_level = 0;
    uint32_t index_level = 0;
    ASSERT_EQ(view.SmallestCluster(v, 2, &view_level),
              index.SmallestCluster(v, 2, &index_level))
        << "node " << v;
    ASSERT_EQ(view_level, index_level) << "node " << v;
  }
}

// --- IngestQueue ----------------------------------------------------------

TEST(IngestQueueTest, TicketsAreMonotonicFromOne) {
  IngestQueue q(IngestOptions{});
  Result<uint64_t> t1 = q.Push({0, 1.0});
  Result<uint64_t> t2 = q.Push({0, 2.0});
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t1, 1u);
  EXPECT_EQ(*t2, 2u);
  EXPECT_EQ(q.accepted(), 2u);
  EXPECT_EQ(q.Depth(), 2u);

  std::vector<Activation> batch;
  uint64_t resolved = 0;
  EXPECT_EQ(q.PopBatch(&batch, 10, std::chrono::microseconds(0), &resolved),
            2u);
  EXPECT_EQ(resolved, 2u);
  EXPECT_DOUBLE_EQ(batch[0].time, 1.0);
  EXPECT_DOUBLE_EQ(batch[1].time, 2.0);
}

TEST(IngestQueueTest, ClosedQueueFailsPrecondition) {
  IngestQueue q(IngestOptions{});
  q.Close();
  Result<uint64_t> r = q.Push({0, 1.0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IngestQueueTest, OutOfOrderTimestampRejectedOrClamped) {
  IngestQueue strict(IngestOptions{});
  ASSERT_TRUE(strict.Push({0, 5.0}).ok());
  Result<uint64_t> bad = strict.Push({0, 4.0});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(strict.rejected(), 1u);

  IngestOptions clamping;
  clamping.clamp_out_of_order = true;
  IngestQueue lenient(clamping);
  ASSERT_TRUE(lenient.Push({0, 5.0}).ok());
  ASSERT_TRUE(lenient.Push({0, 4.0}).ok());
  std::vector<Activation> batch;
  lenient.PopBatch(&batch, 10, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_DOUBLE_EQ(batch[1].time, 5.0);  // clamped up, stream stays monotone
}

TEST(IngestQueueTest, RejectPolicyBouncesWhenFull) {
  IngestOptions options;
  options.capacity = 2;
  options.policy = BackpressurePolicy::kReject;
  IngestQueue q(options);
  ASSERT_TRUE(q.Push({0, 1.0}).ok());
  ASSERT_TRUE(q.Push({0, 2.0}).ok());
  Result<uint64_t> r = q.Push({0, 3.0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.Depth(), 2u);
}

TEST(IngestQueueTest, DropOldestEvictsHeadAndResolvesItsTicket) {
  IngestOptions options;
  options.capacity = 2;
  options.policy = BackpressurePolicy::kDropOldest;
  IngestQueue q(options);
  ASSERT_TRUE(q.Push({0, 1.0}).ok());
  ASSERT_TRUE(q.Push({0, 2.0}).ok());
  ASSERT_TRUE(q.Push({0, 3.0}).ok());  // evicts ticket 1
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.Depth(), 2u);

  std::vector<Activation> batch;
  uint64_t resolved = 0;
  EXPECT_EQ(q.PopBatch(&batch, 10, std::chrono::microseconds(0), &resolved),
            2u);
  // All three tickets are resolved: 1 by eviction, 2 and 3 by the pop.
  EXPECT_EQ(resolved, 3u);
  EXPECT_DOUBLE_EQ(batch[0].time, 2.0);
  EXPECT_DOUBLE_EQ(batch[1].time, 3.0);
}

TEST(IngestQueueTest, BlockedProducerWakesOnDrain) {
  IngestOptions options;
  options.capacity = 1;
  options.policy = BackpressurePolicy::kBlock;
  IngestQueue q(options);
  ASSERT_TRUE(q.Push({0, 1.0}).ok());

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    Result<uint64_t> r = q.Push({0, 2.0});
    ASSERT_TRUE(r.ok());
    pushed.store(true, std::memory_order_release);
  });
  // Drain one slot; the blocked producer must complete.
  std::vector<Activation> batch;
  while (q.PopBatch(&batch, 1, std::chrono::microseconds(1000)) == 0) {
  }
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.accepted(), 2u);
}

// --- Snapshot equivalence -------------------------------------------------

TEST(ServeEquivalenceTest, ViewMatchesQuiescedIndexAfterFlush) {
  GroundTruthGraph data = SmallCommunityGraph();
  Rng rng(3);
  ActivationStream stream = CommunityBiasedStream(data.graph, data.truth.labels, 20, 0.1, 4.0, rng);

  // Served path: stream goes through the queue + writer thread.
  AncIndex served(data.graph, SmallConfig());
  ServeOptions options;
  options.snapshot_every_activations = 16;
  AncServer server(&served, options);
  ASSERT_TRUE(server.Start().ok());
  const uint64_t last_seq = SubmitAll(server, stream);
  EXPECT_EQ(last_seq, stream.size());
  ASSERT_TRUE(server.Flush(kAwait).ok());
  EXPECT_TRUE(server.writer_status().ok());

  std::shared_ptr<const ClusterView> view = server.View();
  ASSERT_NE(view, nullptr);
  EXPECT_GE(view->watermark().seq, last_seq);

  // Reference path: identical config, identical stream, single thread.
  AncIndex reference(data.graph, SmallConfig());
  ASSERT_TRUE(reference.ApplyStream(stream).ok());

  ExpectViewMatchesIndex(*view, reference);
  // The served index itself (now quiesced by Flush) must agree too.
  server.Stop();
  ExpectViewMatchesIndex(*view, served);
}

TEST(ServeEquivalenceTest, ZoomCursorOnViewMatchesIndexCursor) {
  GroundTruthGraph data = SmallCommunityGraph(23);
  Rng rng(5);
  ActivationStream stream = CommunityBiasedStream(data.graph, data.truth.labels, 10, 0.1, 4.0, rng);

  AncIndex index(data.graph, SmallConfig());
  AncServer server(&index, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  SubmitAll(server, stream);
  ASSERT_TRUE(server.Flush(kAwait).ok());
  server.Stop();

  std::shared_ptr<const ClusterView> view = server.View();
  auto view_cursor = view->Zoom();
  auto index_cursor = index.Zoom();
  ASSERT_EQ(view_cursor.level(), index_cursor.level());
  const NodeId probe = 0;
  // Walk to the coarsest level, then back down to the finest, comparing at
  // every step.
  while (true) {
    ASSERT_EQ(view_cursor.Clusters().labels, index_cursor.Clusters().labels)
        << "level " << view_cursor.level();
    ASSERT_EQ(view_cursor.Local(probe), index_cursor.Local(probe))
        << "level " << view_cursor.level();
    const bool moved = view_cursor.ZoomOut();
    ASSERT_EQ(moved, index_cursor.ZoomOut());
    if (!moved) break;
  }
  EXPECT_EQ(view_cursor.level(), 1u);
  while (view_cursor.ZoomIn()) {
    ASSERT_TRUE(index_cursor.ZoomIn());
    ASSERT_EQ(view_cursor.Local(probe), index_cursor.Local(probe))
        << "level " << view_cursor.level();
  }
  EXPECT_FALSE(index_cursor.ZoomIn());
  EXPECT_EQ(view_cursor.level(), view->num_levels());
}

// --- Watermark / durability ----------------------------------------------

TEST(ServeWatermarkTest, AwaitSeqIsLinearizable) {
  GroundTruthGraph data = SmallCommunityGraph(31);
  Rng rng(9);
  ActivationStream stream = CommunityBiasedStream(data.graph, data.truth.labels, 15, 0.1, 4.0, rng);

  AncIndex index(data.graph, SmallConfig());
  ServeOptions options;
  options.snapshot_every_activations = 8;
  AncServer server(&index, options);
  ASSERT_TRUE(server.Start().ok());

  // Await a mid-stream ticket: the view returned afterwards must cover it.
  const size_t half = stream.size() / 2;
  uint64_t mid_seq = 0;
  for (size_t i = 0; i < half; ++i) {
    Result<size_t> accepted = server.SubmitBatch(&stream[i], 1, &mid_seq);
    ASSERT_TRUE(accepted.ok());
    ASSERT_EQ(accepted.value(), 1u);
  }
  ASSERT_TRUE(server.AwaitSeq(mid_seq, kAwait).ok());
  std::shared_ptr<const ClusterView> mid_view = server.View();
  ASSERT_GE(mid_view->watermark().seq, mid_seq);

  // The mid-stream view equals a reference index fed exactly the prefix the
  // watermark covers (query-after-watermark observes all activations <= W).
  AncIndex reference(data.graph, SmallConfig());
  for (uint64_t i = 0; i < mid_view->watermark().seq; ++i) {
    ASSERT_TRUE(reference.Apply(stream[i]).ok());
  }
  ExpectViewMatchesIndex(*mid_view, reference);

  for (size_t i = half; i < stream.size(); ++i) {
    ASSERT_EQ(server.SubmitBatch(&stream[i], 1).value(), 1u);
  }
  ASSERT_TRUE(server.Flush(kAwait).ok());
  EXPECT_GE(server.watermark().seq, stream.size());
  server.Stop();
}

TEST(ServeWatermarkTest, AwaitUnreachableTicketTimesOut) {
  GroundTruthGraph data = SmallCommunityGraph(43);
  AncIndex index(data.graph, SmallConfig());
  AncServer server(&index, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  Status s = server.AwaitSeq(1000, std::chrono::milliseconds(50));
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  server.Stop();
}

TEST(ServeWatermarkTest, DropOldestStillResolvesEveryTicket) {
  GroundTruthGraph data = SmallCommunityGraph(47);
  Rng rng(17);
  ActivationStream stream = CommunityBiasedStream(data.graph, data.truth.labels, 25, 0.05, 4.0, rng);

  AncIndex index(data.graph, SmallConfig());
  ServeOptions options;
  options.ingest.capacity = 4;
  options.ingest.policy = BackpressurePolicy::kDropOldest;
  AncServer server(&index, options);
  ASSERT_TRUE(server.Start().ok());
  // Drop-oldest never refuses an entry: the whole stream is accepted.
  SubmitAll(server, stream);
  // Every ticket resolves (applied or evicted): Flush cannot strand.
  ASSERT_TRUE(server.Flush(kAwait).ok());
  EXPECT_GE(server.watermark().seq, stream.size());
  EXPECT_EQ(server.accepted(), stream.size());
  server.Stop();
  EXPECT_TRUE(index.ValidateInvariants(/*deep=*/true).ok());
}

TEST(ServeWatermarkTest, RejectPolicySurfacesUnavailable) {
  GroundTruthGraph data = SmallCommunityGraph(53);
  AncIndex index(data.graph, SmallConfig());
  ServeOptions options;
  options.ingest.capacity = 2;
  options.ingest.policy = BackpressurePolicy::kReject;
  // The server is deliberately not started: with no writer draining, the
  // queue fills deterministically and the batch hand-off must report the
  // bounces as refused entries, counted as rejections (with a running
  // writer the outcome depends on a drain race; the queue-level test
  // covers the Unavailable status of a single refused Push).
  AncServer server(&index, options);
  size_t bounced = 0;
  for (int i = 0; i < 5; ++i) {
    const Activation activation{0, static_cast<double>(i)};
    Result<size_t> r = server.SubmitBatch(&activation, 1);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r.value() == 0) ++bounced;
  }
  EXPECT_EQ(bounced, 3u);  // capacity 2, 5 submits, nothing drained
  EXPECT_EQ(server.rejected(), bounced);
  EXPECT_EQ(server.accepted(), 2u);
}

TEST(ServeLifecycleTest, SubmitValidatesEdgeRange) {
  GroundTruthGraph data = SmallCommunityGraph(59);
  AncIndex index(data.graph, SmallConfig());
  AncServer server(&index, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  const Activation bad{data.graph.NumEdges(), 1.0};
  Result<size_t> r = server.SubmitBatch(&bad, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.accepted(), 0u);
  server.Stop();
}

TEST(ServeLifecycleTest, StopIsIdempotentAndRestartRefused) {
  GroundTruthGraph data = SmallCommunityGraph(61);
  AncIndex index(data.graph, SmallConfig());
  AncServer server(&index, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());  // already running
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(server.Start().ok());  // one serving lifetime per instance
  const Activation activation{0, 1.0};
  Result<size_t> r = server.SubmitBatch(&activation, 1);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServeLifecycleTest, RunFileSurfacesSkippedLinesInStats) {
  GroundTruthGraph data = SmallCommunityGraph(63);
  Rng rng(63);
  ActivationStream stream = UniformStream(data.graph, 4, 0.05, rng);
  ASSERT_GE(stream.size(), 3u);

  // A stream file with malformed lines sprinkled in, loaded in
  // skip-and-count mode and submitted the way the CLI's submit-file does:
  // the skips must land in the serve stats.
  const std::string path =
      (std::filesystem::temp_directory_path() / "anc_serve_runfile.stream")
          .string();
  ASSERT_TRUE(SaveActivationStream(data.graph, stream, path).ok());
  {
    std::ofstream append(path, std::ios::app);
    append << "not a line at all\n";
    append << "0 1\n";  // missing timestamp
  }

  std::unique_ptr<shard::ShardedServer> server = StartOneShard(data.graph);
  ASSERT_NE(server, nullptr);
  StreamLoadOptions load;
  load.skip_bad_lines = true;
  StreamLoadReport load_report;
  Result<ActivationStream> loaded =
      LoadActivationStream(data.graph, path, load, &load_report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  server->shard(0).RecordLoadReport(load_report);
  Result<size_t> accepted =
      server->SubmitBatch(loaded.value().data(), loaded.value().size());
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  ASSERT_TRUE(server->Flush(kAwait).ok());
  server->Stop();

  EXPECT_EQ(accepted.value(), stream.size());
  EXPECT_EQ(server->accepted(), stream.size());
  EXPECT_EQ(load_report.skipped, 2u);
  EXPECT_FALSE(load_report.first_error.empty());
  // The first skip names its file and line; the skips also survive into
  // the metrics snapshot.
  EXPECT_NE(load_report.first_error.find(path), std::string::npos);
  if (obs::kMetricsEnabled) {
    obs::StatsSnapshot snap = server->ShardStats(0);
    EXPECT_EQ(snap.counter("anc.serve.load_skipped"), 2u);
    EXPECT_EQ(snap.counter("anc.serve.load_lines"), stream.size() + 2u);
  }
  std::remove(path.c_str());
}

// --- Query edge cases under views ----------------------------------------

TEST(ServeEdgeCaseTest, IsolatedQueryNodeUnderView) {
  // A node reserved by SetNumNodes with no incident edges: every query
  // about it must answer exactly like the live index (trivial cluster).
  GraphBuilder b;
  Rng rng(71);
  Graph base = ErdosRenyi(30, 80, rng);
  for (EdgeId e = 0; e < base.NumEdges(); ++e) {
    const auto [u, v] = base.Endpoints(e);
    ASSERT_TRUE(b.AddEdge(u, v).ok());
  }
  const NodeId isolated = base.NumNodes();
  b.SetNumNodes(base.NumNodes() + 1);
  Graph g = b.Build();

  AncIndex index(g, SmallConfig());
  AncServer server(&index, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  ActivationStream stream = UniformStream(g, 5, 0.1, rng);
  SubmitAll(server, stream);
  ASSERT_TRUE(server.Flush(kAwait).ok());
  server.Stop();

  std::shared_ptr<const ClusterView> view = server.View();
  for (uint32_t level = 1; level <= index.num_levels(); ++level) {
    EXPECT_EQ(view->LocalCluster(isolated, level),
              index.LocalCluster(isolated, level));
  }
  uint32_t view_level = 0;
  uint32_t index_level = 0;
  EXPECT_EQ(view->SmallestCluster(isolated, 2, &view_level),
            index.SmallestCluster(isolated, 2, &index_level));
  EXPECT_EQ(view_level, index_level);
}

TEST(ServeEdgeCaseTest, MaxLevelAndEmptyNeighborhoodUnderView) {
  GroundTruthGraph data = SmallCommunityGraph(73);
  AncIndex index(data.graph, SmallConfig());
  AncServer server(&index, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  // No activations at all: the epoch-1 view serves the initial state.
  std::shared_ptr<const ClusterView> view = server.View();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch(), 1u);
  EXPECT_EQ(view->watermark().seq, 0u);
  server.Stop();

  const uint32_t max_level = index.num_levels();
  EXPECT_EQ(view->Clusters(max_level).labels,
            index.Clusters(max_level).labels);
  for (NodeId v = 0; v < data.graph.NumNodes(); v += 5) {
    // At the max (finest) level most active neighborhoods are empty — the
    // vote bar is highest there; answers must match the index exactly.
    EXPECT_EQ(view->LocalCluster(v, max_level),
              index.LocalCluster(v, max_level));
    uint32_t lv = 0, li = 0;
    // A min_size larger than the graph is never satisfiable.
    EXPECT_EQ(view->SmallestCluster(v, data.graph.NumNodes() + 1, &lv),
              index.SmallestCluster(v, data.graph.NumNodes() + 1, &li));
    EXPECT_EQ(lv, li);
  }
}

TEST(ServeEdgeCaseTest, ServerQueriesValidateRanges) {
  GroundTruthGraph data = SmallCommunityGraph(79);
  std::unique_ptr<shard::ShardedServer> server = StartOneShard(data.graph);
  ASSERT_NE(server, nullptr);
  const uint32_t num_levels = server->View().num_levels();
  EXPECT_EQ(server->Clusters(0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server->Clusters(num_levels + 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server->LocalCluster(data.graph.NumNodes(), 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server->LocalCluster(0, num_levels + 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server->SmallestCluster(data.graph.NumNodes()).status().code(),
            StatusCode::kInvalidArgument);
  // In-range queries answer.
  EXPECT_TRUE(server->Clusters(num_levels).ok());
  EXPECT_TRUE(server->LocalCluster(0, 1).ok());
  server->Stop();
}

// --- Reader-vs-writer stress (TSan target) --------------------------------

TEST(ServeStressTest, ConcurrentReadersAndProducers) {
  GroundTruthGraph data = SmallCommunityGraph(83);
  Rng rng(19);
  ActivationStream stream = CommunityBiasedStream(data.graph, data.truth.labels, 20, 0.05, 4.0, rng);

  ServeOptions options;
  options.ingest.clamp_out_of_order = true;  // racing producers
  options.snapshot_every_activations = 8;
  options.snapshot_max_age_s = 0.001;
  std::unique_ptr<shard::ShardedServer> started =
      StartOneShard(data.graph, options);
  ASSERT_NE(started, nullptr);
  shard::ShardedServer& server = *started;

  constexpr int kProducers = 2;
  constexpr int kReaders = 4;
  std::atomic<size_t> next{0};
  std::atomic<bool> stop_readers{false};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < stream.size();
           i = next.fetch_add(1)) {
        Result<uint64_t> r = server.Submit(stream[i]);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  std::vector<uint64_t> queries_per_reader(kReaders, 0);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t n = 0;
      uint64_t last_epoch = 0;
      // do/while: every reader queries at least once even when producers
      // finish before this thread is first scheduled, so the
      // total_queries > 0 assertion below cannot flake under load.
      do {
        const shard::ShardedView view = server.View();
        // Epochs only move forward under a single writer.
        ASSERT_GE(view.shard(0).epoch(), last_epoch);
        last_epoch = view.shard(0).epoch();
        const NodeId probe =
            static_cast<NodeId>((n * 7 + t) % data.graph.NumNodes());
        if (n % 16 == 0) {
          Result<Clustering> c = server.Clusters();
          ASSERT_TRUE(c.ok()) << c.status().ToString();
          ASSERT_EQ(c.value().labels.size(), data.graph.NumNodes());
        } else {
          Result<std::vector<NodeId>> local =
              server.LocalCluster(probe, view.DefaultLevel());
          ASSERT_TRUE(local.ok()) << local.status().ToString();
        }
        ++n;
      } while (!stop_readers.load(std::memory_order_acquire));
      queries_per_reader[t] = n;
    });
  }

  for (std::thread& p : producers) p.join();
  ASSERT_TRUE(server.Flush(kAwait).ok());
  stop_readers.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_TRUE(server.writer_status().ok());
  EXPECT_EQ(server.accepted(), stream.size());
  EXPECT_GE(server.watermark().seq, stream.size());
  server.Stop();

  // Quiesced: the final view answers byte-identically to the index it was
  // built from, and the index still passes the deep validators.
  AncIndex& index = server.shard_index(0);
  ExpectViewMatchesIndex(*server.shard(0).View(), index);
  EXPECT_TRUE(index.ValidateInvariants(/*deep=*/true).ok());
  uint64_t total_queries = 0;
  for (uint64_t q : queries_per_reader) total_queries += q;
  EXPECT_GT(total_queries, 0u);
}

// --- Ingest gauges and tracing --------------------------------------------

TEST(IngestQueueTest, TracksHighWatermarkAndOldestAge) {
  obs::MetricsRegistry registry;
  IngestQueue q(IngestOptions{}, &registry);
  ASSERT_TRUE(q.Push({0, 1.0}).ok());
  ASSERT_TRUE(q.Push({0, 2.0}).ok());
  ASSERT_TRUE(q.Push({0, 3.0}).ok());
  EXPECT_EQ(q.high_watermark(), 3u);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GT(q.OldestAgeSeconds(), 0.005);

  std::vector<Activation> batch;
  ASSERT_EQ(q.PopBatch(&batch, 16, std::chrono::microseconds(0)), 3u);
  EXPECT_EQ(q.OldestAgeSeconds(), 0.0);     // empty queue has no oldest
  EXPECT_EQ(q.high_watermark(), 3u);        // high watermark never recedes
  if (obs::kMetricsEnabled) {
    const obs::StatsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.gauge("anc.serve.ingest_high_watermark"), 3);
    EXPECT_EQ(snap.gauge("anc.serve.ingest_oldest_age_us"), 0);
  }
}

TEST(IngestQueueTest, PopBatchReportsPerEntryTraceAndEnqueueTime) {
  IngestQueue q(IngestOptions{});
  const obs::TraceContext traced = obs::TraceContext::NewTrace();
  const auto before = std::chrono::steady_clock::now();
  ASSERT_TRUE(q.Push({0, 1.0}, traced).ok());
  ASSERT_TRUE(q.Push({0, 2.0}).ok());  // untraced

  std::vector<Activation> batch;
  std::vector<IngestQueue::Popped> info;
  ASSERT_EQ(q.PopBatch(&batch, 16, std::chrono::microseconds(0), nullptr,
                       &info),
            2u);
  ASSERT_EQ(info.size(), 2u);
  EXPECT_EQ(info[0].trace.trace_id, traced.trace_id);
  EXPECT_FALSE(info[1].trace.active());
  EXPECT_GE(info[0].enqueued_at, before);
  EXPECT_LE(info[0].enqueued_at, info[1].enqueued_at);
}

TEST(ServeTraceTest, SubmitSpansCorrelateAcrossQueueApplyPublish) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics disabled";
  GroundTruthGraph data = SmallCommunityGraph(53);
  Rng rng(19);
  ActivationStream stream =
      CommunityBiasedStream(data.graph, data.truth.labels, 20, 0.1, 4.0, rng);

  AncIndex index(data.graph, SmallConfig());
  std::ostringstream out;
  obs::TraceSink sink(&out);
  index.SetTraceSink(&sink);

  ServeOptions options;
  options.snapshot_every_activations = 4;
  AncServer server(&index, options);
  ASSERT_TRUE(server.Start().ok());
  // One root trace per request, carried through the batch hand-off.
  std::vector<obs::TraceContext> traces;
  for (size_t i = 0; i < stream.size(); ++i) {
    traces.push_back(obs::TraceContext::NewTrace());
  }
  uint64_t last_seq = 0;
  Result<size_t> accepted = server.SubmitBatch(stream.data(), stream.size(),
                                               &last_seq, traces.data());
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(accepted.value(), stream.size());
  ASSERT_TRUE(server.AwaitSeq(last_seq, kAwait).ok());
  server.Stop();
  index.SetTraceSink(nullptr);

  std::map<std::string, std::set<uint64_t>> traces_by_name;
  size_t queue_wait_spans = 0;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    obs::Json event;
    ASSERT_TRUE(obs::Json::Parse(line, &event)) << line;
    const obs::Json* name = event.Find("name");
    ASSERT_NE(name, nullptr) << line;
    ASSERT_NE(event.Find("tid"), nullptr) << line;
    // shard_ordinal defaults to -1: no shard field outside a ShardedServer.
    EXPECT_EQ(event.Find("shard"), nullptr) << line;
    if (const obs::Json* trace = event.Find("trace"); trace != nullptr) {
      traces_by_name[name->str()].insert(
          static_cast<uint64_t>(trace->number()));
    }
    if (name->str() == "ingest.queue_wait") ++queue_wait_spans;
  }
  // One queue-wait span per submitted request, each on a distinct trace.
  EXPECT_EQ(queue_wait_spans, stream.size());
  const std::set<uint64_t>& waits = traces_by_name["ingest.queue_wait"];
  EXPECT_EQ(waits.size(), stream.size());
  // Every traced request's queue-wait correlates with an apply and a
  // publish attributed to the same trace id.
  for (const uint64_t trace : waits) {
    EXPECT_TRUE(traces_by_name["serve.apply"].count(trace) > 0) << trace;
    EXPECT_TRUE(traces_by_name["serve.publish"].count(trace) > 0) << trace;
  }
}

/// Trace ids seen per span name in a JSONL trace.
std::map<std::string, std::set<uint64_t>> TracesByName(
    const std::string& jsonl) {
  std::map<std::string, std::set<uint64_t>> traces;
  std::istringstream lines(jsonl);
  for (std::string line; std::getline(lines, line);) {
    obs::Json event;
    EXPECT_TRUE(obs::Json::Parse(line, &event)) << line;
    const obs::Json* name = event.Find("name");
    const obs::Json* trace = event.Find("trace");
    if (name != nullptr && trace != nullptr) {
      traces[name->str()].insert(static_cast<uint64_t>(trace->number()));
    }
  }
  return traces;
}

TEST(ServeTraceTest, SinkAttachedToRunningServerTracesTheNextBatch) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics disabled";
  GroundTruthGraph data = SmallCommunityGraph(59);
  Rng rng(23);
  ActivationStream stream = UniformStream(data.graph, 4, 0.1, rng);
  ASSERT_GE(stream.size(), 2u);

  // A long idle wait parks the writer inside PopBatch between batches, and
  // publishing after every batch keeps Flush off the idle timer.
  ServeOptions serve;
  serve.idle_wait = std::chrono::seconds(1);
  serve.snapshot_every_activations = 1;
  std::unique_ptr<shard::ShardedServer> server =
      StartOneShard(data.graph, serve);
  ASSERT_NE(server, nullptr);
  // Untraced warm-up: once it is visible, the writer has gone back to wait
  // for the next batch.
  ASSERT_TRUE(server->SubmitBatch(stream.data(), 1).ok());
  ASSERT_TRUE(server->Flush(kAwait).ok());

  std::ostringstream out;
  obs::TraceSink sink(&out);
  server->SetTraceSink(&sink);
  Result<size_t> accepted =
      server->SubmitBatch(stream.data() + 1, stream.size() - 1);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  ASSERT_TRUE(server->Flush(kAwait).ok());
  server->Stop();
  server->SetTraceSink(nullptr);

  // The batch carries one root trace; the writer that popped it must have
  // emitted its queue-wait and apply spans under that trace.
  std::map<std::string, std::set<uint64_t>> traces_by_name =
      TracesByName(out.str());
  const std::set<uint64_t>& waits = traces_by_name["ingest.queue_wait"];
  ASSERT_EQ(waits.size(), 1u) << out.str();
  EXPECT_EQ(traces_by_name["serve.apply"], waits);
  EXPECT_EQ(traces_by_name["serve.publish"], waits);
}

TEST(ServeTraceTest, DetachOnRunningServerWaitsForTheWriters) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics disabled";
  GroundTruthGraph data = SmallCommunityGraph(61);
  Rng rng(29);
  ActivationStream stream = UniformStream(data.graph, 8, 0.1, rng);
  std::unique_ptr<shard::ShardedServer> server = StartOneShard(data.graph);
  ASSERT_NE(server, nullptr);

  std::ostringstream out;
  obs::TraceSink sink(&out);
  server->SetTraceSink(&sink);
  // One trace per activation: each publish emits one span per trace it
  // covers, after the watermark that Flush waits on.
  ASSERT_TRUE(server->SubmitStream(stream).ok());
  ASSERT_TRUE(server->Flush(kAwait).ok());
  server->SetTraceSink(nullptr);
  const std::string at_detach = out.str();
  server->Stop();

  // Nothing reached the sink after the detach returned, and by then every
  // traced activation's publish span was written.
  EXPECT_EQ(out.str(), at_detach);
  std::map<std::string, std::set<uint64_t>> traces_by_name =
      TracesByName(at_detach);
  EXPECT_EQ(traces_by_name["ingest.queue_wait"].size(), stream.size());
  EXPECT_EQ(traces_by_name["serve.publish"],
            traces_by_name["ingest.queue_wait"]);
}

}  // namespace
}  // namespace anc
