// Concurrency regression stress tests — the executable half of the TSan
// race audit (run them in the build-tsan configuration; scripts/check.sh
// tsan). Covers the three shared-state surfaces: the ThreadPool closure
// handoff, the MetricsRegistry shard writers vs. Snapshot merges, and the
// Lemma-13 parallel pyramid batch updates.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "activation/stream_generators.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "obs/metrics.h"
#include "pyramid/pyramid_index.h"
#include "serve/server.h"
#include "shard/sharded_server.h"
#include "shard/sharded_view.h"
#include "similarity/similarity_engine.h"
#include "store/store.h"
#include "tier/tiered_store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace anc {
namespace {

TEST(ThreadPoolStressTest, RepeatedParallelForRunsEveryIteration) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  constexpr int kRounds = 100;
  constexpr size_t kIters = 64;
  for (int round = 0; round < kRounds; ++round) {
    pool.ParallelFor(kIters, [&](size_t i) {
      total.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), kRounds * (kIters * (kIters + 1) / 2));
}

TEST(ThreadPoolStressTest, SetMetricsVisibleToFirstParallelFor) {
  // Regression: SetMetrics publishes the registry pointer under the pool
  // mutex, so workers that started (and parked) in the constructor observe
  // it — along with the counter/histogram ids it registered — on their
  // next wake. Before the fix the publish was a plain unsynchronized
  // store, and the very first ParallelFor after SetMetrics could record
  // through a half-visible registry.
  for (int round = 0; round < 32; ++round) {
    obs::MetricsRegistry registry;
    ThreadPool pool(4);
    pool.SetMetrics(&registry);
    std::atomic<uint64_t> total{0};
    pool.ParallelFor(64, [&](size_t i) {
      total.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), 64u * 65u / 2u);
    if (obs::kMetricsEnabled) {
      const obs::StatsSnapshot snap = registry.Snapshot();
      EXPECT_EQ(snap.counter("anc.pool.tasks_run"), 64u);
      EXPECT_EQ(snap.counter("anc.pool.tasks_queued"), 64u);
    }
  }
}

TEST(ThreadPoolStressTest, MetricsRecordingUnderContention) {
  obs::MetricsRegistry registry;
  ThreadPool pool(4);
  pool.SetMetrics(&registry);
  const obs::CounterId work = registry.Counter("test.work");
  const obs::HistogramId samples = registry.Histogram("test.samples");

  // A reader thread merges snapshots while the pool's workers record into
  // their shards; under TSan this exercises writer/merge ordering.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      obs::StatsSnapshot snap = registry.Snapshot();
      ASSERT_LE(snap.counter("test.work"), 50u * 128u);
    }
  });
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(128, [&](size_t i) {
      registry.Add(work);
      registry.Record(samples, static_cast<double>(i));
    });
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  // Recorded values are all-zero in the ANC_METRICS=OFF no-op build; the
  // writer/merge interleaving above is the point of the test either way.
  if (obs::kMetricsEnabled) {
    obs::StatsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.counter("test.work"), 50u * 128u);
    ASSERT_NE(snap.histogram("test.samples"), nullptr);
    EXPECT_EQ(snap.histogram("test.samples")->count, 50u * 128u);
    EXPECT_EQ(snap.counter("anc.pool.tasks_run"), 50u * 128u);
  }
}

TEST(MetricsStressTest, ManualThreadsRecordWhileSnapshotting) {
  obs::MetricsRegistry registry;
  const obs::CounterId hits = registry.Counter("stress.hits");
  const obs::GaugeId level = registry.Gauge("stress.level");
  const obs::HistogramId lat = registry.Histogram("stress.lat");

  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        registry.Add(hits);
        registry.Record(lat, static_cast<double>(i % 512));
        if ((i & 1023) == 0) registry.Set(level, static_cast<int64_t>(t));
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    obs::StatsSnapshot snap = registry.Snapshot();
    ASSERT_LE(snap.counter("stress.hits"), kThreads * kOpsPerThread);
  }
  for (std::thread& w : writers) w.join();

  if (obs::kMetricsEnabled) {
    obs::StatsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.counter("stress.hits"), kThreads * kOpsPerThread);
    ASSERT_NE(snap.histogram("stress.lat"), nullptr);
    EXPECT_EQ(snap.histogram("stress.lat")->count, kThreads * kOpsPerThread);
  }
}

TEST(MetricsStressTest, ConcurrentRegistrationDeduplicates) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<obs::CounterId> ids(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        obs::CounterId id = registry.Counter("shared.counter");
        registry.Add(id);
        ids[t] = id;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t].slot, ids[0].slot);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(registry.Snapshot().counter("shared.counter"),
              static_cast<uint64_t>(kThreads) * 50u);
  }
}

/// Serial and 4-worker batch updates over the same pyramid parameters must
/// agree exactly: the partitions are mutually independent (Lemma 13), so
/// parallelism may not change a single distance or vote.
TEST(ParallelPyramidTest, BatchUpdatesMatchSerial) {
  Rng rng(97);
  Graph g = BarabasiAlbert(300, 3, rng);
  std::vector<double> weights(g.NumEdges(), 1.0);

  PyramidParams serial_params;
  serial_params.num_pyramids = 3;
  serial_params.seed = 5;
  serial_params.num_threads = 1;
  PyramidParams parallel_params = serial_params;
  parallel_params.num_threads = 4;

  obs::MetricsRegistry registry;  // recorded into from pool workers
  PyramidIndex serial(g, weights, serial_params);
  PyramidIndex parallel(g, weights, parallel_params, &registry);

  for (int round = 0; round < 5; ++round) {
    std::vector<std::pair<EdgeId, double>> batch;
    batch.reserve(64);
    for (int i = 0; i < 64; ++i) {
      const EdgeId e = static_cast<EdgeId>(rng.Next() % g.NumEdges());
      batch.emplace_back(e, 0.2 + rng.NextDouble());
    }
    serial.UpdateEdgeWeights(batch);
    parallel.UpdateEdgeWeights(batch);
  }

  for (uint32_t level = 1; level <= serial.num_levels(); ++level) {
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      ASSERT_EQ(serial.VotesOf(e, level), parallel.VotesOf(e, level))
          << "edge " << e << " level " << level;
    }
  }
  std::vector<double> final_weights(g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    final_weights[e] = parallel.WeightOf(e);
  }
  for (uint32_t p = 0; p < serial_params.num_pyramids; ++p) {
    for (uint32_t level = 1; level <= serial.num_levels(); ++level) {
      const VoronoiPartition& a = serial.partition(p, level);
      const VoronoiPartition& b = parallel.partition(p, level);
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        ASSERT_EQ(a.SeedOf(v), b.SeedOf(v));
        ASSERT_DOUBLE_EQ(a.Dist(v), b.Dist(v));
      }
      ASSERT_TRUE(b.ConsistentWith(g, final_weights));
    }
  }
}

/// End-to-end Lemma-13 coverage: a 4-worker AncIndex digests a stream while
/// another thread polls Stats() (documented safe concurrently with
/// updates). Under TSan this is the race audit for the full update path.
TEST(ParallelPyramidTest, StreamApplyWithConcurrentStatsReader) {
  PlantedPartitionParams pp;
  pp.num_communities = 4;
  pp.min_size = 12;
  pp.max_size = 16;
  Rng rng(31);
  GroundTruthGraph data = PlantedPartition(pp, rng);

  AncConfig config;
  config.pyramid.num_pyramids = 3;
  config.pyramid.num_threads = 4;
  config.mode = AncMode::kOnline;
  AncIndex anc(data.graph, config);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      obs::StatsSnapshot snap = anc.Stats();
      ASSERT_GE(snap.counter("anc.apply.count"), 0u);
    }
  });

  ActivationStream stream = UniformStream(data.graph, 25, 0.08, rng);
  const Status status = anc.ApplyStream(stream);
  stop.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(status.ok()) << status.ToString();

  if (obs::kMetricsEnabled) {
    EXPECT_EQ(anc.Stats().counter("anc.apply.count"), stream.size());
  }
  EXPECT_TRUE(anc.ValidateInvariants(/*deep=*/false).ok());
}

/// Everything a per-update replay determines: vote tallies, weights and
/// the exact partition trees (tie-breaks included).
void ExpectSamePyramid(const PyramidIndex& actual,
                       const PyramidIndex& expected) {
  EXPECT_EQ(actual.ExportVoteCounts(), expected.ExportVoteCounts());
  for (EdgeId e = 0; e < expected.graph().NumEdges(); ++e) {
    ASSERT_EQ(actual.WeightOf(e), expected.WeightOf(e)) << "edge " << e;
  }
  const auto a = actual.ExportTreeStates();
  const auto b = expected.ExportTreeStates();
  ASSERT_EQ(a.size(), b.size());
  for (size_t slot = 0; slot < a.size(); ++slot) {
    EXPECT_EQ(a[slot].seeds, b[slot].seeds) << "slot " << slot;
    EXPECT_EQ(a[slot].seed_of, b[slot].seed_of) << "slot " << slot;
    EXPECT_EQ(a[slot].dist, b[slot].dist) << "slot " << slot;
    EXPECT_EQ(a[slot].parent, b[slot].parent) << "slot " << slot;
    EXPECT_EQ(a[slot].parent_edge, b[slot].parent_edge) << "slot " << slot;
    EXPECT_EQ(a[slot].first_child, b[slot].first_child) << "slot " << slot;
    EXPECT_EQ(a[slot].next_sibling, b[slot].next_sibling) << "slot " << slot;
    EXPECT_EQ(a[slot].prev_sibling, b[slot].prev_sibling) << "slot " << slot;
  }
}

/// The same for two AncIndexes, plus the Lemma-12 touched-node total.
void ExpectSameIndexState(const AncIndex& actual, const AncIndex& expected) {
  EXPECT_EQ(actual.total_touched_nodes(), expected.total_touched_nodes());
  ExpectSamePyramid(actual.index(), expected.index());
}

/// Repeated edges inside one batch: every level's overlay must replay the
/// edge's whole weight history (including a no-op repeat of the current
/// value), so the level-parallel batch matches one UpdateEdgeWeight per
/// update exactly.
TEST(ParallelPyramidTest, BatchWithRepeatedEdgesMatchesPerUpdate) {
  Rng rng(41);
  Graph g = BarabasiAlbert(200, 3, rng);
  std::vector<double> weights(g.NumEdges(), 1.0);
  PyramidParams serial_params;
  serial_params.num_pyramids = 3;
  serial_params.seed = 9;
  serial_params.num_threads = 1;
  PyramidParams parallel_params = serial_params;
  parallel_params.num_threads = 3;
  PyramidIndex serial(g, weights, serial_params);
  PyramidIndex parallel(g, weights, parallel_params);

  size_t serial_touched = 0;
  size_t parallel_touched = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<std::pair<EdgeId, double>> batch;
    for (int i = 0; i < 48; ++i) {
      if (i % 5 == 4) {
        batch.push_back(batch.back());  // a no-op repeat of the current value
        continue;
      }
      // Six hot edges: each recurs ~6 times per batch.
      batch.emplace_back(static_cast<EdgeId>(rng.Next() % 6),
                         0.1 + 3.0 * rng.NextDouble());
    }
    for (const auto& [e, w] : batch) {
      serial_touched += serial.UpdateEdgeWeight(e, w);
    }
    parallel_touched += parallel.UpdateEdgeWeights(batch);
  }
  EXPECT_EQ(parallel_touched, serial_touched);
  ExpectSamePyramid(parallel, serial);
}

struct BatchDiffInput {
  GroundTruthGraph data;
  AncConfig config;
  ActivationStream stream;
};

/// A planted graph under aggressive decay: a forced rescale every 40
/// activations with lambda = 2 pushes idle similarities under the clamp
/// floor, so rescales land mid-batch and clamp edges. ANCOR mode adds the
/// periodic reinforcement pass's repairs to the queue.
BatchDiffInput MakeBatchDiffInput(uint64_t seed) {
  PlantedPartitionParams pp;
  pp.num_communities = 4;
  pp.min_size = 12;
  pp.max_size = 16;
  Rng rng(seed);
  BatchDiffInput in{PlantedPartition(pp, rng), {}, {}};
  in.config.pyramid.num_pyramids = 3;
  in.config.pyramid.seed = seed;
  in.config.similarity.lambda = 2.0;
  in.config.similarity.min_similarity = 0.05;
  in.config.similarity.rescale_interval = 40;
  in.config.mode = AncMode::kOnlineReinforce;
  in.config.reinforce_interval = 3;
  double t = 0.0;
  for (int i = 0; i < 400; ++i) {
    t += 0.05;
    // Repeats within a batch are common: edges come from a 40-edge pool.
    in.stream.push_back(
        {static_cast<EdgeId>(rng.Uniform(std::min<uint32_t>(
             40, in.data.graph.NumEdges()))),
         t});
  }
  return in;
}

/// Per-activation Apply at one thread: the reference every batched run
/// must reproduce. Rejected activations are skipped, as ApplyBatch does.
std::unique_ptr<AncIndex> ApplyOneByOne(const BatchDiffInput& in) {
  AncConfig config = in.config;
  config.pyramid.num_threads = 1;
  auto index = std::make_unique<AncIndex>(in.data.graph, config);
  for (const Activation& a : in.stream) (void)index->Apply(a);
  return index;
}

TEST(ParallelPyramidTest, ApplyBatchMatchesPerActivationAcrossRescales) {
  const BatchDiffInput in = MakeBatchDiffInput(61);
  const std::unique_ptr<AncIndex> reference = ApplyOneByOne(in);
  ASSERT_GE(reference->engine().activeness().rescale_count(), 5u);
  if (obs::kMetricsEnabled) {
    ASSERT_GT(reference->Stats().counter("anc.sim.rescale_clamped_edges"),
              0u);
  }
  for (uint32_t threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AncConfig config = in.config;
    config.pyramid.num_threads = threads;
    AncIndex batched(in.data.graph, config);
    // 64-activation batches: every rescale (one per 40) lands mid-batch.
    const std::span<const Activation> stream(in.stream);
    for (size_t start = 0; start < stream.size(); start += 64) {
      const auto batch =
          stream.subspan(start, std::min<size_t>(64, stream.size() - start));
      const AncIndex::BatchOutcome outcome = batched.ApplyBatch(batch);
      ASSERT_EQ(outcome.applied, batch.size());
      ASSERT_EQ(outcome.refused, 0u);
      ASSERT_EQ(outcome.max_time, batch.back().time);
    }
    ExpectSameIndexState(batched, *reference);
  }
}

TEST(ParallelPyramidTest, ApplyBatchSkipsRefusedActivationsMidBatch) {
  BatchDiffInput in = MakeBatchDiffInput(62);
  // An out-of-range edge and a timestamp behind the clock, mid-batch.
  const double t = in.stream[30].time;
  in.stream.insert(in.stream.begin() + 31,
                   {in.data.graph.NumEdges() + 3, t});
  in.stream.insert(in.stream.begin() + 45, {0, t - 1.0});
  const std::unique_ptr<AncIndex> reference = ApplyOneByOne(in);
  for (uint32_t threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AncConfig config = in.config;
    config.pyramid.num_threads = threads;
    AncIndex batched(in.data.graph, config);
    const std::span<const Activation> stream(in.stream);
    const AncIndex::BatchOutcome first = batched.ApplyBatch(stream.first(60));
    EXPECT_EQ(first.applied, 58u);
    EXPECT_EQ(first.refused, 2u);
    EXPECT_EQ(first.first_error.code(), StatusCode::kOutOfRange);
    EXPECT_EQ(first.max_time, in.stream[59].time);
    const AncIndex::BatchOutcome rest =
        batched.ApplyBatch(stream.subspan(60));
    EXPECT_EQ(rest.refused, 0u);
    ExpectSameIndexState(batched, *reference);
  }
}

TEST(ParallelPyramidTest, ApplyBatchPromotesColdPagesFromPoolThreads) {
  const BatchDiffInput in = MakeBatchDiffInput(63);
  const std::unique_ptr<AncIndex> reference = ApplyOneByOne(in);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "anc_parallel_tier")
          .string();
  std::filesystem::remove_all(dir);
  AncConfig config = in.config;
  config.pyramid.num_threads = 3;
  AncIndex batched(in.data.graph, config);
  tier::TierOptions options;
  options.tier_budget_bytes = 1;  // demote every page at each Maintain
  options.page_elems = 16;
  options.background_compaction = false;
  auto opened = tier::TieredStore::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  tier::TieredStore& tier_store = *opened.value();
  batched.AttachTier(&tier_store);
  const std::span<const Activation> stream(in.stream);
  for (size_t start = 0; start < stream.size(); start += 50) {
    ASSERT_TRUE(tier_store.Maintain().ok());  // writer quiescent point
    const auto batch =
        stream.subspan(start, std::min<size_t>(50, stream.size() - start));
    ASSERT_EQ(batched.ApplyBatch(batch).applied, batch.size());
  }
  EXPECT_GT(tier_store.Stats().promotions, 0u);
  ExpectSameIndexState(batched, *reference);
  tier_store.DetachAll();
  ExpectSameIndexState(batched, *reference);
  std::filesystem::remove_all(dir);
}

/// The serving stack's shared-state surfaces under TSan: racing producers
/// against the IngestQueue, the writer's view publication against
/// concurrent readers, and watermark waiters against the final drain. The
/// functional assertions live in serve_test.cc; this variant maximizes
/// interleavings (tiny snapshot interval, aggressive backpressure).
TEST(ServeStressTest, PublishRaceAudit) {
  PlantedPartitionParams pp;
  pp.num_communities = 3;
  pp.min_size = 8;
  pp.max_size = 12;
  Rng rng(61);
  GroundTruthGraph data = PlantedPartition(pp, rng);
  ActivationStream stream = UniformStream(data.graph, 30, 0.08, rng);

  AncConfig config;
  config.pyramid.num_pyramids = 3;
  config.mode = AncMode::kOnline;
  AncIndex index(data.graph, config);

  serve::ServeOptions options;
  options.ingest.capacity = 8;  // force backpressure blocking
  options.ingest.clamp_out_of_order = true;
  options.snapshot_every_activations = 1;  // publish on every apply
  options.snapshot_max_age_s = 0.0;
  serve::AncServer server(&index, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kProducers = 3;
  std::atomic<size_t> next{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < stream.size();
           i = next.fetch_add(1)) {
        ASSERT_EQ(server.SubmitBatch(&stream[i], 1).value(), 1u);
      }
    });
  }

  std::atomic<bool> stop{false};
  std::thread waiter([&] {
    // Repeatedly await the moving accepted frontier: exercises the
    // watermark cv against concurrent publishes and the final drain.
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t target = server.accepted();
      ASSERT_TRUE(
          server.AwaitSeq(target, std::chrono::milliseconds(5000)).ok());
      ASSERT_GE(server.watermark().seq, target);
    }
  });
  std::thread reader([&] {
    uint64_t last_epoch = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::shared_ptr<const serve::ClusterView> view = server.View();
      ASSERT_GE(view->epoch(), last_epoch);
      last_epoch = view->epoch();
      view->LocalCluster(static_cast<NodeId>(last_epoch %
                                             data.graph.NumNodes()),
                         view->DefaultLevel());
    }
  });

  for (std::thread& p : producers) p.join();
  ASSERT_TRUE(server.Flush(std::chrono::milliseconds(30000)).ok());
  stop.store(true, std::memory_order_release);
  waiter.join();
  reader.join();
  server.Stop();

  EXPECT_TRUE(server.writer_status().ok());
  EXPECT_EQ(server.accepted(), stream.size());
  EXPECT_TRUE(index.ValidateInvariants(/*deep=*/false).ok());
}

/// The durability stack's shared-state surfaces under TSan: the serve
/// writer appending WAL batches races the store's background group-commit
/// flusher (flush_interval_s > 0) over the append buffer and durable mark,
/// while other threads poll StoreStats and await the durable watermark.
/// Functional crash/recovery assertions live in store_test.cc; this
/// variant maximizes interleavings (sub-millisecond flush ticks, auto-sync
/// disabled so the flusher owns every fsync).
TEST(StoreStressTest, WriterVsGroupCommitFlusherRaceAudit) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "anc_store_stress").string();
  std::filesystem::remove_all(dir);

  PlantedPartitionParams pp;
  pp.num_communities = 3;
  pp.min_size = 8;
  pp.max_size = 12;
  Rng rng(71);
  GroundTruthGraph data = PlantedPartition(pp, rng);
  ActivationStream stream = UniformStream(data.graph, 30, 0.08, rng);

  AncConfig config;
  config.pyramid.num_pyramids = 3;
  config.mode = AncMode::kOnline;
  AncIndex index(data.graph, config);

  store::StoreOptions store_options;
  store_options.flush_interval_s = 0.0005;  // flusher ticks constantly
  store_options.group_commit_records = 0;   // only the flusher fsyncs
  auto opened = store::DurableStore::Open(dir, index, store::Mark{0, 0.0},
                                          store_options, &index.metrics());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  serve::ServeOptions options;
  options.ingest.capacity = 8;  // force backpressure blocking
  options.ingest.clamp_out_of_order = true;
  options.max_batch = 4;  // many small WAL appends racing the flusher
  options.durability = serve::DurabilityPolicy::kAsync;
  serve::AncServer server(&index, options, opened.value().get());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kProducers = 3;
  std::atomic<size_t> next{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < stream.size();
           i = next.fetch_add(1)) {
        ASSERT_EQ(server.SubmitBatch(&stream[i], 1).value(), 1u);
      }
    });
  }

  std::atomic<bool> stop{false};
  std::thread stats_poller([&] {
    // Stats() and durable() take the store mutex against the writer's
    // appends and the flusher's syncs; the watermark read crosses the
    // durable-callback path.
    uint64_t last_durable = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const store::StoreStats stats = opened.value()->Stats();
      ASSERT_GE(stats.appended.seq, stats.durable.seq);
      ASSERT_GE(server.durable_watermark().seq, last_durable);
      last_durable = server.durable_watermark().seq;
    }
  });

  for (std::thread& p : producers) p.join();
  // FlushDurable races the flusher's own fsyncs: both sides may advance
  // the durable mark and fire the callback.
  ASSERT_TRUE(server.FlushDurable(std::chrono::milliseconds(30000)).ok());
  stop.store(true, std::memory_order_release);
  stats_poller.join();
  EXPECT_GE(server.durable_watermark().seq, stream.size());
  server.Stop();

  EXPECT_TRUE(server.writer_status().ok());
  EXPECT_TRUE(server.store_status().ok());
  EXPECT_EQ(server.accepted(), stream.size());
  opened.value().reset();
  std::filesystem::remove_all(dir);
}

/// The sharded router's shared surfaces under TSan: racing producers push
/// through the routing mutex into four concurrent shard writers, a reader
/// thread repeatedly captures merged ShardedViews (N snapshot publishes
/// racing N captures) and runs scatter-gather queries over them, a waiter
/// chases the moving global ticket frontier across the per-shard watermark
/// cvs, and a stats poller crosses every per-shard metrics registry.
/// Functional differential assertions live in shard_test.cc; this variant
/// maximizes interleavings (tiny queues, publish-on-every-apply).
TEST(ShardStressTest, RoutedProducersVsScatterGatherReaders) {
  PlantedPartitionParams pp;
  pp.num_communities = 4;
  pp.min_size = 10;
  pp.max_size = 14;
  pp.mixing = 0.2;  // cut edges so halo delivery races too
  Rng rng(81);
  GroundTruthGraph data = PlantedPartition(pp, rng);
  ActivationStream stream = UniformStream(data.graph, 30, 0.08, rng);

  AncConfig config;
  config.pyramid.num_pyramids = 3;
  config.mode = AncMode::kOnline;

  shard::ShardedOptions options;
  options.partition.num_shards = 4;
  options.serve.ingest.capacity = 8;  // force backpressure blocking
  options.serve.ingest.clamp_out_of_order = true;
  options.serve.snapshot_every_activations = 1;  // publish on every apply
  options.serve.snapshot_max_age_s = 0.0;
  auto created = shard::ShardedServer::Create(data.graph, config, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  shard::ShardedServer& server = *created.value();
  ASSERT_GT(server.router()->cut_edges(), 0u);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kProducers = 3;
  std::atomic<size_t> next{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < stream.size();
           i = next.fetch_add(1)) {
        ASSERT_TRUE(server.Submit(stream[i]).ok());
      }
    });
  }

  std::atomic<bool> stop{false};
  std::thread waiter([&] {
    // Await the moving global frontier: ShardFrontiers snapshots under the
    // route mutex while producers issue tickets, then blocks on every
    // shard's watermark cv.
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t target = server.accepted();
      ASSERT_TRUE(
          server.AwaitSeq(target, std::chrono::milliseconds(5000)).ok());
    }
  });
  std::thread reader([&] {
    uint64_t reads = 0;
    std::vector<uint64_t> last_epochs(4, 0);
    while (!stop.load(std::memory_order_acquire)) {
      const shard::ShardedView view = server.View();
      const std::vector<uint64_t> epochs = view.Epochs();
      for (size_t s = 0; s < epochs.size(); ++s) {
        ASSERT_GE(epochs[s], last_epochs[s]);  // per-shard monotone
        last_epochs[s] = epochs[s];
      }
      view.LocalCluster(
          static_cast<NodeId>(reads % data.graph.NumNodes()),
          view.DefaultLevel());
      if (++reads % 16 == 0) view.Clusters();
    }
  });
  std::thread stats_poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::StatsSnapshot stats = server.Stats();
      ASSERT_GE(stats.counter("anc.shard.accepted") +
                    stats.counter("anc.shard.rejected"),
                stats.counter("anc.shard.halo_partial"));
    }
  });

  for (std::thread& p : producers) p.join();
  ASSERT_TRUE(server.Flush(std::chrono::milliseconds(30000)).ok());
  stop.store(true, std::memory_order_release);
  waiter.join();
  reader.join();
  stats_poller.join();
  server.Stop();

  EXPECT_TRUE(server.writer_status().ok());
  EXPECT_EQ(server.accepted(), stream.size());
  EXPECT_GT(server.halo_deliveries(), 0u);
  for (uint32_t s = 0; s < server.num_shards(); ++s) {
    EXPECT_TRUE(server.shard_index(s).ValidateInvariants(/*deep=*/false).ok());
  }
}

}  // namespace
}  // namespace anc
