// Durability-subsystem tests (src/store/): WAL framing and torn-tail
// handling, checkpoint/manifest rotation, and the crash matrix — every
// labeled crash point (store::TestHooks) at multiple stream offsets, each
// followed by Recover() and a byte-identical comparison against a fresh
// index that applied exactly the recovered prefix. Backs the
// crash-consistency argument in docs/durability.md.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "activation/stream_generators.h"
#include "check/oracle.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "serve/server.h"
#include "store/store.h"
#include "store/test_hooks.h"
#include "store/wal.h"
#include "util/rng.h"

namespace anc {
namespace {

using store::CrashPoint;
using store::DurableStore;
using store::Mark;
using store::RecoveredStore;
using store::StoreOptions;
using store::TestHooks;
using store::WalRecord;
using store::WalSegmentInfo;

constexpr std::chrono::milliseconds kAwait{5000};

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
  config.mode = AncMode::kOnlineReinforce;
  config.reinforce_interval = 4;
  return config;
}

/// Asserts two quiesced indexes are in byte-identical states: identical
/// similarity/activeness per edge and identical clusterings at every
/// granularity — the recovery contract.
void ExpectIndexStatesEqual(AncIndex& recovered, AncIndex& expected) {
  ASSERT_EQ(recovered.num_levels(), expected.num_levels());
  const Graph& g = expected.graph();
  ASSERT_EQ(recovered.graph().NumNodes(), g.NumNodes());
  ASSERT_EQ(recovered.graph().NumEdges(), g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    ASSERT_DOUBLE_EQ(recovered.engine().Similarity(e),
                     expected.engine().Similarity(e))
        << "edge " << e;
    ASSERT_DOUBLE_EQ(recovered.engine().activeness().Anchored(e),
                     expected.engine().activeness().Anchored(e))
        << "edge " << e;
  }
  for (uint32_t level = 1; level <= expected.num_levels(); ++level) {
    const Clustering a = recovered.Clusters(level);
    const Clustering b = expected.Clusters(level);
    ASSERT_EQ(a.num_clusters, b.num_clusters) << "level " << level;
    ASSERT_EQ(a.labels, b.labels) << "level " << level;
  }
}

/// Disarms any armed crash point when a test exits early (a failed ASSERT
/// must not leak an armed crash into the next test).
struct DisarmGuard {
  ~DisarmGuard() { TestHooks::Disarm(); }
};

/// Replays stream[0..prefix) through a fresh index — the reference state
/// recovery must reproduce exactly.
std::unique_ptr<AncIndex> FreshPrefixIndex(const Graph& g,
                                           const AncConfig& config,
                                           const ActivationStream& stream,
                                           uint64_t prefix) {
  auto index = std::make_unique<AncIndex>(g, config);
  for (uint64_t i = 0; i < prefix; ++i) {
    EXPECT_TRUE(index->Apply(stream[i]).ok());
  }
  return index;
}

// --- WAL framing ----------------------------------------------------------

TEST(WalTest, RoundTripRecordsAndMarks) {
  const std::string dir = TempDir("anc_wal_roundtrip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/wal-1.log";

  auto appender = store::WalAppender::Create(path, 1);
  ASSERT_TRUE(appender.ok());
  store::WalAppender& wal = *appender.value();
  std::vector<Activation> batch1 = {{0, 0.5}, {1, 0.75}, {2, 1.0}};
  std::vector<Activation> batch2 = {{3, 1.5}};
  ASSERT_TRUE(wal.Append(batch1.data(), batch1.size(), 1).ok());
  EXPECT_EQ(wal.appended().seq, 3u);
  EXPECT_EQ(wal.durable().seq, 0u);  // buffered only
  ASSERT_TRUE(wal.Append(batch2.data(), batch2.size(), 4).ok());
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.durable().seq, 4u);
  EXPECT_DOUBLE_EQ(wal.durable().time, 1.5);
  ASSERT_TRUE(wal.Close().ok());

  std::vector<WalRecord> records;
  Result<WalSegmentInfo> info = store::ReadWalSegment(
      path, [&](const WalRecord& record) {
        records.push_back(record);
        return Status::OK();
      });
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info.value().torn_tail);
  EXPECT_EQ(info.value().base_seq, 1u);
  EXPECT_EQ(info.value().records, 2u);
  EXPECT_EQ(info.value().activations, 4u);
  EXPECT_EQ(info.value().last_seq, 4u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].first_seq, 1u);
  ASSERT_EQ(records[0].activations.size(), 3u);
  EXPECT_EQ(records[0].activations[1].edge, 1u);
  EXPECT_DOUBLE_EQ(records[0].activations[1].time, 0.75);
  EXPECT_EQ(records[1].first_seq, 4u);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, CorruptTailDetectedAndTruncated) {
  const std::string dir = TempDir("anc_wal_torn");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/wal-1.log";
  {
    auto appender = store::WalAppender::Create(path, 1);
    ASSERT_TRUE(appender.ok());
    std::vector<Activation> batch = {{0, 1.0}, {1, 2.0}};
    ASSERT_TRUE(appender.value()->Append(batch.data(), 2, 1).ok());
    std::vector<Activation> tail = {{2, 3.0}};
    ASSERT_TRUE(appender.value()->Append(tail.data(), 1, 3).ok());
    ASSERT_TRUE(appender.value()->Close().ok());
  }
  // Corrupt one byte inside the LAST record's payload: the scan must keep
  // the first record, flag the tail, and truncation must remove it.
  ASSERT_TRUE(TestHooks::CorruptByte(path, -3).ok());
  Result<WalSegmentInfo> scan =
      store::ReadWalSegment(path, nullptr, /*truncate_torn_tail=*/true);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().torn_tail);
  EXPECT_EQ(scan.value().records, 1u);
  EXPECT_EQ(scan.value().last_seq, 2u);

  Result<WalSegmentInfo> rescan = store::ReadWalSegment(path, nullptr);
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan.value().torn_tail);
  EXPECT_EQ(rescan.value().records, 1u);
  EXPECT_EQ(std::filesystem::file_size(path), rescan.value().valid_bytes);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, OversizedFrameLengthTreatedAsTornTail) {
  // Regression from fuzz/fuzz_wal.cc: a frame header claiming a ~4 GiB
  // payload (far above kMaxWalPayloadBytes) must be flagged as a torn
  // tail before the scanner ever attempts the allocation.
  const std::string dir = TempDir("anc_wal_oversized");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/wal-1.log";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(store::kWalMagic, sizeof(store::kWalMagic));
    const uint64_t base_seq = 1;
    out.write(reinterpret_cast<const char*>(&base_seq), sizeof(base_seq));
    const uint32_t length = 0xffffffffu;
    const uint32_t crc = 0;
    out.write(reinterpret_cast<const char*>(&length), sizeof(length));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  }
  Result<WalSegmentInfo> scan =
      store::ReadWalSegment(path, nullptr, /*truncate_torn_tail=*/true);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().torn_tail);
  EXPECT_EQ(scan.value().records, 0u);
  EXPECT_EQ(scan.value().valid_bytes, store::kWalSegmentHeaderBytes);
  EXPECT_EQ(std::filesystem::file_size(path), store::kWalSegmentHeaderBytes);

  // A length too small to hold even the record preamble is equally torn.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const uint32_t length = 4;
    const uint32_t crc = 0;
    out.write(reinterpret_cast<const char*>(&length), sizeof(length));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  }
  Result<WalSegmentInfo> rescan = store::ReadWalSegment(path, nullptr);
  ASSERT_TRUE(rescan.ok());
  EXPECT_TRUE(rescan.value().torn_tail);
  EXPECT_EQ(rescan.value().records, 0u);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, NonWalFileRejected) {
  const std::string dir = TempDir("anc_wal_reject");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/wal-1.log";
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a WAL segment";
  }
  Result<WalSegmentInfo> scan = store::ReadWalSegment(path, nullptr);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

// --- Crash matrix ---------------------------------------------------------

struct DriveOutcome {
  Status failure;       ///< OK if the whole stream went through
  Mark durable;         ///< the store's durable mark at death / completion
  uint64_t applied = 0; ///< activations applied live before death
};

/// Drives `stream` the way the serve writer does — append to the WAL,
/// then apply — in batches of 7, syncing every 2 batches and
/// checkpointing every 5. Stops at the first store failure (the simulated
/// crash) and reports the durable mark the "process" last knew about.
DriveOutcome DriveUntilCrash(DurableStore* store, AncIndex* index,
                             const ActivationStream& stream) {
  constexpr size_t kBatch = 7;
  DriveOutcome out;
  double last_time = 0.0;
  size_t batch_index = 0;
  for (size_t start = 0; start < stream.size();
       start += kBatch, ++batch_index) {
    const size_t count = std::min(kBatch, stream.size() - start);
    const std::vector<Activation> batch(stream.begin() + start,
                                        stream.begin() + start + count);
    Status status = store->Append(batch, start + 1);
    if (!status.ok()) {
      out.failure = status;
      break;
    }
    for (const Activation& activation : batch) {
      EXPECT_TRUE(index->Apply(activation).ok());
      last_time = std::max(last_time, activation.time);
      ++out.applied;
    }
    if (batch_index % 2 == 1) {
      status = store->Sync();
      if (!status.ok()) {
        out.failure = status;
        break;
      }
    }
    if (batch_index % 5 == 4) {
      status = store->WriteCheckpoint(*index, Mark{out.applied, last_time});
      if (!status.ok()) {
        out.failure = status;
        break;
      }
    }
  }
  out.durable = store->durable();
  return out;
}

TEST(StoreCrashMatrixTest, EveryCrashPointAtEveryOffsetRecoversExactly) {
  Rng rng(21);
  const Graph g = BarabasiAlbert(100, 3, rng);
  const AncConfig config = TestConfig();
  const ActivationStream stream = UniformStream(g, 12, 0.03, rng);
  ASSERT_GE(stream.size(), 50u) << "stream too short to exercise the matrix";

  const CrashPoint kPoints[] = {
      CrashPoint::kMidRecord, CrashPoint::kPostAppendPreFsync,
      CrashPoint::kMidCheckpoint, CrashPoint::kPreManifestSwap};
  for (const CrashPoint point : kPoints) {
    for (const uint32_t skip : {0u, 1u, 2u}) {
      SCOPED_TRACE(std::string(CrashPointName(point)) + " skip=" +
                   std::to_string(skip));
      const std::string dir =
          TempDir(std::string("anc_crash_") + CrashPointName(point) + "_" +
                  std::to_string(skip));
      AncIndex live(g, config);
      auto opened = DurableStore::Open(dir, live, Mark{0, 0.0});
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();

      DisarmGuard guard;
      TestHooks::ArmCrash(point, skip);
      const DriveOutcome outcome =
          DriveUntilCrash(opened.value().get(), &live, stream);
      TestHooks::Disarm();
      opened.value().reset();  // the simulated death: disk state freezes

      Result<RecoveredStore> recovered = store::Recover(dir);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      RecoveredStore& rec = recovered.value();

      // The durable contract: everything the store ever reported durable
      // is reproduced. (Recovery may legitimately exceed it — flushed but
      // un-fsynced bytes can survive a simulated in-process crash.)
      EXPECT_GE(rec.watermark.seq, outcome.durable.seq);
      ASSERT_LE(rec.watermark.seq, stream.size());
      EXPECT_EQ(rec.skipped_applies, 0u);

      // Byte-identical recovery: the recovered index answers exactly like
      // a fresh index that applied stream[0 .. watermark.seq).
      std::unique_ptr<AncIndex> expected =
          FreshPrefixIndex(g, config, stream, rec.watermark.seq);
      ExpectIndexStatesEqual(*rec.index, *expected);
      const Status invariants = rec.index->ValidateInvariants(/*deep=*/true);
      EXPECT_TRUE(invariants.ok()) << invariants.ToString();
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(StoreRecoveryTest, CleanShutdownRecoversEverything) {
  Rng rng(22);
  const Graph g = BarabasiAlbert(80, 3, rng);
  const AncConfig config = TestConfig();
  const ActivationStream stream = UniformStream(g, 10, 0.03, rng);
  const std::string dir = TempDir("anc_store_clean");

  AncIndex live(g, config);
  auto opened = DurableStore::Open(dir, live, Mark{0, 0.0});
  ASSERT_TRUE(opened.ok());
  const DriveOutcome outcome =
      DriveUntilCrash(opened.value().get(), &live, stream);
  ASSERT_TRUE(outcome.failure.ok()) << outcome.failure.ToString();
  const store::StoreStats stats = opened.value()->Stats();
  EXPECT_GT(stats.records, 0u);
  EXPECT_GT(stats.syncs, 0u);
  EXPECT_GE(stats.checkpoints, 1u);
  EXPECT_FALSE(stats.checkpoint_file.empty());
  opened.value().reset();  // clean close syncs the tail

  Result<RecoveredStore> recovered = store::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().watermark.seq, stream.size());
  ExpectIndexStatesEqual(*recovered.value().index, live);
  std::filesystem::remove_all(dir);
}

TEST(StoreRecoveryTest, SurvivesCorruptManifestViaCheckpointScan) {
  Rng rng(23);
  const Graph g = BarabasiAlbert(60, 3, rng);
  const AncConfig config = TestConfig();
  const ActivationStream stream = UniformStream(g, 8, 0.04, rng);
  const std::string dir = TempDir("anc_store_badmanifest");

  AncIndex live(g, config);
  auto opened = DurableStore::Open(dir, live, Mark{0, 0.0});
  ASSERT_TRUE(opened.ok());
  const DriveOutcome outcome =
      DriveUntilCrash(opened.value().get(), &live, stream);
  ASSERT_TRUE(outcome.failure.ok());
  opened.value().reset();

  // Flip a byte inside the manifest: recovery must fall back to scanning
  // ckpt-*.idx files by generation and still reconstruct the exact state.
  ASSERT_TRUE(TestHooks::CorruptByte(dir + "/MANIFEST", -1).ok());
  Result<RecoveredStore> recovered = store::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().watermark.seq, stream.size());
  ExpectIndexStatesEqual(*recovered.value().index, live);
  std::filesystem::remove_all(dir);
}

TEST(StoreRecoveryTest, CheckpointCoveredWalFramesAreSkippedNotReplayed) {
  // Replay must start strictly after the checkpoint seq: frames the
  // checkpoint already covers are counted (skipped_records), and whole
  // segments that provably end at or before it are skipped without even
  // being read (skipped_segments).
  Rng rng(29);
  const Graph g = BarabasiAlbert(60, 3, rng);
  const AncConfig config = TestConfig();
  const ActivationStream stream = UniformStream(g, 8, 0.04, rng);
  const std::string dir = TempDir("anc_store_skipcovered");

  AncIndex live(g, config);
  StoreOptions options;
  options.segment_bytes = 1;  // rotate after every batch: many segments
  auto opened = DurableStore::Open(dir, live, Mark{0, 0.0}, options);
  ASSERT_TRUE(opened.ok());
  DurableStore& store = *opened.value();

  constexpr size_t kBatch = 7;
  double last_time = 0.0;
  uint64_t applied = 0;
  for (size_t start = 0; start < stream.size(); start += kBatch) {
    const size_t count = std::min(kBatch, stream.size() - start);
    const std::vector<Activation> batch(stream.begin() + start,
                                        stream.begin() + start + count);
    ASSERT_TRUE(store.Append(batch, start + 1).ok());
    for (const Activation& activation : batch) {
      ASSERT_TRUE(live.Apply(activation).ok());
      last_time = std::max(last_time, activation.time);
      ++applied;
    }
  }

  // Die between publishing the new checkpoint and swapping the manifest:
  // the checkpoint covering every ticket is durable, but none of the WAL
  // segments it obsoletes were garbage collected.
  DisarmGuard guard;
  TestHooks::ArmCrash(CrashPoint::kPreManifestSwap, 0);
  EXPECT_FALSE(store.WriteCheckpoint(live, Mark{applied, last_time}).ok());
  TestHooks::Disarm();
  opened.value().reset();

  // With the manifest gone, recovery falls back to the newest loadable
  // checkpoint — the full-coverage one — while every covered WAL segment
  // still sits on disk next to it. Drop the empty segment the checkpoint
  // rotated to: the newest data segment then has no successor proving its
  // range, so recovery must read it and count its covered records.
  ASSERT_TRUE(TestHooks::CorruptByte(dir + "/MANIFEST", -1).ok());
  {
    char rotated[64];
    std::snprintf(rotated, sizeof(rotated), "wal-%020llu.log",
                  static_cast<unsigned long long>(applied + 1));
    ASSERT_TRUE(std::filesystem::remove(dir + "/" + rotated));
  }
  Result<RecoveredStore> recovered = store::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  RecoveredStore& rec = recovered.value();
  EXPECT_EQ(rec.checkpoint_seq, applied);
  EXPECT_EQ(rec.watermark.seq, applied);
  EXPECT_EQ(rec.replayed_records, 0u) << "covered frames were replayed";
  EXPECT_EQ(rec.replayed_activations, 0u);
  EXPECT_GT(rec.skipped_segments, 0u)
      << "provably covered segments should be skipped unread";
  EXPECT_GT(rec.skipped_records, 0u)
      << "covered records in the boundary segment should be counted";
  ExpectIndexStatesEqual(*rec.index, live);
  std::filesystem::remove_all(dir);
}

TEST(StoreRecoveryTest, EmptyOrMissingDirectoryFailsNotFound) {
  EXPECT_EQ(store::Recover("/nonexistent/anc/store").status().code(),
            StatusCode::kNotFound);
  const std::string dir = TempDir("anc_store_empty");
  std::filesystem::create_directories(dir);
  EXPECT_EQ(store::Recover(dir).status().code(), StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
}

TEST(StoreRecoveryTest, RecoveredPrefixPassesDifferentialOracle) {
  // The crash-consistency argument rests on replay determinism: state is a
  // pure function of (snapshot, replayed activations). Cross-validate the
  // recovered prefix with the PR-2 differential oracle.
  Rng rng(24);
  const Graph g = BarabasiAlbert(60, 3, rng);
  const AncConfig config = TestConfig();
  const ActivationStream stream = UniformStream(g, 6, 0.05, rng);
  check::OracleResult oracle =
      check::RunDifferentialOracle(g, config, stream);
  EXPECT_TRUE(oracle.ok()) << oracle.report.ToString();
}

// --- Serve integration ----------------------------------------------------

/// Enqueues `stream` through the engine's batch hand-off (the router's
/// path); every entry must be accepted. Returns the last ticket.
uint64_t SubmitAll(serve::AncServer& server, const ActivationStream& stream) {
  uint64_t last_seq = 0;
  Result<size_t> accepted =
      server.SubmitBatch(stream.data(), stream.size(), &last_seq);
  EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted.ok() ? accepted.value() : 0, stream.size());
  return last_seq;
}

TEST(DurableServeTest, FlushDurableCoversRecovery) {
  Rng rng(31);
  const Graph g = BarabasiAlbert(90, 3, rng);
  const AncConfig config = TestConfig();
  const ActivationStream stream = UniformStream(g, 10, 0.03, rng);
  const std::string dir = TempDir("anc_serve_durable");

  AncIndex index(g, config);
  StoreOptions store_options;
  store_options.group_commit_records = 16;
  auto opened = DurableStore::Open(dir, index, Mark{0, 0.0}, store_options,
                                   &index.metrics());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  serve::ServeOptions options;
  options.durability = serve::DurabilityPolicy::kGroupCommit;
  serve::AncServer server(&index, options, opened.value().get());
  ASSERT_TRUE(server.Start().ok());
  const uint64_t last_seq = SubmitAll(server, stream);
  ASSERT_EQ(last_seq, stream.size());

  ASSERT_TRUE(server.FlushDurable(kAwait).ok());
  const serve::Watermark durable = server.durable_watermark();
  EXPECT_GE(durable.seq, last_seq);
  EXPECT_TRUE(server.store_status().ok());

  ASSERT_TRUE(server.RequestCheckpoint(kAwait).ok());
  server.Stop();
  opened.value().reset();

  // When FlushDurable reported OK for ticket N, recovery MUST reproduce a
  // state covering ticket N — the headline durability guarantee.
  Result<RecoveredStore> recovered = store::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GE(recovered.value().watermark.seq, durable.seq);
  std::unique_ptr<AncIndex> expected = FreshPrefixIndex(
      g, config, stream, recovered.value().watermark.seq);
  ExpectIndexStatesEqual(*recovered.value().index, *expected);
  std::filesystem::remove_all(dir);
}

TEST(DurableServeTest, WalCrashFreezesDurableWatermarkAndFlushFails) {
  Rng rng(32);
  const Graph g = BarabasiAlbert(70, 3, rng);
  const AncConfig config = TestConfig();
  const ActivationStream stream = UniformStream(g, 8, 0.04, rng);
  const std::string dir = TempDir("anc_serve_walcrash");

  AncIndex index(g, config);
  auto opened = DurableStore::Open(dir, index, Mark{0, 0.0});
  ASSERT_TRUE(opened.ok());

  serve::ServeOptions options;
  options.durability = serve::DurabilityPolicy::kGroupCommit;
  // Small batches: the writer drains the stream over many WAL appends, so
  // the armed crash reliably fires mid-stream rather than never.
  options.max_batch = 4;
  serve::AncServer server(&index, options, opened.value().get());
  ASSERT_TRUE(server.Start().ok());

  DisarmGuard guard;
  TestHooks::ArmCrash(CrashPoint::kPostAppendPreFsync, /*skip=*/2);
  SubmitAll(server, stream);
  // Live serving keeps going after the WAL dies...
  ASSERT_TRUE(server.Flush(kAwait).ok());
  EXPECT_TRUE(server.writer_status().ok());
  // ...but durability is honest about it: the durable flush fails instead
  // of reporting tickets recovery could not reproduce.
  const Status durable_flush = server.FlushDurable(kAwait);
  ASSERT_FALSE(durable_flush.ok());
  EXPECT_FALSE(server.store_status().ok());
  if (obs::kMetricsEnabled) {
    EXPECT_GT(server.Stats().counter("anc.serve.wal_errors"), 0u);
  }
  const serve::Watermark durable = server.durable_watermark();
  EXPECT_LT(durable.seq, stream.size());
  TestHooks::Disarm();
  server.Stop();
  opened.value().reset();

  Result<RecoveredStore> recovered = store::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GE(recovered.value().watermark.seq, durable.seq);
  std::unique_ptr<AncIndex> expected = FreshPrefixIndex(
      g, config, stream, recovered.value().watermark.seq);
  ExpectIndexStatesEqual(*recovered.value().index, *expected);
  std::filesystem::remove_all(dir);
}

TEST(DurableServeTest, ServingContinuesAfterRecovery) {
  Rng rng(33);
  const Graph g = BarabasiAlbert(80, 3, rng);
  const AncConfig config = TestConfig();
  const ActivationStream stream = UniformStream(g, 12, 0.03, rng);
  const size_t half = stream.size() / 2;
  const ActivationStream phase1(stream.begin(), stream.begin() + half);
  const ActivationStream phase2(stream.begin() + half, stream.end());
  const std::string dir = TempDir("anc_serve_continue");

  // Phase 1: serve half the stream durably, then stop cleanly.
  {
    AncIndex index(g, config);
    auto opened = DurableStore::Open(dir, index, Mark{0, 0.0});
    ASSERT_TRUE(opened.ok());
    serve::ServeOptions options;
    options.durability = serve::DurabilityPolicy::kGroupCommit;
    serve::AncServer server(&index, options, opened.value().get());
    ASSERT_TRUE(server.Start().ok());
    SubmitAll(server, phase1);
    ASSERT_TRUE(server.FlushDurable(kAwait).ok());
    server.Stop();
  }

  // Crash-recover, then serve the second half on the recovered index.
  Result<RecoveredStore> mid = store::Recover(dir);
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  ASSERT_EQ(mid.value().watermark.seq, half);
  {
    AncIndex& index = *mid.value().index;
    // A new serving session restarts ticket numbering at 1, so the store
    // reopens with start = {0, recovered time}: the Open-time checkpoint
    // collapses the replayed WAL into the new generation's base.
    auto opened = DurableStore::Open(dir, index,
                                     Mark{0, mid.value().watermark.time});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    serve::ServeOptions options;
    options.durability = serve::DurabilityPolicy::kGroupCommit;
    serve::AncServer server(&index, options, opened.value().get());
    ASSERT_TRUE(server.Start().ok());
    SubmitAll(server, phase2);
    const Status durable_flush = server.FlushDurable(kAwait);
    ASSERT_TRUE(durable_flush.ok())
        << durable_flush.ToString()
        << " store=" << server.store_status().ToString()
        << " writer=" << server.writer_status().ToString();
    server.Stop();
  }

  Result<RecoveredStore> final_state = store::Recover(dir);
  ASSERT_TRUE(final_state.ok()) << final_state.status().ToString();
  EXPECT_EQ(final_state.value().watermark.seq, phase2.size());
  std::unique_ptr<AncIndex> expected =
      FreshPrefixIndex(g, config, stream, stream.size());
  ExpectIndexStatesEqual(*final_state.value().index, *expected);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace anc
