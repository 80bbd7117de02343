// Hot/cold tier tests (src/tier/): the ANCSEG01 segment format round-trips
// and rejects corruption wholesale, a budgeted TieredStore keeps the
// resident delta under tier_budget_bytes while every §V-B query answers
// byte-identical to the untiered index, checkpoint heads whose page tables
// reference segments load through LoadIndex exactly like all-inline
// checkpoints (and refuse damaged or missing segments), compaction rewrites
// the cold side without changing a single answer, and each tier crash seam
// (mid-segment-write, pre-tier-manifest-swap, mid-compaction) recovers
// through store::Recover byte-identical to an untiered replay of the same
// prefix. Tiered serving runs through ShardedServer (ShardedOptions::tier):
// one tier per shard, driven at the shard writers' quiescent points and
// recovered by RecoverAll.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "activation/stream_generators.h"
#include "check/test_hooks.h"
#include "core/anc.h"
#include "core/serialization.h"
#include "datasets/synthetic.h"
#include "shard/sharded_server.h"
#include "store/store.h"
#include "store/test_hooks.h"
#include "tier/column.h"
#include "tier/segment.h"
#include "tier/tiered_store.h"
#include "util/rng.h"

namespace anc {
namespace {

using shard::ShardedOptions;
using shard::ShardedServer;
using store::CrashPoint;
using store::CrashPointName;
using store::DurableStore;
using store::Mark;
using store::Recover;
using store::RecoveredStore;
using store::StoreOptions;
using store::TestHooks;
using tier::SegmentReader;
using tier::SegmentWriter;
using tier::TieredStore;
using tier::TierOptions;
using tier::TierStats;

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
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

/// Asserts two quiesced indexes answer identically: per-edge similarity
/// state and the full clustering at every level — the §V-B byte-identity
/// contract the tier must preserve.
void ExpectIndexStatesEqual(AncIndex& actual, AncIndex& expected) {
  ASSERT_EQ(actual.num_levels(), expected.num_levels());
  const Graph& g = expected.graph();
  ASSERT_EQ(actual.graph().NumNodes(), g.NumNodes());
  ASSERT_EQ(actual.graph().NumEdges(), g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    ASSERT_DOUBLE_EQ(actual.engine().Similarity(e),
                     expected.engine().Similarity(e))
        << "edge " << e;
    ASSERT_DOUBLE_EQ(actual.engine().activeness().Anchored(e),
                     expected.engine().activeness().Anchored(e))
        << "edge " << e;
  }
  for (uint32_t level = 1; level <= expected.num_levels(); ++level) {
    const Clustering a = actual.Clusters(level);
    const Clustering b = expected.Clusters(level);
    ASSERT_EQ(a.num_clusters, b.num_clusters) << "level " << level;
    ASSERT_EQ(a.labels, b.labels) << "level " << level;
  }
}

struct DisarmGuard {
  ~DisarmGuard() { TestHooks::Disarm(); }
};

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

// --- ANCSEG01 segment format ----------------------------------------------

std::vector<double> PagePayload(size_t elems, double seed) {
  std::vector<double> page(elems);
  for (size_t i = 0; i < elems; ++i) {
    page[i] = seed + static_cast<double>(i) * 0.25;
  }
  return page;
}

TEST(SegmentTest, RoundTripPreservesEveryPageByte) {
  const std::string dir = TempDir("anc_tier_seg_roundtrip");
  fs::create_directories(dir);
  const std::string path = dir + "/seg-000000000001.tseg";

  const std::vector<double> a0 = PagePayload(64, 1.0);
  const std::vector<double> a3 = PagePayload(64, 2.0);
  const std::vector<double> b1 = PagePayload(16, 3.0);

  auto writer = SegmentWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)
                  ->AddPage(1, sizeof(double), 0, a0.data(),
                            static_cast<uint32_t>(a0.size() * sizeof(double)))
                  .ok());
  ASSERT_TRUE((*writer)
                  ->AddPage(1, sizeof(double), 3, a3.data(),
                            static_cast<uint32_t>(a3.size() * sizeof(double)))
                  .ok());
  ASSERT_TRUE((*writer)
                  ->AddPage(2, sizeof(double), 1, b1.data(),
                            static_cast<uint32_t>(b1.size() * sizeof(double)))
                  .ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  writer->reset();

  auto reader = SegmentReader::Open(path, /*verify_pages=*/true);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->pages().size(), 3u);

  const tier::SegmentPage* page = (*reader)->Find(1, 3);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->bytes, a3.size() * sizeof(double));
  EXPECT_EQ(page->elem_size, sizeof(double));
  // Payloads are 8-byte aligned in the mapping: doubles read in place.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(page->data) % alignof(double), 0u);
  EXPECT_EQ(std::memcmp(page->data, a3.data(), page->bytes), 0);

  EXPECT_NE((*reader)->Find(2, 1), nullptr);
  EXPECT_EQ((*reader)->Find(2, 0), nullptr);
  EXPECT_EQ((*reader)->Find(9, 0), nullptr);
  EXPECT_TRUE((*reader)->VerifyAll().ok());
  fs::remove_all(dir);
}

TEST(SegmentTest, CorruptionIsRejectedNeverTrusted) {
  const std::string dir = TempDir("anc_tier_seg_corrupt");
  fs::create_directories(dir);
  const std::string path = dir + "/seg-000000000001.tseg";

  const std::vector<double> payload = PagePayload(128, 5.0);
  auto writer = SegmentWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)
                  ->AddPage(1, sizeof(double), 0, payload.data(),
                            static_cast<uint32_t>(payload.size() *
                                                  sizeof(double)))
                  .ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  writer->reset();

  // Flip one payload byte (the first page starts right after the 16-byte
  // header): lazy open still succeeds — the directory is intact — but
  // page verification must catch it.
  ASSERT_TRUE(
      TestHooks::CorruptByte(path,
                             static_cast<int64_t>(tier::kSegmentHeaderBytes) +
                                 1)
          .ok());
  auto lazy = SegmentReader::Open(path, /*verify_pages=*/false);
  ASSERT_TRUE(lazy.ok());
  EXPECT_FALSE((*lazy)->VerifyAll().ok());
  EXPECT_FALSE(SegmentReader::Open(path, /*verify_pages=*/true).ok());

  // A truncated tail (torn write) rejects the whole segment.
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  ASSERT_FALSE(ec);
  fs::resize_file(path, size / 2, ec);
  ASSERT_FALSE(ec);
  EXPECT_FALSE(SegmentReader::Open(path, /*verify_pages=*/false).ok());

  // Garbage of every small size is a Status, never a crash.
  std::string noise(1024, '\x5a');
  for (size_t len : {0u, 1u, 15u, 16u, 64u, 1024u}) {
    std::vector<tier::SegmentPage> pages;
    EXPECT_FALSE(
        tier::DecodeSegment(noise.data(), len, &pages, true).ok());
  }
  fs::remove_all(dir);
}

// --- TieredStore: budgeted spill + byte-identical queries -----------------

struct TieredFixture {
  std::string dir;
  Graph graph;
  AncConfig config;
  ActivationStream stream;

  static TieredFixture Make(const std::string& name, uint32_t nodes,
                            uint64_t seed, size_t rounds) {
    Rng rng(seed);
    TieredFixture f;
    f.dir = TempDir(name);
    f.graph = BarabasiAlbert(nodes, 3, rng);
    f.config = TestConfig();
    f.stream = UniformStream(f.graph, rounds, 0.03, rng);
    return f;
  }
};

TEST(TieredStoreTest, BudgetedSpillKeepsQueriesByteIdentical) {
  TieredFixture f = TieredFixture::Make("anc_tier_budget", 200, 31, 10);

  // Phase 1: measure the full in-RAM footprint of the tiered columns.
  uint64_t full_bytes = 0;
  {
    AncIndex probe(f.graph, f.config);
    TierOptions options;
    options.tier_budget_bytes = 0;  // no demotion
    options.page_elems = 64;
    options.background_compaction = false;
    auto opened = TieredStore::Open(f.dir, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    probe.AttachTier(opened.value().get());
    full_bytes = opened.value()->Stats().resident_bytes;
    ASSERT_GT(full_bytes, 0u);
    opened.value()->DetachAll();
  }
  fs::remove_all(f.dir);

  // Phase 2: run with a budget of ~10% of that footprint.
  AncIndex untiered(f.graph, f.config);
  AncIndex tiered(f.graph, f.config);

  TierOptions options;
  options.tier_budget_bytes = full_bytes / 10;
  options.page_elems = 64;
  options.background_compaction = false;  // no compaction in this test
  auto opened = TieredStore::Open(f.dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  TieredStore& tier_store = *opened.value();
  tiered.AttachTier(&tier_store);

  constexpr size_t kBatch = 32;
  for (size_t start = 0; start < f.stream.size(); start += kBatch) {
    const size_t count = std::min(kBatch, f.stream.size() - start);
    for (size_t i = start; i < start + count; ++i) {
      ASSERT_TRUE(untiered.Apply(f.stream[i]).ok());
      ASSERT_TRUE(tiered.Apply(f.stream[i]).ok());
    }
    // The writer-loop quiescent point.
    ASSERT_TRUE(tier_store.Maintain().ok());
    EXPECT_LE(tier_store.resident_bytes(), options.tier_budget_bytes)
        << "after batch at " << start;
  }

  const TierStats stats = tier_store.Stats();
  EXPECT_GT(stats.spills, 0u);
  EXPECT_GT(stats.spilled_pages, 0u);
  EXPECT_GT(stats.promotions, 0u) << "writes must promote cold pages";
  EXPECT_GT(stats.segments, 0u);
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes);
  EXPECT_LT(stats.pages_resident, stats.pages_total);
  EXPECT_TRUE(tier_store.VerifySegments().ok());

  // §V-B byte-identity: every query against the budgeted index matches
  // the untiered one exactly, cold pages answering straight from mmap.
  ExpectIndexStatesEqual(tiered, untiered);

  // Zoom trajectories (Problem 1) for a few nodes, all levels.
  for (NodeId node = 0; node < 10; ++node) {
    for (uint32_t level = 1; level <= untiered.num_levels(); ++level) {
      EXPECT_EQ(tiered.LocalCluster(node, level),
                untiered.LocalCluster(node, level))
          << "node " << node << " level " << level;
    }
  }

  const Status invariants = tiered.ValidateInvariants(/*deep=*/true);
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();

  // Detaching promotes everything back; the answers must not move.
  tier_store.DetachAll();
  ExpectIndexStatesEqual(tiered, untiered);
  fs::remove_all(f.dir);
}

TEST(TieredStoreTest, CompactionRewritesColdSideWithoutChangingAnswers) {
  TieredFixture f = TieredFixture::Make("anc_tier_compact", 160, 37, 8);

  AncIndex untiered(f.graph, f.config);
  AncIndex tiered(f.graph, f.config);

  TierOptions options;
  options.tier_budget_bytes = 1;  // spill aggressively: a segment per round
  options.page_elems = 64;
  options.background_compaction = false;  // compaction only via CompactNow
  auto opened = TieredStore::Open(f.dir, options);
  ASSERT_TRUE(opened.ok());
  TieredStore& tier_store = *opened.value();
  tiered.AttachTier(&tier_store);

  constexpr size_t kBatch = 16;
  for (size_t start = 0; start < f.stream.size(); start += kBatch) {
    const size_t count = std::min(kBatch, f.stream.size() - start);
    for (size_t i = start; i < start + count; ++i) {
      ASSERT_TRUE(untiered.Apply(f.stream[i]).ok());
      ASSERT_TRUE(tiered.Apply(f.stream[i]).ok());
    }
    ASSERT_TRUE(tier_store.Maintain().ok());
  }
  ASSERT_GT(tier_store.Stats().segments, 1u)
      << "test needs multiple segments to merge";

  const Status compacted = tier_store.CompactNow();
  ASSERT_TRUE(compacted.ok()) << compacted.ToString();
  const TierStats stats = tier_store.Stats();
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.segments_deleted, 0u);
  EXPECT_TRUE(tier_store.VerifySegments().ok());

  // Cold pages were repointed into the merged mapping: answers unchanged.
  ExpectIndexStatesEqual(tiered, untiered);

  // And the tier keeps working after the rewrite (fresh activations with
  // later timestamps — time is monotone).
  const double t_end = f.stream.back().time;
  for (size_t i = 0; i < 8; ++i) {
    const Activation next{f.stream[i].edge,
                          t_end + 0.01 * static_cast<double>(i + 1)};
    ASSERT_TRUE(untiered.Apply(next).ok());
    ASSERT_TRUE(tiered.Apply(next).ok());
  }
  ASSERT_TRUE(tier_store.Maintain().ok());
  ExpectIndexStatesEqual(tiered, untiered);

  tier_store.DetachAll();
  fs::remove_all(f.dir);
}

TEST(TieredStoreTest, CheckpointGcKeepsAFinishedBackgroundMerge) {
  TieredFixture f = TieredFixture::Make("anc_tier_gc_merge", 160, 43, 8);
  AncIndex tiered(f.graph, f.config);
  TierOptions options;
  options.tier_budget_bytes = 1;  // a segment per Maintain
  options.page_elems = 64;
  options.background_compaction = true;
  auto opened = TieredStore::Open(f.dir, options);
  ASSERT_TRUE(opened.ok());
  TieredStore& tier_store = *opened.value();
  check::TestHooks::SetCompactMinSegments(tier_store, 2);
  tiered.AttachTier(&tier_store);

  // Two spills: the second Maintain starts a background merge of both.
  const size_t half = f.stream.size() / 2;
  for (size_t i = 0; i < f.stream.size(); ++i) {
    ASSERT_TRUE(tiered.Apply(f.stream[i]).ok());
    if (i + 1 == half || i + 1 == f.stream.size()) {
      ASSERT_TRUE(tier_store.Maintain().ok());
    }
  }
  ASSERT_EQ(tier_store.Stats().segments, 2u);

  // Wait until the merge has sealed its output under its final name: a
  // segment file the tier manifest does not list yet.
  const auto sealed_merge = [&] {
    Result<tier::TierManifest> manifest = tier::ReadTierManifest(
        tier_store.dir());
    if (!manifest.ok()) return false;
    const std::set<std::string> listed(manifest->segments.begin(),
                                       manifest->segments.end());
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(tier_store.dir(), ec)) {
      uint64_t id = 0;
      const std::string name = entry.path().filename().string();
      if (tier::ParseSegmentFileName(name, &id) && listed.count(name) == 0) {
        return true;
      }
    }
    return false;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!sealed_merge() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(sealed_merge()) << "background merge never sealed";

  // A checkpoint install between the seal and the next Maintain sweeps
  // garbage, but must keep the merge output the install below needs.
  tier_store.OnCheckpointInstalled();
  // The merge installs at the first Maintain after the worker reports it.
  while (tier_store.Stats().compactions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    const Status maintained = tier_store.Maintain();
    ASSERT_TRUE(maintained.ok()) << maintained.ToString();
    std::this_thread::yield();
  }
  EXPECT_EQ(tier_store.Stats().compactions, 1u);
  EXPECT_EQ(tier_store.Stats().segments, 1u);
  EXPECT_TRUE(tier_store.VerifySegments().ok());
  tier_store.DetachAll();
  fs::remove_all(f.dir);
}

// --- Checkpoint heads: page tables referencing segments ------------------

TEST(TieredHeadTest, HeadRoundTripsThroughSegmentReferences) {
  TieredFixture f = TieredFixture::Make("anc_tier_head", 140, 41, 6);
  f.config.pyramid.num_threads = 1;  // not the default; see below

  AncIndex live(f.graph, f.config);
  TierOptions options;
  options.tier_budget_bytes = 1;
  options.page_elems = 64;
  options.background_compaction = false;
  auto opened = TieredStore::Open(f.dir, options);
  ASSERT_TRUE(opened.ok());
  TieredStore& tier_store = *opened.value();
  live.AttachTier(&tier_store);

  for (const Activation& activation : f.stream) {
    ASSERT_TRUE(live.Apply(activation).ok());
  }
  ASSERT_TRUE(tier_store.Maintain().ok());

  // The head sits next to the tier directory, where LoadIndex resolves
  // its page references.
  const std::string head_path = f.dir + "/head.idx";
  ASSERT_TRUE(tier_store.WriteHead(live, head_path).ok());
  const std::string full_path = f.dir + "/full.idx";
  ASSERT_TRUE(SaveIndex(live, full_path).ok());
  // References replace the per-edge payload, so the head is the smaller
  // file of the two.
  EXPECT_LT(fs::file_size(head_path), fs::file_size(full_path))
      << "a budgeted head should reference segments";

  auto loaded = LoadIndex(head_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIndexStatesEqual(*loaded->index, live);
  // The persisted worker count is discarded: heads restore on the default.
  EXPECT_EQ(loaded->index->config().pyramid.num_threads,
            PyramidParams{}.num_threads);

  // The all-inline checkpoint of the same state loads to the same bytes.
  auto full = LoadIndex(full_path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ExpectIndexStatesEqual(*loaded->index, *full->index);
  EXPECT_EQ(loaded->index->index().ExportVoteCounts(),
            full->index->index().ExportVoteCounts());

  tier_store.DetachAll();
  fs::remove_all(f.dir);
}

TEST(TieredHeadTest, DamagedOrMissingReferencedSegmentFailsLoad) {
  TieredFixture f = TieredFixture::Make("anc_tier_head_damage", 140, 43, 6);

  AncIndex live(f.graph, f.config);
  TierOptions options;
  options.tier_budget_bytes = 0;  // no demotion: WriteHead seals one segment
  options.page_elems = 64;
  options.background_compaction = false;
  auto opened = TieredStore::Open(f.dir, options);
  ASSERT_TRUE(opened.ok());
  TieredStore& tier_store = *opened.value();
  live.AttachTier(&tier_store);
  for (const Activation& activation : f.stream) {
    ASSERT_TRUE(live.Apply(activation).ok());
  }
  const std::string head_path = f.dir + "/head.idx";
  ASSERT_TRUE(tier_store.WriteHead(live, head_path).ok());
  // Promote the cold pages back to RAM before the segment is damaged.
  tier_store.DetachAll();

  // The one segment WriteHead sealed holds every page the head references.
  std::vector<std::string> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(tier_store.dir(), ec)) {
    uint64_t id = 0;
    if (tier::ParseSegmentFileName(entry.path().filename().string(), &id)) {
      segments.push_back(entry.path().string());
    }
  }
  ASSERT_EQ(segments.size(), 1u);
  ASSERT_TRUE(LoadIndex(head_path).ok());

  // One flipped byte in the first referenced page (right after the
  // segment header): the per-page CRC refuses the head.
  const int64_t page_byte = static_cast<int64_t>(tier::kSegmentHeaderBytes) + 1;
  ASSERT_TRUE(TestHooks::CorruptByte(segments[0], page_byte).ok());
  Result<LoadedIndex> corrupt = LoadIndex(head_path);
  ASSERT_FALSE(corrupt.ok()) << "a damaged page loaded silently";
  EXPECT_EQ(corrupt.status().code(), StatusCode::kInvalidArgument)
      << corrupt.status().ToString();

  // Undo the flip: the head loads again, byte-identical to the live state.
  ASSERT_TRUE(TestHooks::CorruptByte(segments[0], page_byte).ok());
  Result<LoadedIndex> restored = LoadIndex(head_path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectIndexStatesEqual(*restored->index, live);

  // A head whose segment is gone cannot load either.
  fs::remove(segments[0]);
  EXPECT_FALSE(LoadIndex(head_path).ok());
  fs::remove_all(f.dir);
}

// --- Tiered serving + recovery --------------------------------------------

/// Drives `stream` against a tiered durable stack the way the serve writer
/// does — append, apply, Maintain each batch, compact the cold side and
/// checkpoint every 3 batches — stopping at the first failure (the
/// simulated crash).
struct TierDriveOutcome {
  Status failure;
  uint64_t applied = 0;
};

TierDriveOutcome DriveTiered(DurableStore* store, TieredStore* tier,
                             AncIndex* index, const ActivationStream& stream) {
  constexpr size_t kBatch = 16;
  TierDriveOutcome out;
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
    status = tier->Maintain();
    if (status.ok() && batch_index % 3 == 1) status = tier->CompactNow();
    if (!status.ok()) {
      out.failure = status;
      break;
    }
    if (batch_index % 3 == 2) {
      status = store->WriteCheckpoint(*index, Mark{out.applied, last_time});
      if (!status.ok()) {
        out.failure = status;
        break;
      }
      tier->OnCheckpointInstalled();
    }
  }
  return out;
}

TEST(TierRecoveryTest, TieredStackRecoversByteIdenticalToUntieredReplay) {
  TieredFixture f = TieredFixture::Make("anc_tier_recover", 160, 43, 8);

  {
    AncIndex live(f.graph, f.config);
    TierOptions tier_options;
    tier_options.tier_budget_bytes = 4096;
    tier_options.page_elems = 64;
    tier_options.background_compaction = false;
    auto tier_opened = TieredStore::Open(f.dir, tier_options);
    ASSERT_TRUE(tier_opened.ok());
    TieredStore& tier_store = *tier_opened.value();
    live.AttachTier(&tier_store);

    StoreOptions store_options;
    store_options.checkpoint_writer = tier_store.CheckpointWriter();
    auto opened = DurableStore::Open(f.dir, live, Mark{0, 0.0},
                                     store_options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    tier_store.OnCheckpointInstalled();  // Open's base checkpoint

    const TierDriveOutcome outcome =
        DriveTiered(opened.value().get(), &tier_store, &live, f.stream);
    ASSERT_TRUE(outcome.failure.ok()) << outcome.failure.ToString();
    ASSERT_EQ(outcome.applied, f.stream.size());
    opened.value().reset();  // clean close
    tier_store.DetachAll();
  }

  Result<RecoveredStore> recovered = Recover(f.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  RecoveredStore& rec = recovered.value();
  EXPECT_EQ(rec.watermark.seq, f.stream.size());

  std::unique_ptr<AncIndex> expected =
      FreshPrefixIndex(f.graph, f.config, f.stream, rec.watermark.seq);
  ExpectIndexStatesEqual(*rec.index, *expected);
  const Status invariants = rec.index->ValidateInvariants(/*deep=*/true);
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  fs::remove_all(f.dir);
}

TEST(TierRecoveryTest, StoreRecoverReturnsTheLiveTieredState) {
  TieredFixture f = TieredFixture::Make("anc_tier_recover_live", 160, 45, 8);

  AncIndex live(f.graph, f.config);
  TierOptions tier_options;
  tier_options.tier_budget_bytes = 2048;
  tier_options.page_elems = 64;
  tier_options.background_compaction = false;
  auto tier_opened = TieredStore::Open(f.dir, tier_options);
  ASSERT_TRUE(tier_opened.ok());
  TieredStore& tier_store = *tier_opened.value();
  live.AttachTier(&tier_store);

  StoreOptions store_options;
  store_options.checkpoint_writer = tier_store.CheckpointWriter();
  auto opened = DurableStore::Open(f.dir, live, Mark{0, 0.0}, store_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  tier_store.OnCheckpointInstalled();
  const TierDriveOutcome outcome =
      DriveTiered(opened.value().get(), &tier_store, &live, f.stream);
  ASSERT_TRUE(outcome.failure.ok()) << outcome.failure.ToString();
  opened.value().reset();  // clean close: every appended batch is durable

  // The one recovery entry point loads the tiered head and replays the
  // tail onto exactly the state the live (still tiered) index holds.
  Result<RecoveredStore> recovered = Recover(f.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  RecoveredStore& rec = recovered.value();
  EXPECT_GT(rec.checkpoint_seq, 0u) << "recovery skipped the tiered heads";
  EXPECT_EQ(rec.watermark.seq, f.stream.size());
  ExpectIndexStatesEqual(*rec.index, live);
  EXPECT_EQ(rec.index->index().ExportVoteCounts(),
            live.index().ExportVoteCounts());
  const Status invariants = rec.index->ValidateInvariants(/*deep=*/true);
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();

  tier_store.DetachAll();
  fs::remove_all(f.dir);
}

TEST(TierCrashMatrixTest, EverySeamRecoversByteIdenticalUnderReplay) {
  TieredFixture f = TieredFixture::Make("anc_tier_crash_src", 160, 47, 8);

  const CrashPoint kPoints[] = {CrashPoint::kMidSegmentWrite,
                                CrashPoint::kPreTierManifestSwap,
                                CrashPoint::kMidCompaction};
  for (const CrashPoint point : kPoints) {
    for (const uint32_t skip : {0u, 1u, 2u}) {
      SCOPED_TRACE(std::string(CrashPointName(point)) + " skip=" +
                   std::to_string(skip));
      const std::string dir =
          TempDir(std::string("anc_tier_crash_") + CrashPointName(point) +
                  "_" + std::to_string(skip));
      {
        AncIndex live(f.graph, f.config);
        TierOptions tier_options;
        tier_options.tier_budget_bytes = 4096;
        tier_options.page_elems = 64;
        tier_options.background_compaction = false;
        auto tier_opened = TieredStore::Open(dir, tier_options);
        ASSERT_TRUE(tier_opened.ok());
        TieredStore& tier_store = *tier_opened.value();
        live.AttachTier(&tier_store);

        StoreOptions store_options;
        store_options.checkpoint_writer = tier_store.CheckpointWriter();
        auto opened = DurableStore::Open(dir, live, Mark{0, 0.0},
                                         store_options);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        tier_store.OnCheckpointInstalled();

        DisarmGuard guard;
        TestHooks::ArmCrash(point, skip);
        const TierDriveOutcome outcome =
            DriveTiered(opened.value().get(), &tier_store, &live, f.stream);
        TestHooks::Disarm();
        // The seam may or may not have fired within the stream (higher
        // skips can outlast it); both outcomes must recover.
        (void)outcome;
        opened.value().reset();  // simulated death: disk state freezes
        tier_store.DetachAll();
      }

      Result<RecoveredStore> recovered = Recover(dir);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      RecoveredStore& rec = recovered.value();
      ASSERT_LE(rec.watermark.seq, f.stream.size());
      EXPECT_EQ(rec.skipped_applies, 0u);

      std::unique_ptr<AncIndex> expected =
          FreshPrefixIndex(f.graph, f.config, f.stream, rec.watermark.seq);
      ExpectIndexStatesEqual(*rec.index, *expected);
      const Status invariants =
          rec.index->ValidateInvariants(/*deep=*/true);
      EXPECT_TRUE(invariants.ok()) << invariants.ToString();

      // Reopening the tier sweeps the wreckage: no torn temp files
      // survive under tier/, and every surviving segment verifies.
      TierOptions reopen_options;
      reopen_options.background_compaction = false;
      auto reopened = TieredStore::Open(dir, reopen_options);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      std::error_code ec;
      for (const auto& entry : fs::directory_iterator(dir + "/tier", ec)) {
        const std::string name = entry.path().filename().string();
        EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
        EXPECT_EQ(name.find(".swap"), std::string::npos) << name;
      }
      reopened.value().reset();
      fs::remove_all(dir);
    }
  }
}

TEST(TierCrashMatrixTest, MidCompactionCrashLeavesAnswersIntact) {
  TieredFixture f = TieredFixture::Make("anc_tier_crash_compact", 160, 53, 8);

  AncIndex untiered(f.graph, f.config);
  AncIndex tiered(f.graph, f.config);

  TierOptions options;
  options.tier_budget_bytes = 1;
  options.page_elems = 64;
  options.background_compaction = false;
  auto opened = TieredStore::Open(f.dir, options);
  ASSERT_TRUE(opened.ok());
  TieredStore& tier_store = *opened.value();
  tiered.AttachTier(&tier_store);

  constexpr size_t kBatch = 16;
  for (size_t start = 0; start < f.stream.size(); start += kBatch) {
    const size_t count = std::min(kBatch, f.stream.size() - start);
    for (size_t i = start; i < start + count; ++i) {
      ASSERT_TRUE(untiered.Apply(f.stream[i]).ok());
      ASSERT_TRUE(tiered.Apply(f.stream[i]).ok());
    }
    ASSERT_TRUE(tier_store.Maintain().ok());
  }
  const uint64_t segments_before = tier_store.Stats().segments;
  ASSERT_GT(segments_before, 1u);

  // The compactor dies mid-merge: inputs stay live, the half-written
  // output is a temp file, and not a single answer changes.
  DisarmGuard guard;
  TestHooks::ArmCrash(CrashPoint::kMidCompaction, 0);
  EXPECT_FALSE(tier_store.CompactNow().ok());
  TestHooks::Disarm();
  EXPECT_EQ(tier_store.Stats().segments, segments_before);
  EXPECT_TRUE(tier_store.VerifySegments().ok());
  ExpectIndexStatesEqual(tiered, untiered);

  // Retry succeeds and still changes nothing.
  ASSERT_TRUE(tier_store.CompactNow().ok());
  EXPECT_EQ(tier_store.Stats().segments, 1u);
  ExpectIndexStatesEqual(tiered, untiered);

  tier_store.DetachAll();
  fs::remove_all(f.dir);
}

TEST(TierRecoveryTest, SweepDeletesStrayFilesButKeepsReferencedSegments) {
  TieredFixture f = TieredFixture::Make("anc_tier_sweep", 140, 59, 6);

  {
    AncIndex live(f.graph, f.config);
    TierOptions tier_options;
    tier_options.tier_budget_bytes = 4096;
    tier_options.page_elems = 64;
    tier_options.background_compaction = false;
    auto tier_opened = TieredStore::Open(f.dir, tier_options);
    ASSERT_TRUE(tier_opened.ok());
    TieredStore& tier_store = *tier_opened.value();
    live.AttachTier(&tier_store);

    StoreOptions store_options;
    store_options.checkpoint_writer = tier_store.CheckpointWriter();
    auto opened = DurableStore::Open(f.dir, live, Mark{0, 0.0},
                                     store_options);
    ASSERT_TRUE(opened.ok());
    tier_store.OnCheckpointInstalled();
    const TierDriveOutcome outcome =
        DriveTiered(opened.value().get(), &tier_store, &live, f.stream);
    ASSERT_TRUE(outcome.failure.ok()) << outcome.failure.ToString();
    opened.value().reset();
    tier_store.DetachAll();
  }

  // Plant wreckage a crash could leave: an unreferenced sealed segment,
  // a truncated segment temp file and a manifest swap temp.
  const std::string tier_dir = f.dir + "/tier";
  {
    const std::string stray = tier_dir + "/" + tier::SegmentFileName(999999);
    const std::vector<double> page = PagePayload(64, 9.0);
    auto writer = SegmentWriter::Create(stray);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)
                    ->AddPage(1, sizeof(double), 0, page.data(),
                              static_cast<uint32_t>(page.size() *
                                                    sizeof(double)))
                    .ok());
    ASSERT_TRUE((*writer)->Finish().ok());
    writer->reset();
    std::ofstream(tier_dir + "/seg-000000888888.tseg.tmp") << "torn";
    std::ofstream(tier_dir + "/TIERMANIFEST.swap") << "torn";
  }

  const auto list_tier_dir = [&tier_dir] {
    std::set<std::string> names;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(tier_dir, ec)) {
      names.insert(entry.path().filename().string());
    }
    return names;
  };
  const auto segments_of = [](const std::set<std::string>& names) {
    std::set<std::string> segments;
    for (const std::string& name : names) {
      uint64_t id = 0;
      if (tier::ParseSegmentFileName(name, &id)) segments.insert(name);
    }
    return segments;
  };
  const std::set<std::string> segments_before = segments_of(list_tier_dir());

  Result<RecoveredStore> recovered = Recover(f.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  RecoveredStore& rec = recovered.value();
  std::unique_ptr<AncIndex> expected =
      FreshPrefixIndex(f.graph, f.config, f.stream, rec.watermark.seq);
  ExpectIndexStatesEqual(*rec.index, *expected);

  // Reopening the tier deletes the torn temp files but no segment: the
  // installed checkpoint may still reference any of them.
  TierOptions tier_options;
  tier_options.page_elems = 64;
  tier_options.background_compaction = false;
  auto tier_opened = TieredStore::Open(f.dir, tier_options);
  ASSERT_TRUE(tier_opened.ok()) << tier_opened.status().ToString();
  TieredStore& tier_store = *tier_opened.value();
  std::set<std::string> names = list_tier_dir();
  EXPECT_EQ(names.count("seg-000000888888.tseg.tmp"), 0u);
  EXPECT_EQ(names.count("TIERMANIFEST.swap"), 0u);
  EXPECT_EQ(segments_of(names), segments_before);
  // The referenced segments are intact: recovery still lands on the same
  // checkpoint and state.
  {
    Result<RecoveredStore> again = Recover(f.dir);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.value().checkpoint_seq, rec.checkpoint_seq);
    ExpectIndexStatesEqual(*again.value().index, *expected);
  }

  // Continue the store on the recovered index: installing its first head
  // garbage-collects every segment that head does not reference, the
  // planted stray included.
  rec.index->AttachTier(&tier_store);
  StoreOptions store_options;
  store_options.checkpoint_writer = tier_store.CheckpointWriter();
  auto opened =
      DurableStore::Open(f.dir, *rec.index, rec.watermark, store_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  tier_store.OnCheckpointInstalled();
  names = list_tier_dir();
  EXPECT_EQ(names.count(tier::SegmentFileName(999999)), 0u)
      << "unreferenced segment should be swept";
  for (const std::string& name : segments_before) {
    EXPECT_EQ(names.count(name), 0u)
        << name << " is not referenced by the new head";
  }
  opened.value().reset();
  tier_store.DetachAll();

  Result<RecoveredStore> continued = Recover(f.dir);
  ASSERT_TRUE(continued.ok()) << continued.status().ToString();
  EXPECT_EQ(continued.value().watermark.seq, rec.watermark.seq);
  ExpectIndexStatesEqual(*continued.value().index, *expected);
  fs::remove_all(f.dir);
}

/// Durable, tiered shard options: one TieredStore per shard under
/// <dir>/shard-<i>/tier, with small pages and an 8 KiB resident budget so a
/// short stream already spills (StartCompactingAt4 makes it compact too).
ShardedOptions TieredShardOptions(const std::string& dir, uint32_t shards) {
  ShardedOptions options;
  options.partition.num_shards = shards;
  options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = dir;
  TierOptions tier_options;
  tier_options.tier_budget_bytes = 8192;
  tier_options.page_elems = 64;
  tier_options.background_compaction = true;  // exercise the worker thread
  options.tier = tier_options;
  return options;
}

/// Starts a background compaction once four segments accumulate on each
/// shard's tier, so a short stream also merges. Call right after Start().
void StartCompactingAt4(ShardedServer& server) {
  for (uint32_t s = 0; s < server.num_shards(); ++s) {
    check::TestHooks::SetCompactMinSegments(*server.shard_tier(s), 4);
  }
}

TEST(TierServeTest, ServerDrivesTierAtQuiescentPoints) {
  TieredFixture f = TieredFixture::Make("anc_tier_serve", 160, 61, 8);
  const ShardedOptions options = TieredShardOptions(f.dir, 1);

  // A tier without durability has no checkpoints to root its segments.
  ShardedOptions volatile_options = options;
  volatile_options.serve.durability = serve::DurabilityPolicy::kNone;
  auto volatile_server =
      ShardedServer::Create(f.graph, f.config, volatile_options);
  ASSERT_TRUE(volatile_server.ok());
  EXPECT_EQ(volatile_server.value()->Start().code(),
            StatusCode::kInvalidArgument);

  {
    auto created = ShardedServer::Create(f.graph, f.config, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ShardedServer& server = *created.value();
    ASSERT_TRUE(server.Start().ok());
    StartCompactingAt4(server);
    // A checkpoint every 64 activations, each one a tier spill point.
    constexpr size_t kCheckpointEvery = 64;
    uint64_t last_seq = 0;
    for (size_t start = 0; start < f.stream.size();
         start += kCheckpointEvery) {
      const size_t end = std::min(start + kCheckpointEvery, f.stream.size());
      const ActivationStream chunk(f.stream.begin() + start,
                                   f.stream.begin() + end);
      ASSERT_TRUE(server.SubmitStream(chunk, &last_seq).ok());
      ASSERT_TRUE(server.RequestCheckpointAll().ok());
    }
    ASSERT_EQ(last_seq, f.stream.size());
    ASSERT_TRUE(server.FlushDurable(std::chrono::milliseconds(10000)).ok());
    server.Stop();
    EXPECT_TRUE(server.writer_status().ok())
        << server.writer_status().ToString();
    EXPECT_TRUE(server.store_status().ok())
        << server.store_status().ToString();

    const TieredStore* tier_store = server.shard_tier(0);
    ASSERT_NE(tier_store, nullptr);
    const TierStats stats = tier_store->Stats();
    EXPECT_GT(stats.spills, 0u) << "the writer loop must call Maintain";
    EXPECT_LE(tier_store->resident_bytes(),
              options.tier->tier_budget_bytes);
  }

  auto recovered = ShardedServer::RecoverAll(f.dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->recovery_info().size(), 1u);
  EXPECT_EQ(recovered.value()->recovery_info()[0].watermark.seq,
            f.stream.size());
  std::unique_ptr<AncIndex> expected =
      FreshPrefixIndex(f.graph, f.config, f.stream, f.stream.size());
  ExpectIndexStatesEqual(recovered.value()->shard_index(0), *expected);
  fs::remove_all(f.dir);
}

TEST(TierServeTest, TieredShardsRecoverMergedAnswersByteIdentical) {
  TieredFixture f = TieredFixture::Make("anc_tier_serve_k2", 160, 67, 8);
  const ShardedOptions options = TieredShardOptions(f.dir, 2);
  const Graph& g = f.graph;

  // Merged answers of the stopped server: every level's clustering and a
  // sample of local clusters.
  std::vector<Clustering> clusters;
  std::vector<std::vector<NodeId>> locals;
  const auto capture = [&](const ShardedServer& server,
                           std::vector<Clustering>* all_clusters,
                           std::vector<std::vector<NodeId>>* all_locals) {
    const uint32_t num_levels = server.View().num_levels();
    for (uint32_t level = 1; level <= num_levels; ++level) {
      Result<Clustering> c = server.Clusters(level);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      all_clusters->push_back(std::move(c.value()));
      for (NodeId v = 0; v < g.NumNodes(); v += 7) {
        Result<std::vector<NodeId>> local = server.LocalCluster(v, level);
        ASSERT_TRUE(local.ok()) << local.status().ToString();
        all_locals->push_back(std::move(local.value()));
      }
    }
  };
  {
    auto created = ShardedServer::Create(g, f.config, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ShardedServer& server = *created.value();
    ASSERT_TRUE(server.Start().ok());
    StartCompactingAt4(server);
    ASSERT_TRUE(server.SubmitStream(f.stream).ok());
    ASSERT_TRUE(server.FlushDurable(std::chrono::milliseconds(10000)).ok());
    ASSERT_TRUE(
        server.RequestCheckpointAll(std::chrono::milliseconds(10000)).ok());
    ASSERT_TRUE(server.Flush(std::chrono::milliseconds(10000)).ok());
    capture(server, &clusters, &locals);
    server.Stop();
    EXPECT_TRUE(server.store_status().ok())
        << server.store_status().ToString();
    for (uint32_t s = 0; s < server.num_shards(); ++s) {
      const TieredStore* tier_store = server.shard_tier(s);
      ASSERT_NE(tier_store, nullptr);
      EXPECT_GT(tier_store->Stats().spills, 0u) << "shard " << s;
      EXPECT_LE(tier_store->resident_bytes(),
                options.tier->tier_budget_bytes)
          << "shard " << s;
    }
  }

  auto recovered = ShardedServer::RecoverAll(f.dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ShardedServer& server = *recovered.value();
  ASSERT_TRUE(server.Start().ok());
  std::vector<Clustering> recovered_clusters;
  std::vector<std::vector<NodeId>> recovered_locals;
  capture(server, &recovered_clusters, &recovered_locals);
  server.Stop();

  ASSERT_EQ(recovered_clusters.size(), clusters.size());
  for (size_t i = 0; i < clusters.size(); ++i) {
    EXPECT_EQ(recovered_clusters[i].num_clusters, clusters[i].num_clusters)
        << "level " << i + 1;
    EXPECT_EQ(recovered_clusters[i].labels, clusters[i].labels)
        << "level " << i + 1;
  }
  EXPECT_EQ(recovered_locals, locals);
  fs::remove_all(f.dir);
}

}  // namespace
}  // namespace anc
