#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include <gtest/gtest.h>

#include "activation/stream_generators.h"
#include "core/anc.h"
#include "core/serialization.h"
#include "pyramid/pyramid_index.h"
#include "datasets/synthetic.h"
#include "util/rng.h"

namespace anc {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
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

TEST(SerializationTest, RoundTripPreservesEverything) {
  Rng rng(1);
  Graph g = BarabasiAlbert(150, 3, rng);
  AncIndex original(g, TestConfig());
  ActivationStream stream = UniformStream(g, 10, 0.03, rng);
  ASSERT_TRUE(original.ApplyStream(stream).ok());

  const std::string path = TempPath("anc_roundtrip.idx");
  ASSERT_TRUE(SaveIndex(original, path).ok());
  Result<LoadedIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  AncIndex& restored = *loaded.value().index;

  // Graph topology identical.
  ASSERT_EQ(restored.graph().NumNodes(), g.NumNodes());
  ASSERT_EQ(restored.graph().NumEdges(), g.NumEdges());

  // Configuration identical.
  EXPECT_EQ(restored.config().similarity.lambda, 0.15);
  EXPECT_EQ(restored.config().mode, AncMode::kOnlineReinforce);
  EXPECT_EQ(restored.config().reinforce_interval, 4u);

  // Similarity / activeness state identical.
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    ASSERT_DOUBLE_EQ(restored.engine().Similarity(e),
                     original.engine().Similarity(e));
    ASSERT_DOUBLE_EQ(restored.engine().activeness().Anchored(e),
                     original.engine().activeness().Anchored(e));
    ASSERT_DOUBLE_EQ(restored.engine().Sigma(e), original.engine().Sigma(e));
  }

  // Pyramid structure identical: same seeds, same distances, same votes.
  for (uint32_t p = 0; p < 3; ++p) {
    for (uint32_t l = 1; l <= original.num_levels(); ++l) {
      ASSERT_EQ(restored.index().partition(p, l).seeds(),
                original.index().partition(p, l).seeds());
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        ASSERT_DOUBLE_EQ(restored.index().partition(p, l).Dist(v),
                         original.index().partition(p, l).Dist(v));
      }
    }
  }
  for (uint32_t l = 1; l <= original.num_levels(); ++l) {
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      ASSERT_EQ(restored.index().VotesOf(e, l), original.index().VotesOf(e, l));
    }
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, RestoredIndexContinuesTheStream) {
  // Save mid-stream, continue the identical suffix on both copies and
  // verify the clusterings agree.
  Rng rng(2);
  Graph g = BarabasiAlbert(120, 3, rng);
  AncIndex original(g, TestConfig());
  ActivationStream stream = UniformStream(g, 20, 0.02, rng);
  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(original.Apply(stream[i]).ok());
  }

  const std::string path = TempPath("anc_continue.idx");
  ASSERT_TRUE(SaveIndex(original, path).ok());
  Result<LoadedIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok());
  AncIndex& restored = *loaded.value().index;

  for (size_t i = half; i < stream.size(); ++i) {
    ASSERT_TRUE(original.Apply(stream[i]).ok());
    ASSERT_TRUE(restored.Apply(stream[i]).ok());
  }
  for (uint32_t l = 1; l <= original.num_levels(); ++l) {
    Clustering a = original.Clusters(l);
    Clustering b = restored.Clusters(l);
    ASSERT_EQ(a.labels, b.labels) << "level " << l;
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, CheckpointedIndexReplaysToTheSameBits) {
  // The live engine accumulates A(v) and the sigma numerators by += delta,
  // which a summation from the activeness matches only to a few ULPs, and
  // reinforcement grows such a gap. So a checkpoint taken anywhere in the
  // stream, loaded and fed the rest of it, must land on exactly the bits
  // of the index that never stopped. A short rescale interval makes the
  // interval rescales fall between the split points.
  Rng rng(7);
  Graph g = BarabasiAlbert(200, 3, rng);
  AncConfig config = TestConfig();
  config.similarity.rescale_interval = 97;
  const ActivationStream stream = UniformStream(g, 12, 0.03, rng);
  AncIndex uninterrupted(g, config);
  ASSERT_TRUE(uninterrupted.ApplyStream(stream).ok());
  const SimilarityEngine& want = uninterrupted.engine();

  const std::string path = TempPath("anc_replay_bits.idx");
  for (const size_t split : {stream.size() / 7, stream.size() / 3,
                             stream.size() / 2, stream.size() - 5}) {
    AncIndex prefix(g, config);
    const std::span<const Activation> all(stream);
    ASSERT_TRUE(prefix.ApplyBatch(all.first(split)).first_error.ok());
    ASSERT_TRUE(SaveIndex(prefix, path).ok());
    Result<LoadedIndex> loaded = LoadIndex(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    AncIndex& restored = *loaded.value().index;
    ASSERT_TRUE(restored.ApplyBatch(all.subspan(split)).first_error.ok());

    const SimilarityEngine& got = restored.engine();
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      ASSERT_EQ(got.Similarity(e), want.Similarity(e))
          << "split " << split << " edge " << e;
      ASSERT_EQ(got.activeness().Anchored(e), want.activeness().Anchored(e))
          << "split " << split << " edge " << e;
      ASSERT_EQ(got.SigmaNumerator(e), want.SigmaNumerator(e))
          << "split " << split << " edge " << e;
    }
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(got.NodeActivity(v), want.NodeActivity(v))
          << "split " << split << " node " << v;
    }
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, RestoreTakesTheDefaultThreadCount) {
  // The worker count is a runtime choice: a checkpoint written by a
  // one-thread index restores onto this build's default, and the
  // level-parallel batch path continues the stream exactly.
  Rng rng(3);
  Graph g = BarabasiAlbert(120, 3, rng);
  AncConfig config = TestConfig();
  config.pyramid.num_threads = 1;
  ASSERT_NE(config.pyramid.num_threads, PyramidParams{}.num_threads);
  AncIndex original(g, config);
  ActivationStream stream = UniformStream(g, 20, 0.02, rng);
  const size_t half = stream.size() / 2;
  const std::span<const Activation> all(stream);
  ASSERT_EQ(original.ApplyBatch(all.first(half)).refused, 0u);

  const std::string path = TempPath("anc_threads.idx");
  ASSERT_TRUE(SaveIndex(original, path).ok());
  Result<LoadedIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  AncIndex& restored = *loaded.value().index;
  EXPECT_EQ(restored.config().pyramid.num_threads,
            PyramidParams{}.num_threads);
  EXPECT_EQ(restored.index().params().num_threads,
            PyramidParams{}.num_threads);

  ASSERT_EQ(original.ApplyBatch(all.subspan(half)).refused, 0u);
  ASSERT_EQ(restored.ApplyBatch(all.subspan(half)).refused, 0u);
  EXPECT_EQ(restored.index().ExportVoteCounts(),
            original.index().ExportVoteCounts());
  std::remove(path.c_str());
}

TEST(SerializationTest, FromTreeStatesRejectsMalformedState) {
  Rng rng(9);
  Graph g = BarabasiAlbert(40, 2, rng);
  std::vector<double> w(g.NumEdges(), 1.0);
  PyramidParams params;
  params.num_pyramids = 2;

  // Wrong slot count.
  EXPECT_EQ(PyramidIndex::FromTreeStates(g, w, params, {}), nullptr);

  // Right count but truncated arrays.
  PyramidIndex good(g, w, params);
  std::vector<VoronoiPartition::TreeState> trees = good.ExportTreeStates();
  trees[0].dist.pop_back();
  EXPECT_EQ(PyramidIndex::FromTreeStates(g, w, params, std::move(trees)),
            nullptr);

  // Out-of-range parent edge.
  trees = good.ExportTreeStates();
  trees[1].parent_edge[0] = g.NumEdges() + 5;
  EXPECT_EQ(PyramidIndex::FromTreeStates(g, w, params, std::move(trees)),
            nullptr);

  // A parent edge that does not touch its node.
  trees = good.ExportTreeStates();
  EdgeId elsewhere = 0;
  while (g.Endpoints(elsewhere).first == 0 ||
         g.Endpoints(elsewhere).second == 0) {
    ++elsewhere;
  }
  trees[1].parent_edge[0] = elsewhere;
  EXPECT_EQ(PyramidIndex::FromTreeStates(g, w, params, std::move(trees)),
            nullptr);

  // Pristine export restores fine.
  trees = good.ExportTreeStates();
  auto restored =
      PyramidIndex::FromTreeStates(g, w, params, std::move(trees));
  ASSERT_NE(restored, nullptr);
  for (uint32_t l = 1; l <= good.num_levels(); ++l) {
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      EXPECT_EQ(restored->VotesOf(e, l), good.VotesOf(e, l));
    }
  }
}

TEST(SerializationTest, MissingFileFails) {
  Result<LoadedIndex> r = LoadIndex("/nonexistent/path.idx");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(SerializationTest, GarbageFileRejected) {
  const std::string path = TempPath("anc_garbage.idx");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not an index";
  }
  Result<LoadedIndex> r = LoadIndex(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, TruncatedFileRejected) {
  Rng rng(3);
  Graph g = BarabasiAlbert(60, 2, rng);
  AncIndex index(g, TestConfig());
  const std::string path = TempPath("anc_trunc.idx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  // Truncate to 60% and expect a clean rejection, not a crash.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size * 6 / 10);
  Result<LoadedIndex> r = LoadIndex(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, BitFlipAnywhereInPayloadRejected) {
  Rng rng(4);
  Graph g = BarabasiAlbert(60, 2, rng);
  AncIndex index(g, TestConfig());
  ActivationStream stream = UniformStream(g, 5, 0.05, rng);
  ASSERT_TRUE(index.ApplyStream(stream).ok());
  const std::string path = TempPath("anc_bitflip.idx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  const auto size = std::filesystem::file_size(path);
  const size_t header = 8 + 4 + 8 + 4;  // magic, version, size, crc

  // Flip one byte at several payload offsets; the checksum must catch
  // every one of them with InvalidArgument (never a crash or a silently
  // different index).
  for (const double frac : {0.0, 0.25, 0.5, 0.9}) {
    const auto offset =
        header + static_cast<size_t>(frac * static_cast<double>(size - header - 1));
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
    file.close();

    Result<LoadedIndex> r = LoadIndex(path);
    ASSERT_FALSE(r.ok()) << "bit flip at offset " << offset << " not caught";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

    // Flip back so the next iteration starts from a clean file.
    std::fstream undo(path, std::ios::binary | std::ios::in | std::ios::out);
    byte = static_cast<char>(byte ^ 0x10);
    undo.seekp(static_cast<std::streamoff>(offset));
    undo.write(&byte, 1);
  }
  // Pristine file still loads.
  EXPECT_TRUE(LoadIndex(path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, VersionSkewRejected) {
  Rng rng(5);
  Graph g = BarabasiAlbert(40, 2, rng);
  AncIndex index(g, TestConfig());
  const std::string path = TempPath("anc_skew.idx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  const auto put_magic = [&path](const char (&magic)[9]) {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.write(magic, 8);
  };

  // Files from the older full-snapshot generations (magic "ANCIDX02" and
  // "ANCIDX01") must be rejected as version skew, not misparsed.
  for (const char* old_magic : {"ANCIDX02", "ANCIDX01"}) {
    char magic[9] = {};
    std::memcpy(magic, old_magic, 8);
    put_magic(magic);
    Result<LoadedIndex> old_gen = LoadIndex(path);
    ASSERT_FALSE(old_gen.ok()) << old_magic;
    EXPECT_EQ(old_gen.status().code(), StatusCode::kInvalidArgument)
        << old_magic;
  }
  put_magic("ANCTHD01");
  ASSERT_TRUE(LoadIndex(path).ok());

  // Matching magic but a version field this build does not know (it reads
  // 1 to 3) is rejected too.
  for (const uint32_t version : {0u, 4u, 99u}) {
    {
      std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
      file.seekp(8);
      file.write(reinterpret_cast<const char*>(&version), sizeof(version));
    }
    Result<LoadedIndex> skewed = LoadIndex(path);
    ASSERT_FALSE(skewed.ok()) << "version " << version;
    EXPECT_EQ(skewed.status().code(), StatusCode::kInvalidArgument)
        << "version " << version;
  }
  std::remove(path.c_str());
}

/// Loads an older-version seed of the fuzz corpus. Each was written from
/// fuzz/make_corpus.cc's 6-node graph under the default config, with no
/// activation applied, so a fresh build over the loaded graph and config
/// must give the same answers, before and after the same stream.
void ExpectSeedContinuesLikeAFreshBuild(const char* seed) {
  Result<LoadedIndex> loaded = LoadIndex(std::string(ANC_SOURCE_DIR) +
                                         "/fuzz/corpus/index/" + seed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  AncIndex& restored = *loaded.value().index;
  const Graph& g = *loaded.value().graph;
  ASSERT_EQ(g.NumNodes(), 6u);
  AncIndex fresh(g, restored.config());

  Rng rng(12);
  const ActivationStream stream = UniformStream(g, 30, 0.3, rng);
  ASSERT_GE(stream.size(), 30u);
  for (size_t step = 0; step <= stream.size(); ++step) {
    if (step > 0) {
      ASSERT_TRUE(restored.Apply(stream[step - 1]).ok());
      ASSERT_TRUE(fresh.Apply(stream[step - 1]).ok());
    }
    ASSERT_EQ(restored.index().ExportVoteCounts(),
              fresh.index().ExportVoteCounts())
        << "step " << step;
    const auto a = restored.index().ExportTreeStates();
    const auto b = fresh.index().ExportTreeStates();
    ASSERT_EQ(a.size(), b.size());
    for (size_t slot = 0; slot < a.size(); ++slot) {
      ASSERT_EQ(a[slot].seed_of, b[slot].seed_of) << "step " << step;
      ASSERT_EQ(a[slot].dist, b[slot].dist) << "step " << step;
      ASSERT_EQ(a[slot].parent_edge, b[slot].parent_edge) << "step " << step;
    }
    for (uint32_t l = 1; l <= fresh.num_levels(); ++l) {
      ASSERT_EQ(restored.Clusters(l).labels, fresh.Clusters(l).labels)
          << "step " << step << " level " << l;
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        ASSERT_EQ(restored.LocalCluster(v, l), fresh.LocalCluster(v, l));
      }
    }
  }
}

TEST(SerializationTest, LoadsVersionOneCheckpoint) {
  // A version-1 file stores each partition tree with a parent vector and
  // three child/sibling link vectors, which the loader skips.
  ExpectSeedContinuesLikeAFreshBuild("checkpoint_v1.idx");
}

TEST(SerializationTest, LoadsVersionTwoCheckpoint) {
  // A version-2 file has no sigma caches; the loader recomputes them.
  ExpectSeedContinuesLikeAFreshBuild("checkpoint_v2.idx");
}

TEST(SerializationTest, MultiPageColumnsRoundTrip) {
  // More edges than one inline page holds: the per-edge arrays span
  // several page-table entries and must reassemble in order.
  Rng rng(6);
  Graph g = BarabasiAlbert(1500, 3, rng);
  ASSERT_GT(g.NumEdges(), kCheckpointPageElems);
  AncIndex original(g, TestConfig());
  ActivationStream stream = UniformStream(g, 2, 0.05, rng);
  ASSERT_TRUE(original.ApplyStream(stream).ok());

  const std::string path = TempPath("anc_multipage.idx");
  ASSERT_TRUE(SaveIndex(original, path).ok());
  Result<LoadedIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  AncIndex& restored = *loaded.value().index;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    ASSERT_EQ(restored.engine().Similarity(e), original.engine().Similarity(e))
        << "edge " << e;
    ASSERT_EQ(restored.engine().activeness().Anchored(e),
              original.engine().activeness().Anchored(e))
        << "edge " << e;
  }
  EXPECT_EQ(restored.index().ExportVoteCounts(),
            original.index().ExportVoteCounts());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace anc
