#ifndef ANC_CHECK_TEST_HOOKS_H_
#define ANC_CHECK_TEST_HOOKS_H_

#include <chrono>
#include <cstdint>

#include "net/cache.h"
#include "pyramid/clustering.h"
#include "pyramid/pyramid_index.h"
#include "serve/server.h"
#include "similarity/similarity_engine.h"
#include "store/store.h"
#include "tier/tiered_store.h"

namespace anc::check {

/// Deliberate state corruption for the invariant-checker tests
/// (tests/check_test.cc): each setter breaks exactly one maintained
/// quantity, bypassing the class invariants, so the tests can assert the
/// matching validator reports the damage — and stays silent on healthy
/// state. The serving-stack setters at the end shrink or stretch a
/// constant for one object, so a test reaches a regime (many WAL
/// segments, tiny batches, an evicting cache) in a few operations.
/// Befriended by the target classes; never called by library code.
class TestHooks {
 public:
  TestHooks() = delete;

  /// Overwrites the anchored activeness of `e` (e.g. with a negative or
  /// NaN value) without touching the derived sigma caches.
  static void SetAnchoredActiveness(SimilarityEngine& engine, EdgeId e,
                                    double value) {
    engine.activeness_.anchored_.Set(e, value);
  }

  /// Desynchronizes the A(v) cache from its definition.
  static void SetNodeActivity(SimilarityEngine& engine, NodeId v,
                              double value) {
    engine.node_activity_[v] = value;
  }

  /// Desynchronizes the num(e) cache (breaks PosM/NeuM sigma agreement).
  static void SetSigmaNumerator(SimilarityEngine& engine, EdgeId e,
                                double value) {
    engine.sigma_numerator_.Set(e, value);
  }

  /// Overwrites a PosM similarity entry, bypassing the clamp.
  static void SetSimilarity(SimilarityEngine& engine, EdgeId e, double value) {
    engine.similarity_.Set(e, value);
  }

  /// Flips a maintained same-seed bit, which moves the edge's vote by one.
  static void FlipSameSeedBit(PyramidIndex& index, uint32_t pyramid,
                              uint32_t level, EdgeId e) {
    auto& bits = index.same_seed_bits_[index.BitColumn(pyramid, level)];
    bits.Set(e, bits[e] ^ PyramidIndex::BitMask(pyramid));
  }

  /// Reassigns a node's Voronoi cell without repairing the SPT.
  static void SetSeedOf(PyramidIndex& index, uint32_t pyramid, uint32_t level,
                        NodeId v, NodeId seed) {
    index.partitions_[index.PartitionSlot(pyramid, level)].nodes_[v].seed =
        seed;
  }

  /// Overwrites a node's stored shortest distance.
  static void SetDist(PyramidIndex& index, uint32_t pyramid, uint32_t level,
                      NodeId v, double dist) {
    index.partitions_[index.PartitionSlot(pyramid, level)].nodes_[v].dist =
        dist;
  }

  /// Moves the repair epoch of every level's Voronoi scratch to `epoch`, so
  /// a test can drive the counter across its wrap in a few updates.
  static void SetRepairEpoch(PyramidIndex& index, uint32_t epoch) {
    for (auto& scratch : index.level_scratch_) scratch.epoch_ = epoch;
  }

  /// The same for a standalone scratch.
  static void SetRepairEpoch(VoronoiPartition::Scratch& scratch,
                             uint32_t epoch) {
    scratch.epoch_ = epoch;
  }

  /// Moves the calling thread's LocalCluster visited-stamp epoch.
  static void SetVisitedEpoch(uint32_t epoch) {
    VisitedStamp::ForThisThread().epoch_ = epoch;
  }

  /// Overwrites one stored edge weight of the index (desynchronizes it from
  /// the similarity engine's NegM view).
  static void SetIndexWeight(PyramidIndex& index, EdgeId e, double weight) {
    index.weights_[e] = weight;
  }

  /// Reads the stored same-seed bit of edge e in partition (pyramid, level);
  /// the bits have no public accessor.
  static bool SameSeedBit(const PyramidIndex& index, uint32_t pyramid,
                          uint32_t level, EdgeId e) {
    return (index.same_seed_bits_[index.BitColumn(pyramid, level)][e] &
            PyramidIndex::BitMask(pyramid)) != 0;
  }

  // --- Serving-stack constants, per object --------------------------------

  /// Caps the activations the writer drains per batch (serve::kWriterBatch
  /// otherwise; must be >= 1). Call before Start().
  static void SetWriterMaxBatch(serve::AncServer& server, size_t max_batch) {
    server.max_batch_ = max_batch;
  }

  /// Sets how long an idle writer waits between wakeups
  /// (AncServer::kIdleWait otherwise). Call before Start().
  static void SetWriterIdleWait(serve::AncServer& server,
                                std::chrono::microseconds idle_wait) {
    server.idle_wait_ = idle_wait;
  }

  /// AwaitSeq callers currently blocked on the server's published
  /// watermark.
  static uint32_t WatermarkWaiters(const serve::AncServer& server) {
    util::MutexLock lock(server.watermark_mutex_);
    return server.watermark_waiters_;
  }

  /// Sets the byte budget of each of the cache's lock shards (64 MiB / 8
  /// otherwise). Call before the cache is shared.
  static void SetCacheShardBudget(net::QueryCache& cache, size_t bytes) {
    cache.shard_budget_ = bytes;
  }

  /// Sets the WAL segment rotation threshold (DurableStore::kSegmentBytes
  /// otherwise).
  static void SetWalSegmentBytes(store::DurableStore& store, uint64_t bytes) {
    util::MutexLock lock(store.mutex_);
    store.segment_bytes_ = bytes;
  }

  /// Sets the live-segment count that starts a background compaction
  /// (TieredStore::kCompactMinSegments otherwise).
  static void SetCompactMinSegments(tier::TieredStore& tier,
                                    size_t segments) {
    util::MutexLock lock(tier.mutex_);
    tier.compact_min_segments_ = segments;
  }
};

}  // namespace anc::check

#endif  // ANC_CHECK_TEST_HOOKS_H_
