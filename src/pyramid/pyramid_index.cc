#include "pyramid/pyramid_index.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace anc {

namespace {

uint32_t LevelsFor(uint32_t n) {
  // ceil(log2 n), at least 1 so even tiny graphs have one granularity.
  uint32_t levels = 1;
  while ((1ull << levels) < n) ++levels;
  return std::max<uint32_t>(levels, 1);
}

}  // namespace

PyramidIndex::PyramidIndex(const Graph& g, std::vector<double> weights,
                           PyramidParams params,
                           obs::MetricsRegistry* metrics)
    : PyramidIndex(g, std::move(weights), params, {}, metrics) {}

PyramidIndex::PyramidIndex(const Graph& g, std::vector<double> weights,
                           PyramidParams params,
                           std::vector<std::vector<NodeId>> seed_sets,
                           obs::MetricsRegistry* metrics)
    : graph_(&g),
      params_(params),
      num_levels_(LevelsFor(g.NumNodes())),
      weights_(std::move(weights)),
      metrics_(metrics) {
  ANC_CHECK(params_.num_pyramids >= 1, "need at least one pyramid");
  ANC_CHECK(weights_.size() == g.NumEdges(),
            "weight array size must equal edge count");
  vote_threshold_ = static_cast<uint32_t>(
      std::ceil(params_.theta * params_.num_pyramids - 1e-12));
  vote_threshold_ = std::max<uint32_t>(vote_threshold_, 1);

  const uint32_t k = params_.num_pyramids;
  partitions_.resize(static_cast<size_t>(k) * num_levels_);
  same_seed_bits_.resize(partitions_.size());
  for (auto& bits : same_seed_bits_) bits.assign(g.NumEdges(), 0);
  vote_counts_.resize(num_levels_);
  for (auto& votes : vote_counts_) votes.assign(g.NumEdges(), 0);
  seed_changed_scratch_.resize(partitions_.size());
  watched_.assign(g.NumNodes(), 0);
  pending_changes_.resize(num_levels_);
  level_overlays_.resize(num_levels_);
  pool_ = std::make_unique<ThreadPool>(params_.num_threads);
  if (metrics_ != nullptr) {
    m_.repairs = metrics_->Counter("anc.index.repairs");
    m_.touched_nodes = metrics_->Counter("anc.index.touched_nodes");
    m_.vote_flips = metrics_->Counter("anc.index.vote_flips");
    m_.rescales = metrics_->Counter("anc.index.rescales");
    m_.touched_per_repair =
        metrics_->Histogram("anc.index.touched_per_repair");
    m_.level_repairs.reserve(num_levels_);
    m_.level_touched_nodes.reserve(num_levels_);
    for (uint32_t l = 1; l <= num_levels_; ++l) {
      const std::string prefix = "anc.index.level" + std::to_string(l);
      m_.level_repairs.push_back(metrics_->Counter(prefix + ".repairs"));
      m_.level_touched_nodes.push_back(
          metrics_->Counter(prefix + ".touched_nodes"));
    }
    pool_->SetMetrics(metrics_);
  }

  if (seed_sets.empty()) {
    // Draw all seed sets up front (deterministic given params.seed).
    Rng rng(params_.seed);
    seed_sets.resize(partitions_.size());
    for (uint32_t p = 0; p < k; ++p) {
      for (uint32_t l = 1; l <= num_levels_; ++l) {
        const uint32_t want = static_cast<uint32_t>(
            std::min<uint64_t>(1ull << (l - 1), g.NumNodes()));
        seed_sets[PartitionSlot(p, l)] =
            rng.SampleWithoutReplacement(g.NumNodes(), want);
      }
    }
  }
  ANC_CHECK(seed_sets.size() == partitions_.size(),
            "seed-set layout must be pyramid-major, level-minor");
  pool_->ParallelFor(partitions_.size(), [&](size_t slot) {
    partitions_[slot].Build(*graph_, weights_, std::move(seed_sets[slot]));
  });
  for (uint32_t p = 0; p < k; ++p) {
    for (uint32_t l = 1; l <= num_levels_; ++l) InitVotes(p, l);
  }
}

uint32_t PyramidIndex::DefaultLevel() const {
  const double target = std::sqrt(static_cast<double>(graph_->NumNodes()));
  uint32_t best_level = 1;
  double best_gap = kInfDist;
  for (uint32_t l = 1; l <= num_levels_; ++l) {
    const double seeds = static_cast<double>(
        std::min<uint64_t>(1ull << (l - 1), graph_->NumNodes()));
    const double gap = std::abs(std::log2(seeds + 1) - std::log2(target + 1));
    if (gap < best_gap) {
      best_gap = gap;
      best_level = l;
    }
  }
  return best_level;
}

void PyramidIndex::InitVotes(uint32_t pyramid, uint32_t level) {
  const size_t slot = PartitionSlot(pyramid, level);
  const VoronoiPartition& part = partitions_[slot];
  auto& bits = same_seed_bits_[slot];
  auto& votes = vote_counts_[level - 1];
  for (EdgeId e = 0; e < graph_->NumEdges(); ++e) {
    const auto& [u, v] = graph_->Endpoints(e);
    const uint8_t same = part.SameSeed(u, v) ? 1 : 0;
    if (same && !bits[e]) ++votes.Mut(e);
    if (!same && bits[e]) --votes.Mut(e);
    bits.Set(e, same);
  }
}

void PyramidIndex::RefreshEdgeBit(uint32_t pyramid, uint32_t level, EdgeId e) {
  const size_t slot = PartitionSlot(pyramid, level);
  const auto& [u, v] = graph_->Endpoints(e);
  const uint8_t same = partitions_[slot].SameSeed(u, v) ? 1 : 0;
  if (same == same_seed_bits_[slot][e]) return;
  same_seed_bits_[slot].Set(e, same);
  uint16_t& votes = vote_counts_[level - 1].Mut(e);
  const bool was_passing = votes >= vote_threshold_;
  if (same) {
    ++votes;
  } else {
    --votes;
  }
  const bool now_passing = votes >= vote_threshold_;
  if (was_passing != now_passing) {
    if (obs::kMetricsEnabled && metrics_ != nullptr) {
      metrics_->Add(m_.vote_flips);
    }
    if (watched_[u] || watched_[v]) {
      pending_changes_[level - 1].push_back({e, level, now_passing});
    }
  }
}

size_t PyramidIndex::RepairLevel(uint32_t level, EdgeId e, double old_w,
                                 double new_w, EdgeWeights weights) {
  size_t touched = 0;
  for (uint32_t p = 0; p < params_.num_pyramids; ++p) {
    const size_t slot = PartitionSlot(p, level);
    auto& changed = seed_changed_scratch_[slot];
    changed.clear();
    touched += partitions_[slot].UpdateEdgeWeight(*graph_, weights, e, old_w,
                                                  new_w, &changed);
    // Seed changes invalidate the same-seed bit of every incident edge.
    for (NodeId x : changed) {
      for (const Neighbor& nb : graph_->Neighbors(x)) {
        RefreshEdgeBit(p, level, nb.edge);
      }
    }
    // The updated edge itself may change vote without any seed change
    // elsewhere (e.g. endpoints joining across the repaired boundary).
    RefreshEdgeBit(p, level, e);
  }
  return touched;
}

void PyramidIndex::RecordLevelRepair(uint32_t level, size_t touched) {
  // touched == 0 levels are identity updates; skipping them keeps the
  // recording cost proportional to actual repair work.
  if (obs::kMetricsEnabled && metrics_ != nullptr && touched > 0) {
    metrics_->Add(m_.level_repairs[level - 1]);
    metrics_->Add(m_.level_touched_nodes[level - 1], touched);
  }
}

void PyramidIndex::RecordRepair(size_t touched) {
  if (obs::kMetricsEnabled && metrics_ != nullptr) {
    metrics_->Add(m_.repairs);
    metrics_->Add(m_.touched_nodes, touched);
    metrics_->Record(m_.touched_per_repair, static_cast<double>(touched));
  }
}

size_t PyramidIndex::UpdateEdgeWeight(EdgeId e, double new_weight) {
  ANC_CHECK(e < graph_->NumEdges(), "edge id out of range");
  ANC_CHECK(new_weight > 0.0 && std::isfinite(new_weight),
            "distance weights must be positive and finite");
  const double old_weight = weights_[e];
  weights_[e] = new_weight;
  if (old_weight == new_weight) return 0;
  size_t total = 0;
  for (uint32_t level = 1; level <= num_levels_; ++level) {
    const size_t touched =
        RepairLevel(level, e, old_weight, new_weight, weights_);
    RecordLevelRepair(level, touched);
    total += touched;
  }
  RecordRepair(total);
  return total;
}

size_t PyramidIndex::UpdateEdgeWeights(
    std::span<const std::pair<EdgeId, double>> updates) {
  // Below this many updates one pool dispatch costs more than the level
  // parallelism saves.
  constexpr size_t kMinParallelBatch = 16;
  if (pool_->num_threads() <= 1 || updates.size() < kMinParallelBatch) {
    size_t total = 0;
    for (const auto& [e, w] : updates) total += UpdateEdgeWeight(e, w);
    return total;
  }

  // Give each distinct batch edge an overlay slot holding its pre-batch
  // weight, and tag its entry in the shared array with that slot.
  batch_pre_weights_.clear();
  batch_slots_.clear();
  for (const auto& [e, w] : updates) {
    ANC_CHECK(e < graph_->NumEdges(), "edge id out of range");
    ANC_CHECK(w > 0.0 && std::isfinite(w),
              "distance weights must be positive and finite");
    double& shared = weights_[e];
    if (shared > 0.0) {
      batch_pre_weights_.push_back(shared);
      shared = EdgeWeights::Tag(batch_pre_weights_.size() - 1);
    }
    batch_slots_.push_back(EdgeWeights::SlotOf(shared));
  }
  // Each level replays the whole batch against its own overlay, so every
  // partition observes exactly the weight evolution of one UpdateEdgeWeight
  // per update (results are bit-identical); levels are mutually
  // independent and own their vote rows (Lemma 13).
  std::vector<size_t> touched_per_level(num_levels_, 0);
  pool_->ParallelFor(num_levels_, [&](size_t level_idx) {
    const uint32_t level = static_cast<uint32_t>(level_idx) + 1;
    std::vector<double>& overlay = level_overlays_[level_idx];
    overlay.assign(batch_pre_weights_.begin(), batch_pre_weights_.end());
    const EdgeWeights weights(weights_, overlay.data());
    size_t touched = 0;
    for (size_t i = 0; i < updates.size(); ++i) {
      const auto& [e, w] = updates[i];
      double& current = overlay[batch_slots_[i]];
      const double old_w = current;
      current = w;
      if (old_w == w) continue;
      touched += RepairLevel(level, e, old_w, w, weights);
    }
    touched_per_level[level_idx] = touched;
    RecordLevelRepair(level, touched);
  });
  // The last update of each edge wins, which also clears every tag.
  for (const auto& [e, w] : updates) weights_[e] = w;
  size_t total = 0;
  for (size_t t : touched_per_level) total += t;
  RecordRepair(total);
  return total;
}

void PyramidIndex::Reconstruct(std::vector<double> new_weights) {
  ANC_CHECK(new_weights.size() == graph_->NumEdges(),
            "weight array size must equal edge count");
  weights_ = std::move(new_weights);
  pool_->ParallelFor(partitions_.size(), [&](size_t slot) {
    std::vector<NodeId> seeds = partitions_[slot].seeds();
    partitions_[slot].Build(*graph_, weights_, std::move(seeds));
  });
  for (uint32_t p = 0; p < params_.num_pyramids; ++p) {
    for (uint32_t l = 1; l <= num_levels_; ++l) InitVotes(p, l);
  }
}

void PyramidIndex::ScaleAll(double factor) {
  ANC_CHECK(factor > 0.0 && std::isfinite(factor),
            "scale factor must be positive and finite");
  for (double& w : weights_) w *= factor;
  pool_->ParallelFor(partitions_.size(), [&](size_t slot) {
    partitions_[slot].ScaleDistances(factor);
  });
  if (obs::kMetricsEnabled && metrics_ != nullptr) {
    metrics_->Add(m_.rescales);
  }
}

double PyramidIndex::ApproxDistance(NodeId u, NodeId v) const {
  if (u == v) return 0.0;
  double best = kInfDist;
  for (const VoronoiPartition& part : partitions_) {
    if (!part.SameSeed(u, v)) continue;
    const double witness = part.Dist(u) + part.Dist(v);
    if (witness < best) best = witness;
  }
  return best;
}

double PyramidIndex::AttractionStrength(NodeId u, NodeId v) const {
  const double d = ApproxDistance(u, v);
  if (d == kInfDist) return 0.0;
  if (d <= 0.0) return kInfDist;
  return 1.0 / d;
}

void PyramidIndex::Watch(NodeId v) { watched_[v] = 1; }

void PyramidIndex::Unwatch(NodeId v) { watched_[v] = 0; }

std::vector<PyramidIndex::VoteChange> PyramidIndex::DrainVoteChanges() {
  std::vector<VoteChange> out;
  for (auto& level_buffer : pending_changes_) {
    out.insert(out.end(), level_buffer.begin(), level_buffer.end());
    level_buffer.clear();
  }
  return out;
}

std::unique_ptr<PyramidIndex> PyramidIndex::FromTreeStates(
    const Graph& g, std::vector<double> weights, PyramidParams params,
    std::vector<VoronoiPartition::TreeState> trees,
    obs::MetricsRegistry* metrics) {
  // Build with trivially cheap placeholder seeds, then overwrite every
  // partition with the exact exported tree and recount the votes.
  if (weights.size() != g.NumEdges()) return nullptr;
  std::vector<std::vector<NodeId>> placeholder_seeds;
  const uint32_t levels = LevelsFor(g.NumNodes());
  if (trees.size() != static_cast<size_t>(params.num_pyramids) * levels) {
    return nullptr;
  }
  placeholder_seeds.assign(trees.size(), {});  // empty: O(n) builds
  auto index = std::unique_ptr<PyramidIndex>(new PyramidIndex(
      g, std::move(weights), params, std::move(placeholder_seeds), metrics));
  for (size_t slot = 0; slot < trees.size(); ++slot) {
    if (!index->partitions_[slot].RestoreTree(g, std::move(trees[slot]))
             .ok()) {
      return nullptr;
    }
  }
  for (uint32_t p = 0; p < params.num_pyramids; ++p) {
    for (uint32_t l = 1; l <= index->num_levels_; ++l) {
      index->InitVotes(p, l);
    }
  }
  return index;
}

std::vector<VoronoiPartition::TreeState> PyramidIndex::ExportTreeStates()
    const {
  std::vector<VoronoiPartition::TreeState> out;
  out.reserve(partitions_.size());
  for (const VoronoiPartition& part : partitions_) {
    out.push_back(part.ExportTree());
  }
  return out;
}

std::vector<std::vector<NodeId>> PyramidIndex::SeedSets() const {
  std::vector<std::vector<NodeId>> out;
  out.reserve(partitions_.size());
  for (const VoronoiPartition& part : partitions_) {
    out.push_back(part.seeds());
  }
  return out;
}

size_t PyramidIndex::MemoryBytes() const {
  size_t bytes = weights_.capacity() * sizeof(double);
  for (const auto& part : partitions_) bytes += part.MemoryBytes();
  // Tiered columns count their resident pages only: cold pages live in
  // mmap'd segments, which is the point of the accounting (Fig. 6 measures
  // RAM).
  for (const auto& bits : same_seed_bits_) bytes += bits.ResidentBytes();
  for (const auto& votes : vote_counts_) bytes += votes.ResidentBytes();
  return bytes;
}

}  // namespace anc
