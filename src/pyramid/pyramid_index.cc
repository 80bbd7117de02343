#include "pyramid/pyramid_index.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace anc {

uint32_t PyramidIndex::NumLevelsFor(uint32_t num_nodes) {
  // ceil(log2 n), at least 1 so even tiny graphs have one granularity.
  uint32_t levels = 1;
  while ((1ull << levels) < num_nodes) ++levels;
  return levels;
}

uint32_t PyramidIndex::DefaultLevelFor(uint32_t num_nodes) {
  const double target = std::sqrt(static_cast<double>(num_nodes));
  uint32_t best_level = 1;
  double best_gap = kInfDist;
  const uint32_t levels = NumLevelsFor(num_nodes);
  for (uint32_t l = 1; l <= levels; ++l) {
    const double seeds =
        static_cast<double>(std::min<uint64_t>(1ull << (l - 1), num_nodes));
    const double gap = std::abs(std::log2(seeds + 1) - std::log2(target + 1));
    if (gap < best_gap) {
      best_gap = gap;
      best_level = l;
    }
  }
  return best_level;
}

PyramidIndex::PyramidIndex(const Graph& g, std::vector<double> weights,
                           PyramidParams params,
                           obs::MetricsRegistry* metrics)
    : PyramidIndex(g, std::move(weights), params, {}, metrics) {}

PyramidIndex::PyramidIndex(const Graph& g, std::vector<double> weights,
                           PyramidParams params,
                           std::vector<std::vector<NodeId>> seed_sets,
                           obs::MetricsRegistry* metrics)
    : PyramidIndex(g, std::move(weights), params, metrics, Unbuilt{}) {
  if (seed_sets.empty()) {
    // Draw all seed sets up front (deterministic given params.seed).
    Rng rng(params_.seed);
    seed_sets.resize(partitions_.size());
    for (uint32_t p = 0; p < params_.num_pyramids; ++p) {
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
  CountVotes();
}

PyramidIndex::PyramidIndex(const Graph& g, std::vector<double> weights,
                           PyramidParams params, obs::MetricsRegistry* metrics,
                           Unbuilt)
    : graph_(&g),
      params_(params),
      num_levels_(NumLevelsFor(g.NumNodes())),
      weights_(std::move(weights)),
      metrics_(metrics) {
  ANC_CHECK(params_.num_pyramids >= 1, "need at least one pyramid");
  ANC_CHECK(weights_.size() == g.NumEdges(),
            "weight array size must equal edge count");
  const uint32_t k = params_.num_pyramids;
  rule_ = VoteRule(k, std::max<uint32_t>(
                          1, static_cast<uint32_t>(
                                 std::ceil(params_.theta * k - 1e-12))));

  partitions_.resize(static_cast<size_t>(k) * num_levels_);
  level_scratch_.assign(num_levels_, VoronoiPartition::Scratch(g.NumNodes()));
  same_seed_bits_.resize(static_cast<size_t>(num_levels_) * rule_.groups());
  for (auto& bits : same_seed_bits_) bits.assign(g.NumEdges(), 0);
  seed_changed_scratch_.resize(num_levels_);
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
}

void PyramidIndex::CountVotes() {
  // A level's k partitions write only that level's bit columns, so levels
  // count in parallel (Lemma 13).
  pool_->ParallelFor(num_levels_, [&](size_t level_idx) {
    const uint32_t level = static_cast<uint32_t>(level_idx) + 1;
    for (uint32_t p = 0; p < params_.num_pyramids; ++p) {
      const VoronoiPartition& part = partitions_[PartitionSlot(p, level)];
      auto& bits = same_seed_bits_[BitColumn(p, level)];
      const uint8_t mask = BitMask(p);
      for (EdgeId e = 0; e < graph_->NumEdges(); ++e) {
        const auto& [u, v] = graph_->Endpoints(e);
        if (part.SameSeed(u, v) != ((bits[e] & mask) != 0)) {
          bits.Set(e, bits[e] ^ mask);
        }
      }
    }
  });
}

void PyramidIndex::RefreshEdgeBit(uint32_t pyramid, uint32_t level, EdgeId e) {
  const auto& [u, v] = graph_->Endpoints(e);
  const bool same = partitions_[PartitionSlot(pyramid, level)].SameSeed(u, v);
  auto& bits = same_seed_bits_[BitColumn(pyramid, level)];
  const uint8_t mask = BitMask(pyramid);
  if (same == ((bits[e] & mask) != 0)) return;
  const bool was_passing = EdgePassesVote(e, level);
  bits.Set(e, bits[e] ^ mask);
  const bool now_passing = EdgePassesVote(e, level);
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
  VoronoiPartition::Scratch& scratch = level_scratch_[level - 1];
  std::vector<NodeId>& changed = seed_changed_scratch_[level - 1];
  size_t touched = 0;
  for (uint32_t p = 0; p < params_.num_pyramids; ++p) {
    const size_t slot = PartitionSlot(p, level);
    changed.clear();
    touched += partitions_[slot].UpdateEdgeWeight(
        *graph_, weights, e, old_w, new_w, scratch, &changed);
    // The same-seed bit of an edge depends only on its endpoints' seeds,
    // so only edges incident to a node whose seed changed can flip — e
    // included, which needs no refresh of its own.
    for (NodeId x : changed) {
      for (const Neighbor& nb : graph_->Neighbors(x)) {
        RefreshEdgeBit(p, level, nb.edge);
      }
    }
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
  // independent and own their bit columns (Lemma 13).
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
  // CountVotes reports nothing, so note each edge of a watched node's vote
  // result per level first and report the ones the recount flipped.
  std::vector<EdgeId> watched_edges;
  if (num_watched_ > 0) {
    for (NodeId v = 0; v < graph_->NumNodes(); ++v) {
      if (!watched_[v]) continue;
      for (const Neighbor& nb : graph_->Neighbors(v)) {
        if (watched_[nb.node] && nb.node < v) continue;  // listed from nb
        watched_edges.push_back(nb.edge);
      }
    }
  }
  std::vector<uint8_t> was_passing;
  was_passing.reserve(static_cast<size_t>(num_levels_) * watched_edges.size());
  for (uint32_t l = 1; l <= num_levels_; ++l) {
    for (EdgeId e : watched_edges) was_passing.push_back(EdgePassesVote(e, l));
  }
  pool_->ParallelFor(partitions_.size(), [&](size_t slot) {
    std::vector<NodeId> seeds = partitions_[slot].seeds();
    partitions_[slot].Build(*graph_, weights_, std::move(seeds));
  });
  CountVotes();
  size_t i = 0;
  for (uint32_t l = 1; l <= num_levels_; ++l) {
    for (EdgeId e : watched_edges) {
      const bool now_passing = EdgePassesVote(e, l);
      if (now_passing != (was_passing[i++] != 0)) {
        pending_changes_[l - 1].push_back({e, l, now_passing});
      }
    }
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

void PyramidIndex::Watch(NodeId v) {
  num_watched_ += watched_[v] == 0;
  watched_[v] = 1;
}

void PyramidIndex::Unwatch(NodeId v) {
  num_watched_ -= watched_[v] != 0;
  watched_[v] = 0;
}

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
  // Fill unbuilt partitions with the exact exported trees, then count the
  // votes once.
  if (weights.size() != g.NumEdges() || params.num_pyramids < 1) {
    return nullptr;
  }
  const uint32_t levels = NumLevelsFor(g.NumNodes());
  if (trees.size() != static_cast<size_t>(params.num_pyramids) * levels) {
    return nullptr;
  }
  auto index = std::unique_ptr<PyramidIndex>(
      new PyramidIndex(g, std::move(weights), params, metrics, Unbuilt{}));
  for (size_t slot = 0; slot < trees.size(); ++slot) {
    if (!index->partitions_[slot].RestoreTree(g, std::move(trees[slot]))
             .ok()) {
      return nullptr;
    }
  }
  index->CountVotes();
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

VoteTable PyramidIndex::ExportVoteCounts() const {
  std::vector<std::vector<uint8_t>> columns;
  columns.reserve(same_seed_bits_.size());
  for (const auto& bits : same_seed_bits_) columns.push_back(bits.ToVector());
  return VoteTable(rule_, std::move(columns));
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
  for (const auto& scratch : level_scratch_) bytes += scratch.MemoryBytes();
  // Tiered columns count their resident pages only: cold pages live in
  // mmap'd segments, which is the point of the accounting (Fig. 6 measures
  // RAM).
  for (const auto& bits : same_seed_bits_) bytes += bits.ResidentBytes();
  return bytes;
}

}  // namespace anc
