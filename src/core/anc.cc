#include "core/anc.h"

#include <algorithm>
#include <cmath>

#include "check/invariants.h"

namespace anc {

namespace {

std::vector<double> AllWeights(const SimilarityEngine& engine) {
  std::vector<double> weights(engine.graph().NumEdges());
  for (EdgeId e = 0; e < weights.size(); ++e) weights[e] = engine.Weight(e);
  return weights;
}

// Queued repairs that force a flush inside one ApplyBatch: bounds the
// per-level overlays of a long stream while keeping batches large enough
// for the level-parallel repair.
constexpr size_t kMaxPendingRepairs = 1024;

#ifdef ANC_CHECK_INVARIANTS
// Applies between periodic self-checks when the lemma-level tripwire is
// compiled in. The shallow validator pass is O(k n log n + m log n) — far
// above the bounded per-activation repair cost — so it is amortized over a
// window instead of running per activation.
constexpr uint64_t kSelfCheckInterval = 256;
#endif

}  // namespace

Status AncConfig::Validate() const {
  if (similarity.lambda < 0.0 || !std::isfinite(similarity.lambda)) {
    return Status::InvalidArgument("lambda must be finite and >= 0");
  }
  if (similarity.epsilon < 0.0 || similarity.epsilon > 1.0) {
    return Status::InvalidArgument("epsilon must be in [0, 1]");
  }
  if (similarity.mu < 1) {
    return Status::InvalidArgument("mu must be >= 1");
  }
  if (similarity.min_similarity <= 0.0 ||
      similarity.min_similarity >= similarity.max_similarity) {
    return Status::InvalidArgument(
        "similarity clamp must satisfy 0 < min < max");
  }
  if (similarity.initial_activeness < 0.0) {
    return Status::InvalidArgument("initial activeness must be >= 0");
  }
  if (pyramid.num_pyramids < 1) {
    return Status::InvalidArgument("need at least one pyramid");
  }
  if (pyramid.theta <= 0.0 || pyramid.theta > 1.0) {
    return Status::InvalidArgument("theta must be in (0, 1]");
  }
  if (mode == AncMode::kOnlineReinforce && reinforce_interval == 0) {
    return Status::InvalidArgument("reinforce_interval must be positive");
  }
  return Status::OK();
}

Result<std::unique_ptr<AncIndex>> AncIndex::Create(const Graph& graph,
                                                   AncConfig config) {
  ANC_RETURN_NOT_OK(config.Validate());
  if (graph.NumNodes() == 0) {
    return Status::InvalidArgument("graph has no nodes");
  }
  return std::make_unique<AncIndex>(graph, config);
}

AncIndex::AncIndex(const Graph& graph, AncConfig config)
    : graph_(&graph),
      config_(config),
      engine_(graph, config.similarity, &metrics_) {
  ANC_CHECK(config_.Validate().ok(), "invalid AncConfig (use Create)");
  InitMetrics();
  // The engine was just built at the uniform initial activeness with its
  // sigma caches, which is all InitializeStatic would reset: only S is left.
  engine_.RecomputeFromActiveness(config_.rep);
  index_ = std::make_unique<PyramidIndex>(graph, AllWeights(engine_),
                                          config_.pyramid, &metrics_);
  HookRescale();
}

AncIndex::AncIndex(const Graph& graph, AncConfig config, RestoreTag)
    : graph_(&graph),
      config_(config),
      engine_(graph, config.similarity, &metrics_) {
  InitMetrics();
}

void AncIndex::InitMetrics() {
  // Facade-level metric names; subsystem metrics (anc.sim.*, anc.index.*,
  // anc.pool.*) are registered by the engine / pyramid index themselves.
  m_.apply_count = metrics_.Counter("anc.apply.count");
  m_.apply_offline = metrics_.Counter("anc.apply.offline");
  m_.apply_online = metrics_.Counter("anc.apply.online");
  m_.apply_ancor = metrics_.Counter("anc.apply.ancor");
  m_.ancor_passes = metrics_.Counter("anc.ancor.periodic_passes");
  m_.ancor_pass_edges = metrics_.Counter("anc.ancor.pass_edges");
  m_.query_clusters = metrics_.Counter("anc.query.clusters");
  m_.query_local = metrics_.Counter("anc.query.local");
  m_.query_local_answer_nodes = metrics_.Counter("anc.query.local_answer_nodes");
  m_.snapshot_recomputes = metrics_.Counter("anc.snapshot.recomputes");
  m_.ancor_pending_edges = metrics_.Gauge("anc.ancor.pending_edges");
  m_.apply_latency_us = metrics_.Histogram("anc.apply.latency_us");
  m_.apply_sim_us = metrics_.Histogram("anc.apply.sim_us");
  m_.apply_repair_us = metrics_.Histogram("anc.apply.repair_us");
  m_.ancor_pass_us = metrics_.Histogram("anc.ancor.pass_us");
  m_.query_clusters_us = metrics_.Histogram("anc.query.clusters_us");
  m_.query_local_us = metrics_.Histogram("anc.query.local_us");
  m_.snapshot_recompute_us = metrics_.Histogram("anc.snapshot.recompute_us");
}

void AncIndex::HookRescale() {
  // A batched rescale multiplies every similarity by g; the NegM distance
  // weights all scale by 1/g, which preserves shortest-path structure
  // (Lemma 10) — the index just rescales its stored weights and distances.
  // Edges pinned by the similarity clamp broke the uniform scale and get
  // exact individual repairs. Repairs an ApplyBatch queued before the
  // rescale run first, against the weights they were computed in.
  engine_.SetRescaleCallback(
      [this](double factor, const std::vector<EdgeId>& clamped) {
        if (index_ == nullptr) return;  // construction order guard
        FlushRepairs();
        index_->ScaleAll(1.0 / factor);
        for (EdgeId e : clamped) {
          pending_repairs_.emplace_back(e, engine_.Weight(e));
        }
        FlushRepairs();
      });
}

std::unique_ptr<AncIndex> AncIndex::FromSnapshot(
    const Graph& graph, AncConfig config,
    const SimilarityEngine::Snapshot& snapshot,
    std::vector<VoronoiPartition::TreeState> trees) {
  std::unique_ptr<AncIndex> out(new AncIndex(graph, config, RestoreTag{}));
  if (!out->engine_.Restore(snapshot).ok()) return nullptr;
  out->index_ = PyramidIndex::FromTreeStates(graph, AllWeights(out->engine_),
                                             config.pyramid, std::move(trees),
                                             &out->metrics_);
  if (out->index_ == nullptr) return nullptr;
  out->HookRescale();
  return out;
}

Status AncIndex::Apply(const Activation& activation) {
  return ApplyBatch({&activation, 1}).first_error;
}

AncIndex::BatchOutcome AncIndex::ApplyBatch(
    std::span<const Activation> batch) {
  return ApplyRun(batch, /*anchored=*/false);
}

Status AncIndex::ApplyOutOfOrder(const Activation& activation) {
  if (config_.mode == AncMode::kOffline) {
    metrics_.Add(m_.apply_count);
    return Status::FailedPrecondition(
        "out-of-order apply is an online-replica import path");
  }
  return ApplyRun({&activation, 1}, /*anchored=*/true).first_error;
}

Status AncIndex::ApplyStream(const ActivationStream& stream) {
  return ApplyBatch(stream).first_error;
}

AncIndex::BatchOutcome AncIndex::ApplyRun(std::span<const Activation> batch,
                                          bool anchored) {
  BatchOutcome outcome;
  const auto settle = [&outcome](const Activation& activation,
                                 const Status& status) {
    if (status.ok()) {
      ++outcome.applied;
      outcome.max_time = std::max(outcome.max_time, activation.time);
    } else {
      ++outcome.refused;
      if (outcome.first_error.ok()) outcome.first_error = status;
    }
  };
  obs::ScopedTimer apply_timer(&metrics_, m_.apply_latency_us, "apply");
  metrics_.Add(m_.apply_count, batch.size());
  if (config_.mode == AncMode::kOffline) {
    metrics_.Add(m_.apply_offline, batch.size());
    // ANCF keeps only the activeness fresh; S and P are snapshot-derived.
    // The engine's activeness and sigma caches stay consistent so the next
    // RecomputeSnapshot() reinforces against the true activeness.
    obs::ScopedTimer sim_timer(&metrics_, m_.apply_sim_us, "similarity");
    for (const Activation& activation : batch) {
      double delta = 0.0;
      settle(activation, engine_.ApplyActivationNoReinforce(
                             activation.edge, activation.time, &delta));
    }
    return outcome;
  }
  metrics_.Add(config_.mode == AncMode::kOnlineReinforce ? m_.apply_ancor
                                                         : m_.apply_online,
               batch.size());
  {
    obs::ScopedTimer sim_timer(&metrics_, m_.apply_sim_us, "similarity");
    for (const Activation& activation : batch) {
      MaybeRunPeriodicReinforce(activation.time);
      double new_weight = 0.0;
      const Status status =
          anchored ? engine_.ApplyActivationAnchored(
                         activation.edge, activation.time, &new_weight)
                   : engine_.ApplyActivation(activation.edge, activation.time,
                                             &new_weight);
      settle(activation, status);
      if (!status.ok()) continue;
      pending_repairs_.emplace_back(activation.edge, new_weight);
      if (config_.mode == AncMode::kOnlineReinforce) {
        interval_edges_.insert(activation.edge);
        metrics_.Set(m_.ancor_pending_edges,
                     static_cast<int64_t>(interval_edges_.size()));
      }
      if (pending_repairs_.size() >= kMaxPendingRepairs) FlushRepairs();
#ifdef ANC_CHECK_INVARIANTS
      if (!anchored && ++applies_since_check_ >= kSelfCheckInterval) {
        applies_since_check_ = 0;
        FlushRepairs();
        check::CheckReport report;
        check::CheckAll(engine_, *index_, /*deep=*/false, &report);
        ANC_CHECK(report.ok(), report.ToString().c_str());
      }
#endif
    }
  }
  FlushRepairs();
  return outcome;
}

void AncIndex::FlushRepairs() {
  if (pending_repairs_.empty()) return;
  obs::ScopedTimer repair_timer(&metrics_, m_.apply_repair_us, "index_repair");
  total_touched_ += index_->UpdateEdgeWeights(pending_repairs_);
  pending_repairs_.clear();
}

void AncIndex::MaybeRunPeriodicReinforce(double now) {
  if (config_.mode != AncMode::kOnlineReinforce) return;
  if (now - last_reinforce_time_ < config_.reinforce_interval) return;
  last_reinforce_time_ = now;
  obs::ScopedTimer pass_timer(&metrics_, m_.ancor_pass_us, "ancor_pass");
  // One extra consolidation pass over the interval's activated edges, with
  // incremental index repairs (the quality/time trade-off of ANCOR).
  // Sorted order keeps the pass deterministic (and serialization-stable).
  std::vector<EdgeId> edges(interval_edges_.begin(), interval_edges_.end());
  std::sort(edges.begin(), edges.end());
  for (EdgeId e : edges) {
    engine_.ReinforceEdge(e);
    pending_repairs_.emplace_back(e, engine_.Weight(e));
  }
  interval_edges_.clear();
  metrics_.Add(m_.ancor_passes);
  metrics_.Add(m_.ancor_pass_edges, edges.size());
  metrics_.Set(m_.ancor_pending_edges, 0);
}

std::vector<EdgeId> AncIndex::PendingReinforceEdges() const {
  std::vector<EdgeId> edges(interval_edges_.begin(), interval_edges_.end());
  std::sort(edges.begin(), edges.end());
  return edges;
}

void AncIndex::RestoreReinforceState(double last_time,
                                     std::vector<EdgeId> edges) {
  last_reinforce_time_ = last_time;
  interval_edges_.clear();
  interval_edges_.insert(edges.begin(), edges.end());
}

void AncIndex::RecomputeSnapshot() {
  obs::ScopedTimer timer(&metrics_, m_.snapshot_recompute_us,
                         "snapshot_recompute");
  engine_.RecomputeFromActiveness(config_.rep);
  index_->Reconstruct(AllWeights(engine_));
  metrics_.Add(m_.snapshot_recomputes);
}

Clustering AncIndex::Clusters(uint32_t level, bool power) const {
  obs::ScopedTimer timer(&metrics_, m_.query_clusters_us, "query_clusters");
  metrics_.Add(m_.query_clusters);
  return power ? PowerClustering(*index_, level)
               : EvenClustering(*index_, level);
}

std::vector<NodeId> AncIndex::LocalCluster(NodeId query, uint32_t level) const {
  obs::ScopedTimer timer(&metrics_, m_.query_local_us, "query_local");
  std::vector<NodeId> members = anc::LocalCluster(*index_, query, level);
  metrics_.Add(m_.query_local);
  metrics_.Add(m_.query_local_answer_nodes, members.size());
  return members;
}

std::vector<NodeId> AncIndex::SmallestCluster(NodeId query, uint32_t min_size,
                                              uint32_t* level_out) const {
  std::vector<NodeId> members;
  const uint32_t level =
      SmallestClusterLevel(*index_, query, min_size, &members);
  if (level_out != nullptr) *level_out = level;
  return members;
}

AncIndex::ClusterState AncIndex::ExportClusterState() const {
  return {index_->ExportVoteCounts(), index_->DefaultLevel()};
}

Status AncIndex::ValidateInvariants(bool deep) const {
  check::CheckReport report;
  check::CheckAll(engine_, *index_, deep, &report);
  if (report.ok()) return Status::OK();
  return Status::Internal(report.ToString());
}

size_t AncIndex::MemoryBytes() const {
  // Similarity layer: activeness + node sums + numerators + similarities.
  const size_t m = graph_->NumEdges();
  const size_t n = graph_->NumNodes();
  const size_t engine_bytes = m * sizeof(double) * 3 + n * sizeof(double);
  return index_->MemoryBytes() + engine_bytes;
}

}  // namespace anc
