#include "similarity/similarity_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace anc {

SimilarityEngine::SimilarityEngine(const Graph& graph, SimilarityParams params,
                                   obs::MetricsRegistry* metrics)
    : graph_(&graph),
      params_(params),
      activeness_(graph.NumEdges(), params.lambda, params.initial_activeness),
      node_activity_(graph.NumNodes(), 0.0),
      sigma_numerator_(graph.NumEdges(), 0.0),
      similarity_(graph.NumEdges(), 1.0),
      metrics_(metrics) {
  if (metrics_ != nullptr) {
    m_.activeness_updates = metrics_->Counter("anc.sim.activeness_updates");
    m_.sigma_cache_updates = metrics_->Counter("anc.sim.sigma_cache_updates");
    m_.reinforcements = metrics_->Counter("anc.sim.reinforcements");
    m_.af_terms = metrics_->Counter("anc.sim.af_terms");
    m_.tf_terms = metrics_->Counter("anc.sim.tf_terms");
    m_.wsf_terms = metrics_->Counter("anc.sim.wsf_terms");
    m_.clamp_hits = metrics_->Counter("anc.sim.clamp_hits");
    m_.rescale_events = metrics_->Counter("anc.sim.rescale_events");
    m_.rescale_clamped_edges =
        metrics_->Counter("anc.sim.rescale_clamped_edges");
    // PosM store sizes: the per-edge similarity/numerator arrays and the
    // per-node activity sums.
    metrics_->Set(metrics_->Gauge("anc.sim.posm_edges"),
                  static_cast<int64_t>(graph.NumEdges()));
    metrics_->Set(metrics_->Gauge("anc.sim.posm_nodes"),
                  static_cast<int64_t>(graph.NumNodes()));
  }
  activeness_.SetRescaleHook([this](double factor) { OnRescale(factor); });
  if (params_.rescale_interval > 0) {
    activeness_.set_rescale_interval(params_.rescale_interval);
  }
  // Build the sigma caches from the uniform initial activeness.
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    node_activity_[v] = RecomputeNodeActivity(v);
  }
  for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
    sigma_numerator_.Set(e, RecomputeSigmaNumerator(e));
  }
}

void SimilarityEngine::InitializeStatic(uint32_t rep) {
  activeness_ = ActivenessStore(graph_->NumEdges(), params_.lambda,
                                params_.initial_activeness);
  activeness_.SetRescaleHook([this](double factor) { OnRescale(factor); });
  if (params_.rescale_interval > 0) {
    activeness_.set_rescale_interval(params_.rescale_interval);
  }
  for (NodeId v = 0; v < graph_->NumNodes(); ++v) {
    node_activity_[v] = RecomputeNodeActivity(v);
  }
  for (EdgeId e = 0; e < graph_->NumEdges(); ++e) {
    sigma_numerator_.Set(e, RecomputeSigmaNumerator(e));
  }
  similarity_.Fill(1.0);
  ReinforceAllEdges(rep);
}

void SimilarityEngine::RecomputeFromActiveness(uint32_t rep) {
  similarity_.Fill(1.0);
  ReinforceAllEdges(rep);
}

Status SimilarityEngine::ApplyActivation(EdgeId e, double t,
                                         double* new_weight) {
  if (e >= graph_->NumEdges()) {
    return Status::OutOfRange("edge id out of range");
  }
  double delta = 0.0;
  ANC_RETURN_NOT_OK(activeness_.Activate(e, t, &delta));
  BumpActiveness(e, delta);
  Reinforce(e);
  if (new_weight != nullptr) *new_weight = Weight(e);
  return Status::OK();
}

Status SimilarityEngine::ApplyActivationAnchored(EdgeId e, double t,
                                                 double* new_weight) {
  if (e >= graph_->NumEdges()) {
    return Status::OutOfRange("edge id out of range");
  }
  double delta = 0.0;
  ANC_RETURN_NOT_OK(activeness_.ActivateAnchored(e, t, &delta));
  BumpActiveness(e, delta);
  Reinforce(e);
  if (new_weight != nullptr) *new_weight = Weight(e);
  return Status::OK();
}

Status SimilarityEngine::ApplyActivationNoReinforce(EdgeId e, double t,
                                                    double* delta) {
  if (e >= graph_->NumEdges()) {
    return Status::OutOfRange("edge id out of range");
  }
  double increment = 0.0;
  ANC_RETURN_NOT_OK(activeness_.Activate(e, t, &increment));
  BumpActiveness(e, increment);
  if (delta != nullptr) *delta = increment;
  return Status::OK();
}

void SimilarityEngine::ReinforceAllEdges(uint32_t rounds) {
  const Graph& g = *graph_;
  const EdgeId m = g.NumEdges();
  if (m == 0 || rounds == 0) return;
  // A sweep never touches the activeness, so every sigma and every role
  // stays fixed for all the rounds: evaluate each once, not per trigger.
  std::vector<double> sigma(m);
  for (EdgeId e = 0; e < m; ++e) sigma[e] = Sigma(e);
  std::vector<NodeRole> role(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) role[v] = Role(v);
  // Gauss-Seidel over a flat copy of S, written back once: edge e reads the
  // already-updated S of every lower edge id (of this round, and every edge
  // of the rounds before), exactly as one Reinforce(e) per edge in
  // ascending order, round after round, would.
  std::vector<double> s = similarity_.ToVector();
  // mark[w] = 1 + id of edge (x, w) while N(x) is marked, else 0.
  std::vector<EdgeId> mark(g.NumNodes(), 0);
  // The common neighbours w of an edge's endpoints, ascending, with the
  // id of edge (y, w).
  std::vector<Neighbor> common;
  ReinforceTermCounts counts;
  uint64_t clamp_hits = 0;

  // One trigger node's AF/TF/WSF sums, accumulated in the order of its own
  // neighbour list with TriggerDelta's expressions, so its delta is
  // bit-identical to TriggerDelta's.
  struct Trigger {
    NodeRole role;
    double inv_deg;
    double af = 0.0;
    double tf = 0.0;
    double wsf = 0.0;
    bool consolidates() const { return role != NodeRole::kPeriphery; }
    bool stretches() const { return role != NodeRole::kCore; }
    double Delta() const {
      switch (role) {
        case NodeRole::kCore:
          return af + tf;  // Eq. (2)
        case NodeRole::kPeriphery:
          return -wsf;  // Eq. (3)
        case NodeRole::kPCore:
          return af + tf - wsf;  // Eq. (4)
      }
      return 0.0;
    }
  };
  const auto start = [&](EdgeId e, NodeId node) {
    Trigger t{role[node], 1.0 / static_cast<double>(g.Degree(node))};
    if (t.consolidates()) {
      t.af = s[e] * sigma[e] * t.inv_deg;
      ++counts.af;
    }
    return t;
  };
  const auto add_common = [&](Trigger& t, EdgeId own, EdgeId other) {
    if (!t.consolidates()) return;
    t.tf += std::sqrt(s[own] * s[other]) * sigma[own] * t.inv_deg;
    ++counts.tf;
  };
  const auto add_exclusive = [&](Trigger& t, EdgeId own) {
    if (!t.stretches()) return;
    t.wsf += s[own] * sigma[own] * t.inv_deg;
    ++counts.wsf;
  };

  for (uint32_t round = 0; round < rounds; ++round) {
    for (EdgeId e = 0; e < m; ++e) {
      // Mark the smaller neighbourhood N(x); one scan of N(y) finds the
      // common neighbours, and one scan of N(x) clears the marks.
      auto [x, y] = g.Endpoints(e);
      if (g.Degree(y) < g.Degree(x)) std::swap(x, y);
      const auto nx = g.Neighbors(x);
      for (const Neighbor& nb : nx) mark[nb.node] = nb.edge + 1;
      Trigger ty = start(e, y);
      common.clear();
      for (const Neighbor& nb : g.Neighbors(y)) {
        const EdgeId xw = mark[nb.node];
        if (xw != 0) {
          add_common(ty, nb.edge, xw - 1);
          common.push_back(nb);
        } else if (nb.node != x) {
          add_exclusive(ty, nb.edge);
        }
      }
      Trigger tx = start(e, x);
      size_t next = 0;
      for (const Neighbor& nb : nx) {
        mark[nb.node] = 0;
        if (next < common.size() && common[next].node == nb.node) {
          add_common(tx, nb.edge, common[next++].edge);
        } else if (nb.node != y) {
          add_exclusive(tx, nb.edge);
        }
      }
      const double raw = s[e] + (tx.Delta() + ty.Delta());
      s[e] = std::clamp(raw, params_.min_similarity, params_.max_similarity);
      if (s[e] != raw) ++clamp_hits;
    }
  }
  similarity_.Assign(s);
  if (obs::kMetricsEnabled && metrics_ != nullptr) {
    metrics_->Add(m_.reinforcements, static_cast<uint64_t>(rounds) * m);
    metrics_->Add(m_.af_terms, counts.af);
    metrics_->Add(m_.tf_terms, counts.tf);
    metrics_->Add(m_.wsf_terms, counts.wsf);
    metrics_->Add(m_.clamp_hits, clamp_hits);
  }
}

uint32_t SimilarityEngine::ActiveNeighborCount(NodeId v) const {
  uint32_t count = 0;
  for (const Neighbor& nb : graph_->Neighbors(v)) {
    if (Sigma(nb.edge) >= params_.epsilon) ++count;
  }
  return count;
}

NodeRole SimilarityEngine::Role(NodeId v) const {
  if (graph_->Degree(v) < params_.mu) return NodeRole::kPeriphery;
  if (ActiveNeighborCount(v) >= params_.mu) return NodeRole::kCore;
  return NodeRole::kPCore;
}

double SimilarityEngine::RecomputeNodeActivity(NodeId v) const {
  double total = 0.0;
  for (const Neighbor& nb : graph_->Neighbors(v)) {
    total += activeness_.Anchored(nb.edge);
  }
  return total;
}

double SimilarityEngine::RecomputeSigmaNumerator(EdgeId e) const {
  const auto& [u, v] = graph_->Endpoints(e);
  auto nu = graph_->Neighbors(u);
  auto nv = graph_->Neighbors(v);
  double total = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i].node < nv[j].node) {
      ++i;
    } else if (nu[i].node > nv[j].node) {
      ++j;
    } else {
      total += activeness_.Anchored(nu[i].edge) +
               activeness_.Anchored(nv[j].edge);
      ++i;
      ++j;
    }
  }
  return total;
}

void SimilarityEngine::OnRescale(double factor) {
  for (double& a : node_activity_) a *= factor;
  sigma_numerator_.ForEachMutable([factor](size_t, double& s) { s *= factor; });
  // Re-apply the clamp while scaling: a long-idle network must not
  // underflow similarities to zero (infinite distance weights). Clamped
  // edges break the uniform scale, so they are reported to the callback
  // for individual downstream repair.
  std::vector<EdgeId> clamped;
  const double lo = params_.min_similarity;
  const double hi = params_.max_similarity;
  similarity_.ForEachMutable([factor, lo, hi, &clamped](size_t e, double& s) {
    const double scaled = s * factor;
    s = std::clamp(scaled, lo, hi);
    if (s != scaled) clamped.push_back(static_cast<EdgeId>(e));
  });
  if (obs::kMetricsEnabled && metrics_ != nullptr) {
    metrics_->Add(m_.clamp_hits, clamped.size());
    metrics_->Add(m_.rescale_events);
    metrics_->Add(m_.rescale_clamped_edges, clamped.size());
  }
  if (rescale_callback_) rescale_callback_(factor, clamped);
}

void SimilarityEngine::BumpActiveness(EdgeId e, double delta) {
  const auto& [u, v] = graph_->Endpoints(e);
  node_activity_[u] += delta;
  node_activity_[v] += delta;
  // num(u,x) and num(v,x) gain `delta` for every common neighbor x of u and
  // v: the term (a(u,v) + a(x,v)) of num(u,x) contains a(u,v), symmetrically
  // for num(v,x). num(u,v) itself ranges over x != u,v and is unaffected.
  auto nu = graph_->Neighbors(u);
  auto nv = graph_->Neighbors(v);
  size_t i = 0;
  size_t j = 0;
  uint64_t numerator_updates = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i].node < nv[j].node) {
      ++i;
    } else if (nu[i].node > nv[j].node) {
      ++j;
    } else {
      sigma_numerator_.Mut(nu[i].edge) += delta;
      sigma_numerator_.Mut(nv[j].edge) += delta;
      numerator_updates += 2;
      ++i;
      ++j;
    }
  }
  if (obs::kMetricsEnabled && metrics_ != nullptr) {
    metrics_->Add(m_.activeness_updates);
    metrics_->Add(m_.sigma_cache_updates, numerator_updates);
  }
}

double SimilarityEngine::TriggerDelta(EdgeId e, NodeId u, NodeId v,
                                      ReinforceTermCounts* counts) const {
  const NodeRole role = Role(u);
  const double inv_deg = 1.0 / static_cast<double>(graph_->Degree(u));

  double af = 0.0;
  double tf = 0.0;
  double wsf = 0.0;
  uint64_t tf_terms = 0;
  uint64_t wsf_terms = 0;
  const bool needs_consolidation = role != NodeRole::kPeriphery;
  const bool needs_stretch = role != NodeRole::kCore;

  if (needs_consolidation) {
    // Direct consolidation: AF(e) = S(e) * sigma(u,v) / deg(u).
    af = similarity_[e] * Sigma(e) * inv_deg;
  }

  // One sorted merge of N(u) and N(v) yields both the common neighbors
  // (triadic consolidation) and the exclusive neighbors of u (wedge
  // stretch).
  auto nu = graph_->Neighbors(u);
  auto nv = graph_->Neighbors(v);
  size_t i = 0;
  size_t j = 0;
  while (i < nu.size()) {
    const NodeId w = nu[i].node;
    while (j < nv.size() && nv[j].node < w) ++j;
    if (j < nv.size() && nv[j].node == w) {
      if (needs_consolidation) {
        // TF term: sqrt(S(u,w) S(v,w)) * sigma(w,u) / deg(u).
        tf += std::sqrt(similarity_[nu[i].edge] * similarity_[nv[j].edge]) *
              Sigma(nu[i].edge) * inv_deg;
        ++tf_terms;
      }
      ++j;
    } else if (w != v && needs_stretch) {
      // WSF term over exclusive neighbors: S(w,u) * sigma(w,u) / deg(u).
      wsf += similarity_[nu[i].edge] * Sigma(nu[i].edge) * inv_deg;
      ++wsf_terms;
    }
    ++i;
  }

  if (counts != nullptr) {
    counts->af += needs_consolidation ? 1 : 0;
    counts->tf += tf_terms;
    counts->wsf += needs_stretch ? wsf_terms : 0;
  }

  switch (role) {
    case NodeRole::kCore:
      return af + tf;  // Eq. (2)
    case NodeRole::kPeriphery:
      return -wsf;  // Eq. (3)
    case NodeRole::kPCore:
      return af + tf - wsf;  // Eq. (4)
  }
  return 0.0;
}

void SimilarityEngine::Reinforce(EdgeId e) {
  const auto& [u, v] = graph_->Endpoints(e);
  const bool record = obs::kMetricsEnabled && metrics_ != nullptr;
  ReinforceTermCounts counts;
  ReinforceTermCounts* counts_ptr = record ? &counts : nullptr;
  // Both trigger-node deltas are computed from the pre-update S so the
  // result does not depend on endpoint order.
  const double delta =
      TriggerDelta(e, u, v, counts_ptr) + TriggerDelta(e, v, u, counts_ptr);
  similarity_.Mut(e) += delta;
  ClampSimilarity(e);
  if (record) {
    metrics_->Add(m_.reinforcements);
    if (counts.af > 0) metrics_->Add(m_.af_terms, counts.af);
    if (counts.tf > 0) metrics_->Add(m_.tf_terms, counts.tf);
    if (counts.wsf > 0) metrics_->Add(m_.wsf_terms, counts.wsf);
  }
}

void SimilarityEngine::ClampSimilarity(EdgeId e) {
  double& s = similarity_.Mut(e);
  const double raw = s;
  s = std::clamp(raw, params_.min_similarity, params_.max_similarity);
  if (obs::kMetricsEnabled && metrics_ != nullptr && s != raw) {
    metrics_->Add(m_.clamp_hits);
  }
}

SimilarityEngine::Snapshot SimilarityEngine::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.anchor_time = activeness_.anchor_time();
  snapshot.last_time = activeness_.last_time();
  snapshot.anchored_activeness.resize(graph_->NumEdges());
  for (EdgeId e = 0; e < graph_->NumEdges(); ++e) {
    snapshot.anchored_activeness[e] = activeness_.Anchored(e);
  }
  snapshot.similarity = similarity_.ToVector();
  snapshot.since_rescale = activeness_.since_rescale();
  snapshot.sigma_numerator = sigma_numerator_.ToVector();
  return snapshot;
}

Status SimilarityEngine::Restore(const Snapshot& snapshot) {
  const bool has_caches = !snapshot.node_activity.empty() ||
                          !snapshot.sigma_numerator.empty();
  if (snapshot.anchored_activeness.size() != graph_->NumEdges() ||
      snapshot.similarity.size() != graph_->NumEdges() ||
      (has_caches &&
       (snapshot.node_activity.size() != graph_->NumNodes() ||
        snapshot.sigma_numerator.size() != graph_->NumEdges()))) {
    return Status::InvalidArgument(
        "snapshot does not match the engine's graph");
  }
  ANC_RETURN_NOT_OK(activeness_.RestoreAnchored(
      snapshot.anchored_activeness, snapshot.anchor_time, snapshot.last_time,
      snapshot.since_rescale));
  similarity_.Assign(snapshot.similarity);
  for (EdgeId e = 0; e < graph_->NumEdges(); ++e) ClampSimilarity(e);
  if (has_caches) {
    node_activity_ = snapshot.node_activity;
    sigma_numerator_.Assign(snapshot.sigma_numerator);
    return Status::OK();
  }
  for (NodeId v = 0; v < graph_->NumNodes(); ++v) {
    node_activity_[v] = RecomputeNodeActivity(v);
  }
  for (EdgeId e = 0; e < graph_->NumEdges(); ++e) {
    sigma_numerator_.Set(e, RecomputeSigmaNumerator(e));
  }
  return Status::OK();
}

double SuggestEpsilon(const Graph& graph, double percentile) {
  ANC_CHECK(percentile >= 0.0 && percentile <= 1.0,
            "percentile must be in [0, 1]");
  if (graph.NumEdges() == 0) return 0.0;
  // Unit activeness: sigma(u,v) = 2 |N(u) cap N(v)| / (deg u + deg v).
  std::vector<double> sigmas(graph.NumEdges());
  for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
    const auto& [u, v] = graph.Endpoints(e);
    auto nu = graph.Neighbors(u);
    auto nv = graph.Neighbors(v);
    uint32_t common = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < nu.size() && j < nv.size()) {
      if (nu[i].node < nv[j].node) {
        ++i;
      } else if (nu[i].node > nv[j].node) {
        ++j;
      } else {
        ++common;
        ++i;
        ++j;
      }
    }
    sigmas[e] = 2.0 * common /
                static_cast<double>(graph.Degree(u) + graph.Degree(v));
  }
  std::sort(sigmas.begin(), sigmas.end());
  const size_t idx = std::min(
      sigmas.size() - 1, static_cast<size_t>(percentile * sigmas.size()));
  return sigmas[idx];
}

}  // namespace anc
