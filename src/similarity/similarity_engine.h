#ifndef ANC_SIMILARITY_SIMILARITY_ENGINE_H_
#define ANC_SIMILARITY_SIMILARITY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "activation/activeness.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace anc::check {
class TestHooks;
}  // namespace anc::check

namespace anc {

/// Node roles of Section IV-B. The three types disjointly partition V:
///  - kCore:      |N_eps(v)| >= mu           (leads a community)
///  - kPCore:     deg(v) >= mu but not core  (potential core)
///  - kPeriphery: deg(v) < mu                (can never be a core)
enum class NodeRole : uint8_t { kCore, kPCore, kPeriphery };

/// Parameters of the similarity layer (Table II).
struct SimilarityParams {
  double lambda = 0.1;   ///< time-decay factor
  double epsilon = 0.4;  ///< active-neighbor similarity threshold
  uint32_t mu = 3;       ///< core threshold on |N_eps(v)|
  /// Anchored similarity floor: wedge stretch may push a similarity to or
  /// below zero; the similarity is clamped here so the distance weight 1/S
  /// stays finite and positive (Attractor's truncation, adapted).
  double min_similarity = 1e-9;
  /// Numeric ceiling guarding against runaway consolidation on degenerate
  /// graphs (cliques reinforced for many repetitions).
  double max_similarity = 1e15;
  /// Initial activeness of every edge ("The initial edge activeness is 1",
  /// Section VI).
  double initial_activeness = 1.0;
  /// Activations between batched rescales (Lemma 1); 0 keeps the
  /// ActivenessStore default (1<<20). The precision guard always applies;
  /// small values force frequent rescales (used by the decay-maintenance
  /// ablation and the differential oracle to stress the ScaleAll path).
  uint64_t rescale_interval = 0;
};

/// Maintains, on top of an ActivenessStore, everything Section IV derives
/// from the activeness:
///
///  - per-node activity sums  A(v) = sum_{x in N(v)} a(v,x)
///  - per-edge sigma numerators
///        num(u,v) = sum_{x in N(u) cap N(v)} (a(u,x) + a(v,x))
///    so the active similarity sigma(u,v) = num(u,v) / (A(u) + A(v)) is an
///    O(1) lookup (sigma is NeuM: the global factor cancels, Lemma 3)
///  - the similarity function S_t (PosM, Lemma 4), updated by the three
///    local-reinforcement processes AF / TF / WSF (Eqs. 2-4)
///  - the distance weight S_t^{-1} (NegM, Lemma 6) consumed by the pyramid
///    index.
///
/// Everything is stored *anchored* at the shared anchor time of the
/// ActivenessStore; because sigma is a ratio of PosM quantities and every
/// reinforcement term is (a product of) PosM quantities, the reinforcement
/// arithmetic runs directly on anchored values with the global factor never
/// materializing. The only place the factor g(t, t*) appears is the +1
/// activeness bump of an activation.
///
/// Per-activation maintenance cost is O(deg(u) + deg(v)) (Lemma 5):
///  - activeness bump: O(1)
///  - A(u), A(v): O(1)
///  - numerators: one sorted merge of N(u) and N(v), +delta on the <=
///    min(deg) triangle edges
///  - reinforcement: one sorted merge per trigger node, O(1) sigma lookups.
class SimilarityEngine {
 public:
  /// `metrics`, when non-null, receives the layer's anc.sim.* counters
  /// (activeness/sigma-cache updates, AF/TF/WSF reinforcement terms, clamp
  /// hits, rescale events) and PosM store-size gauges; it must outlive the
  /// engine. Null disables recording.
  SimilarityEngine(const Graph& graph, SimilarityParams params,
                   obs::MetricsRegistry* metrics = nullptr);

  SimilarityEngine(const SimilarityEngine&) = delete;
  SimilarityEngine& operator=(const SimilarityEngine&) = delete;

  const Graph& graph() const { return *graph_; }
  const SimilarityParams& params() const { return params_; }
  const ActivenessStore& activeness() const { return activeness_; }

  /// Static initialization of S_0 (Section IV-C): every edge gets activeness
  /// `initial_activeness` at t = 0 (the paper's "stream initialized with
  /// activations over all edges"), S = 1 on every edge, then `rep` full
  /// local-reinforcement sweeps over E. rep = 0 leaves S uniformly 1 (pure
  /// hop distance). Resets any previously applied stream.
  void InitializeStatic(uint32_t rep);

  /// ANCF snapshot recompute: keeps the current activeness, resets S to 1
  /// and re-propagates with `rep` reinforcement sweeps.
  void RecomputeFromActiveness(uint32_t rep);

  /// Full pipeline for one activation (e, t): activeness += 1, sigma caches
  /// updated, local reinforcement applied with trigger edge e. Returns the
  /// updated anchored distance weight of e via `new_weight` (for the index
  /// update) if non-null.
  Status ApplyActivation(EdgeId e, double t, double* new_weight = nullptr);

  /// Like ApplyActivation, but tolerates timestamps behind the engine's
  /// clock (ActivenessStore::ActivateAnchored): the replica-import path of
  /// live shard migration replays one component's history into an engine
  /// whose other components already advanced the clock. Exact in anchored
  /// space — sigma and reinforcement are state functions of the anchored
  /// activeness, so a late replay converges byte-identically.
  Status ApplyActivationAnchored(EdgeId e, double t,
                                 double* new_weight = nullptr);

  /// Like ApplyActivation but skips the reinforcement step: only the
  /// activeness and sigma caches advance. Used by the offline ANCF variant,
  /// whose S is snapshot-derived (RecomputeFromActiveness).
  Status ApplyActivationNoReinforce(EdgeId e, double t,
                                    double* delta = nullptr);

  /// One local-reinforcement pass with trigger edge e, without touching the
  /// activeness (ANCOR's periodic consolidation of recently active edges).
  void ReinforceEdge(EdgeId e) { Reinforce(e); }

  /// `rounds` full reinforcement sweeps over all edges without adding
  /// activeness (the rep-rounds of S_0 and of ANCF's snapshot recompute).
  /// Leaves S bit-identical to ReinforceEdge(e) for e ascending, `rounds`
  /// times over. Since a sweep never touches the activeness, each sigma and
  /// each role is computed once for all rounds: O(n + rounds * sum over
  /// edges of deg(u) + deg(v)), with two doubles per edge of scratch, freed
  /// on return.
  void ReinforceAllEdges(uint32_t rounds = 1);

  /// Anchored active similarity sigma(u, v) of edge e. O(1).
  double Sigma(EdgeId e) const {
    const auto& [u, v] = graph_->Endpoints(e);
    const double denom = node_activity_[u] + node_activity_[v];
    return denom > 0.0 ? sigma_numerator_[e] / denom : 0.0;
  }

  /// Anchored similarity S*(e). The true S_t(e) is S*(e) * g(t, t*).
  double Similarity(EdgeId e) const { return similarity_[e]; }

  /// Anchored distance weight 1/S*(e) consumed by the pyramid index.
  /// The true weight is (1/S*(e)) * g^{-1}(t, t*) (Lemma 10); since the
  /// factor is shared by all edges it never changes shortest-path structure,
  /// so the index only ever sees anchored weights.
  double Weight(EdgeId e) const { return 1.0 / similarity_[e]; }

  /// |N_eps(v)|: number of neighbors with sigma >= epsilon. O(deg v).
  uint32_t ActiveNeighborCount(NodeId v) const;

  /// Role of v under the current sigma (core / p-core / periphery).
  NodeRole Role(NodeId v) const;

  /// Direct-computation cross-checks used by tests and the invariant
  /// checker: recompute A(v) and num(e) from scratch and compare against
  /// the incremental caches.
  double RecomputeNodeActivity(NodeId v) const;
  double RecomputeSigmaNumerator(EdgeId e) const;

  /// The incrementally maintained caches themselves (anchored), exposed so
  /// the anc::check validators can diff them against the recomputations.
  double NodeActivity(NodeId v) const { return node_activity_[v]; }
  const std::vector<double>& NodeActivities() const { return node_activity_; }
  double SigmaNumerator(EdgeId e) const { return sigma_numerator_[e]; }

  /// Complete anchored state of the engine (serialization support).
  struct Snapshot {
    double anchor_time = 0.0;
    double last_time = 0.0;
    /// Activations since the last batched rescale, so a restored engine
    /// rescales where the original would have.
    uint64_t since_rescale = 0;
    std::vector<double> anchored_activeness;  // per edge
    std::vector<double> similarity;           // per edge
    /// The sigma caches A(v) (per node) and num(e) (per edge). The live
    /// engine accumulates them by += delta, which a summation from the
    /// activeness matches only to a few ULPs; empty vectors (checkpoints
    /// older than ANCTHD01 version 3) are recomputed on Restore.
    std::vector<double> node_activity;
    std::vector<double> sigma_numerator;
  };

  /// Captures the per-edge state, the sigma numerators included; A(v) is
  /// left empty (NodeActivities() hands it out without a copy), so Restore
  /// takes a snapshot only once node_activity is filled in.
  Snapshot TakeSnapshot() const;

  /// Restores a snapshot taken from an engine over the same graph. Sigma
  /// caches the snapshot lacks are rebuilt, O(n + sum_e min-deg).
  Status Restore(const Snapshot& snapshot);

  /// Hands the per-edge arrays (anchored activeness, similarity, sigma
  /// numerators) to a storage tier (docs/storage_tiers.md): inactive pages
  /// spill to mmap'd cold segments under the host's budget and promote
  /// transparently on the next write.
  void AttachTier(tier::ColumnHost* host) {
    activeness_.AttachTier(host);
    similarity_.Attach(host, tier::kColSimilarity);
    sigma_numerator_.Attach(host, tier::kColSigma);
  }

  /// Registers a callback fired with the rescale factor g after a batched
  /// rescale has been folded into the engine's anchored state. Consumers
  /// holding derived NegM state (the pyramid index's distance weights,
  /// which scale by 1/g) use it to stay on the same anchor (Lemma 10).
  /// `clamped` lists the edges whose similarity hit the clamp during the
  /// rescale — their weights did NOT scale uniformly and need individual
  /// repair.
  void SetRescaleCallback(
      std::function<void(double factor, const std::vector<EdgeId>& clamped)>
          callback) {
    rescale_callback_ = std::move(callback);
  }

 private:
  /// Test-only corruption seam for tests/check_test.cc: deliberately breaks
  /// individual invariants to prove the anc::check validators catch them.
  friend class ::anc::check::TestHooks;

  /// Per-reinforcement counts of applied AF/TF/WSF terms (observability).
  struct ReinforceTermCounts {
    uint64_t af = 0;
    uint64_t tf = 0;
    uint64_t wsf = 0;
  };

  /// Scales all anchored state by `factor` (batched rescale hook).
  void OnRescale(double factor);

  /// Updates sigma caches for an activeness increase of `delta` on edge e.
  void BumpActiveness(EdgeId e, double delta);

  /// Local reinforcement of Section IV-B with trigger edge e. Reads the
  /// pre-update S for both trigger nodes, then applies both deltas.
  void Reinforce(EdgeId e);

  /// Contribution of trigger node `u` (the other endpoint is `v`): returns
  /// the signed delta to S(e) per the role formulas (Eqs. 2-4). When
  /// `counts` is non-null the applied term counts are accumulated into it.
  double TriggerDelta(EdgeId e, NodeId u, NodeId v,
                      ReinforceTermCounts* counts) const;

  void ClampSimilarity(EdgeId e);

  const Graph* graph_;
  SimilarityParams params_;
  ActivenessStore activeness_;
  // A(v) stays resident (per-node, hot on every sigma lookup); the
  // per-edge arrays are tierable columns (docs/storage_tiers.md).
  std::vector<double> node_activity_;          // A(v), anchored
  tier::Column<double> sigma_numerator_;       // num(e), anchored
  tier::Column<double> similarity_;            // S*(e), anchored
  std::function<void(double, const std::vector<EdgeId>&)> rescale_callback_;

  obs::MetricsRegistry* metrics_ = nullptr;
  struct {
    obs::CounterId activeness_updates;
    obs::CounterId sigma_cache_updates;
    obs::CounterId reinforcements;
    obs::CounterId af_terms;
    obs::CounterId tf_terms;
    obs::CounterId wsf_terms;
    obs::CounterId clamp_hits;
    obs::CounterId rescale_events;
    obs::CounterId rescale_clamped_edges;
  } m_;
};

/// Suggests a graph-dependent active-neighbor threshold epsilon: the given
/// percentile (in [0, 1]) of the initial (unit-activeness) active-similarity
/// distribution over all edges. The paper tunes epsilon per dataset (Table
/// II: "graph-dependent, value setting reported in the technical report");
/// this helper reproduces that tuning mechanically. Typical percentile: 0.6.
double SuggestEpsilon(const Graph& graph, double percentile = 0.6);

}  // namespace anc

#endif  // ANC_SIMILARITY_SIMILARITY_ENGINE_H_
