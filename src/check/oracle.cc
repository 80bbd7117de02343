#include "check/oracle.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <vector>

#include "pyramid/clustering.h"
#include "pyramid/pyramid_index.h"

namespace anc::check {

namespace {

// The incremental activeness accumulates anchored increments and rescale
// factors; the naive reference sums fresh exponentials. Both drift a few
// ulps per activation.
constexpr double kActivenessTol = 1e-6;

/// Canonical form of a clustering: labels renumbered by first occurrence,
/// noise preserved. Two clusterings are the same partition iff their
/// canonical label vectors are equal.
std::vector<uint32_t> CanonicalLabels(const Clustering& clustering) {
  std::vector<uint32_t> mapping(clustering.num_clusters, kNoise);
  std::vector<uint32_t> out;
  out.reserve(clustering.labels.size());
  uint32_t next = 0;
  for (uint32_t label : clustering.labels) {
    if (label == kNoise) {
      out.push_back(kNoise);
      continue;
    }
    if (mapping[label] == kNoise) mapping[label] = next++;
    out.push_back(mapping[label]);
  }
  return out;
}

/// Eq. (1) evaluated directly from the stored activation history — the
/// reference the global-decay-factor maintenance must match. Supports the
/// engine's uniform initial activeness at t = 0.
class ReferenceActiveness {
 public:
  ReferenceActiveness(uint32_t num_edges, double lambda, double initial)
      : lambda_(lambda), initial_(initial), history_(num_edges) {}

  void Activate(EdgeId e, double t) { history_[e].push_back(t); }

  double At(EdgeId e, double t) const {
    double total = initial_ * std::exp(-lambda_ * t);
    for (double ti : history_[e]) total += std::exp(-lambda_ * (t - ti));
    return total;
  }

 private:
  double lambda_;
  double initial_;
  std::vector<std::vector<double>> history_;
};

void CompareActiveness(const AncIndex& anc, const ReferenceActiveness& ref,
                       double now, CheckReport* report) {
  const ActivenessStore& store = anc.engine().activeness();
  for (EdgeId e = 0; e < store.num_edges(); ++e) {
    const double incremental = store.ActivenessAt(e, now);
    const double truth = ref.At(e, now);
    const double tol =
        kActivenessTol * std::max({1.0, incremental, truth});
    if (std::abs(incremental - truth) > tol) {
      std::ostringstream out;
      out << "edge " << e << " at t=" << now << ": incremental "
          << incremental << ", Eq.(1) replay " << truth;
      report->Add("oracle.activeness", out.str());
    }
  }
}

// Matches the invariant checker's distance tolerance (see invariants.cc):
// used to tell a genuine divergence from an equal-distance tie.
constexpr double kTieTol = 1e-9;

bool TieClose(double a, double b) {
  if (a == b) return true;
  return std::abs(a - b) <= kTieTol * std::max({1.0, std::abs(a),
                                                std::abs(b)});
}

void CompareAgainstRebuild(const AncIndex& anc, CheckReport* report) {
  const Graph& g = anc.graph();
  const PyramidIndex& incremental = anc.index();
  std::vector<double> weights(g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    weights[e] = anc.engine().Weight(e);
  }
  // Same seed sets, current weights, fresh multi-source Dijkstras: exactly
  // the state an offline rebuild would produce.
  PyramidIndex rebuilt(g, std::move(weights), incremental.params(),
                       incremental.SeedSets());
  // Equal-distance ties: when a node sits at the same shortest distance
  // from two seeds, the incremental repair and the fresh Dijkstra may
  // legitimately keep different assignments (both are correct Voronoi
  // partitions). Such nodes — same distance, different seed — are excluded
  // from the exact vote comparison; a distance mismatch beyond tolerance
  // is a real divergence and is reported. tied[level-1][v] marks v tied in
  // at least one pyramid at that level.
  std::vector<std::vector<char>> tied(
      incremental.num_levels(), std::vector<char>(g.NumNodes(), 0));
  for (uint32_t p = 0; p < incremental.params().num_pyramids; ++p) {
    for (uint32_t level = 1; level <= incremental.num_levels(); ++level) {
      const VoronoiPartition& inc = incremental.partition(p, level);
      const VoronoiPartition& reb = rebuilt.partition(p, level);
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        if (inc.SeedOf(v) == reb.SeedOf(v)) continue;
        if (TieClose(inc.Dist(v), reb.Dist(v))) {
          tied[level - 1][v] = 1;
        } else {
          std::ostringstream out;
          out << "pyramid " << p << " level " << level << " node " << v
              << ": incremental seed " << inc.SeedOf(v) << " dist "
              << inc.Dist(v) << ", rebuilt seed " << reb.SeedOf(v)
              << " dist " << reb.Dist(v);
          report->Add("oracle.partition", out.str());
        }
      }
    }
  }
  for (uint32_t level = 1; level <= incremental.num_levels(); ++level) {
    bool level_has_tie = false;
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const auto [u, v] = g.Endpoints(e);
      if (tied[level - 1][u] != 0 || tied[level - 1][v] != 0) {
        level_has_tie = true;
        continue;  // vote flip explainable by a legitimate tie-break
      }
      if (incremental.VotesOf(e, level) != rebuilt.VotesOf(e, level)) {
        std::ostringstream out;
        out << "level " << level << " edge " << e << ": incremental votes "
            << incremental.VotesOf(e, level) << ", rebuilt "
            << rebuilt.VotesOf(e, level);
        report->Add("oracle.votes", out.str());
      }
    }
    // The clusterings are derived from the votes, so a tie anywhere in the
    // level can flip memberships both ways; compare only tie-free levels.
    if (level_has_tie) continue;
    const bool even_match =
        CanonicalLabels(EvenClustering(incremental, level)) ==
        CanonicalLabels(EvenClustering(rebuilt, level));
    if (!even_match) {
      std::ostringstream out;
      out << "level " << level << ": even clustering diverged from rebuild";
      report->Add("oracle.even_clustering", out.str());
    }
    const bool power_match =
        CanonicalLabels(PowerClustering(incremental, level)) ==
        CanonicalLabels(PowerClustering(rebuilt, level));
    if (!power_match) {
      std::ostringstream out;
      out << "level " << level << ": power clustering diverged from rebuild";
      report->Add("oracle.power_clustering", out.str());
    }
  }
}

/// The batched index must agree with the per-activation one to the byte:
/// ApplyBatch promises the result of one Apply per activation.
void CompareAgainstBatched(const AncIndex& anc, const AncIndex& batched,
                           CheckReport* report) {
  const PyramidIndex& single = anc.index();
  const PyramidIndex& batch = batched.index();
  for (uint32_t level = 1; level <= single.num_levels(); ++level) {
    for (EdgeId e = 0; e < anc.graph().NumEdges(); ++e) {
      if (single.VotesOf(e, level) != batch.VotesOf(e, level)) {
        std::ostringstream out;
        out << "level " << level << " edge " << e << ": Apply votes "
            << single.VotesOf(e, level) << ", ApplyBatch votes "
            << batch.VotesOf(e, level);
        report->Add("oracle.batch_votes", out.str());
      }
    }
    const Clustering even = EvenClustering(single, level);
    const Clustering even_batched = EvenClustering(batch, level);
    if (even.labels != even_batched.labels ||
        even.num_clusters != even_batched.num_clusters) {
      std::ostringstream out;
      out << "level " << level << ": even clustering differs under ApplyBatch";
      report->Add("oracle.batch_even_clustering", out.str());
    }
    const Clustering power = PowerClustering(single, level);
    const Clustering power_batched = PowerClustering(batch, level);
    if (power.labels != power_batched.labels ||
        power.num_clusters != power_batched.num_clusters) {
      std::ostringstream out;
      out << "level " << level
          << ": power clustering differs under ApplyBatch";
      report->Add("oracle.batch_power_clustering", out.str());
    }
  }
}

}  // namespace

OracleResult RunDifferentialOracle(const Graph& graph, const AncConfig& config,
                                   const ActivationStream& stream,
                                   const OracleOptions& options) {
  OracleResult result;
  const uint32_t interval = std::max<uint32_t>(options.checkpoint_interval, 1);

  auto created = AncIndex::Create(graph, config);
  if (!created.ok()) {
    result.report.Add("oracle.setup", created.status().ToString());
    return result;
  }
  AncIndex& anc = **created;
  // Fed the same prefix through ApplyBatch, one checkpoint interval per
  // call. The config already passed Create, so this one succeeds too.
  auto created_batched = AncIndex::Create(graph, config);
  AncIndex& batched = **created_batched;
  size_t batched_through = 0;  // stream prefix applied to `batched`
  ReferenceActiveness ref(graph.NumEdges(), config.similarity.lambda,
                          config.similarity.initial_activeness);

  auto checkpoint = [&](double now) {
    const std::span<const Activation> chunk(
        stream.data() + batched_through, result.activations - batched_through);
    const AncIndex::BatchOutcome outcome = batched.ApplyBatch(chunk);
    batched_through = result.activations;
    if (outcome.refused != 0) {
      result.report.Add("oracle.batch_apply",
                        outcome.first_error.ToString());
    }
    CompareAgainstBatched(anc, batched, &result.report);
    CompareActiveness(anc, ref, now, &result.report);
    CompareAgainstRebuild(anc, &result.report);
    if (options.validate_invariants) {
      CheckAll(anc.engine(), anc.index(), options.deep_partition_check,
               &result.report);
    } else if (options.deep_partition_check) {
      CheckPartitionsAgainstRebuild(anc.index(), &result.report);
    }
    ++result.checkpoints;
  };

  double now = 0.0;
  for (const Activation& activation : stream) {
    const Status status = anc.Apply(activation);
    if (!status.ok()) {
      std::ostringstream out;
      out << "activation " << result.activations << " (edge "
          << activation.edge << ", t=" << activation.time
          << "): " << status.ToString();
      result.report.Add("oracle.apply", out.str());
      return result;
    }
    ref.Activate(activation.edge, activation.time);
    now = activation.time;
    ++result.activations;
    if (result.activations % interval == 0) checkpoint(now);
  }
  if (stream.empty() || result.activations % interval != 0) checkpoint(now);
  return result;
}

}  // namespace anc::check
