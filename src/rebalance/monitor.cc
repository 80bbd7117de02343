#include "rebalance/monitor.h"

#include <algorithm>
#include <cmath>

namespace anc::rebalance {
namespace {

// CutMonitor: the EWMA weight of the newest window; a window is over
// threshold when the observed cut exceeds the static cut by more than
// kDriftThreshold (absolute) or the ingest skew exceeds kSkewThreshold.
constexpr double kEwmaAlpha = 0.3;
constexpr double kDriftThreshold = 0.15;
constexpr double kSkewThreshold = 2.0;
// PlanRebalance: a move must gain more than kMinGain; refinement stops
// after kPlanPasses sweeps (or the first sweep that commits nothing); a
// vertex is hot at kHotActivityFactor x the mean activity.
constexpr double kMinGain = 1e-9;
constexpr uint32_t kPlanPasses = 12;
constexpr double kHotActivityFactor = 2.0;

}  // namespace

bool CutMonitor::Update(const CutSample& sample, double static_cut_ratio) {
  if (!has_last_) {
    last_ = sample;
    has_last_ = true;
    return false;
  }
  const uint64_t accepted =
      sample.accepted >= last_.accepted ? sample.accepted - last_.accepted : 0;
  const uint64_t halo = sample.halo_deliveries >= last_.halo_deliveries
                            ? sample.halo_deliveries - last_.halo_deliveries
                            : 0;
  if (accepted < options_.min_window_accepted) {
    return false;  // keep last_: let sparse traffic accumulate into a window
  }

  const double cut = static_cast<double>(halo) / static_cast<double>(accepted);
  double skew = 1.0;
  if (!sample.shard_accepted.empty() &&
      sample.shard_accepted.size() == last_.shard_accepted.size()) {
    uint64_t max_delta = 0;
    uint64_t total_delta = 0;
    for (size_t s = 0; s < sample.shard_accepted.size(); ++s) {
      const uint64_t delta =
          sample.shard_accepted[s] >= last_.shard_accepted[s]
              ? sample.shard_accepted[s] - last_.shard_accepted[s]
              : 0;
      max_delta = std::max(max_delta, delta);
      total_delta += delta;
    }
    if (total_delta > 0) {
      const double fair = static_cast<double>(total_delta) /
                          static_cast<double>(sample.shard_accepted.size());
      skew = static_cast<double>(max_delta) / fair;
    }
  }

  if (windows_ == 0 || reseed_) {
    cut_ewma_ = cut;
    skew_ewma_ = skew;
    reseed_ = false;
  } else {
    cut_ewma_ = (1.0 - kEwmaAlpha) * cut_ewma_ + kEwmaAlpha * cut;
    skew_ewma_ = (1.0 - kEwmaAlpha) * skew_ewma_ + kEwmaAlpha * skew;
  }
  ++windows_;
  last_ = sample;

  // Debounce bookkeeping happens at window granularity so a single noisy
  // window cannot trip a migration.
  const bool drifted = cut_ewma_ > static_cut_ratio + kDriftThreshold;
  const bool skewed = skew_ewma_ > kSkewThreshold;
  over_threshold_streak_ = (drifted || skewed) ? over_threshold_streak_ + 1 : 0;
  return true;
}

RebalancePlan PlanRebalance(const Graph& graph,
                            const shard::Partition& partition,
                            const std::vector<double>& activity,
                            const std::vector<double>& edge_activity,
                            const PlanOptions& options) {
  RebalancePlan plan;
  plan.before = shard::ComputeStats(graph, partition);
  const uint32_t k = partition.num_shards;
  const uint32_t n = graph.NumNodes();
  if (k < 2 || n == 0 || activity.size() != n) return plan;
  const bool has_edge_signal = edge_activity.size() == graph.NumEdges();

  const size_t capacity = static_cast<size_t>(
      options.balance_slack *
      std::ceil(static_cast<double>(n) / static_cast<double>(k)));
  std::vector<size_t> shard_nodes(k, 0);
  for (const uint32_t s : partition.node_shard) ++shard_nodes[s];

  // Activity capacity for the refinement phase: per-shard traffic load
  // may not exceed its fair share by more than the slack. Node count
  // alone lets refinement pile two hot communities onto one full shard —
  // balanced by vertices, starved by traffic. (Phase 1 component
  // placement is exempt: a community is indivisible, so one hotter than
  // the fair share still has to land somewhere whole.)
  double total_activity = 0.0;
  for (const double a : activity) total_activity += a;
  const double activity_capacity =
      options.balance_slack * total_activity / static_cast<double>(k);
  std::vector<double> shard_load(k, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    shard_load[partition.node_shard[v]] += activity[v];
  }

  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&activity](NodeId a, NodeId b) {
    if (activity[a] != activity[b]) return activity[a] > activity[b];
    return a < b;  // deterministic order on ties
  });

  shard::Partition projected = partition;

  // Phase 1 — hot components move as atoms. Per-vertex greedy cannot fix
  // a hot community scattered evenly: its members see near-tied neighbor
  // mass on every shard, and once two communities share a full shard the
  // halves of a third are a stable fixpoint (each half anchors the
  // other). So find the connected components of the hot vertices
  // (activity >= kHotActivityFactor x mean — community traffic towers
  // over background noise) and bin-pack them, heaviest first, onto the
  // shard where the *resulting* load is smallest. Resulting load is
  // load[s] + A_c - aff[s], so shards already holding much of the
  // component win ties for free (stability: an already-consolidated
  // component stays put), while equally-hot components spread one per
  // shard instead of piling onto the fullest.
  const double mean_activity = total_activity / static_cast<double>(n);
  const double hot_threshold = kHotActivityFactor * mean_activity;
  // With an edge signal, the walk crosses only hot *edges*: two busy
  // communities joined by idle structural edges (whose endpoints are all
  // hot vertices) must remain separate atoms, or the merged component is
  // too big to place anywhere and the whole phase no-ops.
  double hot_edge_threshold = 0.0;
  if (has_edge_signal && graph.NumEdges() > 0) {
    double total_edge_activity = 0.0;
    for (const double a : edge_activity) total_edge_activity += a;
    hot_edge_threshold = kHotActivityFactor * total_edge_activity /
                         static_cast<double>(graph.NumEdges());
  }
  const auto traversable = [&](EdgeId e) {
    return !has_edge_signal ||
           (edge_activity[e] > 0.0 && edge_activity[e] >= hot_edge_threshold);
  };
  std::vector<std::vector<NodeId>> components;
  if (total_activity > 0.0) {
    std::vector<uint8_t> hot(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      hot[v] = activity[v] > 0.0 && activity[v] >= hot_threshold;
    }
    std::vector<uint8_t> visited(n, 0);
    std::vector<NodeId> stack;
    for (NodeId v = 0; v < n; ++v) {
      if (!hot[v] || visited[v]) continue;
      std::vector<NodeId> component;
      stack.push_back(v);
      visited[v] = 1;
      while (!stack.empty()) {
        const NodeId u = stack.back();
        stack.pop_back();
        component.push_back(u);
        for (const auto& nb : graph.Neighbors(u)) {
          if (hot[nb.node] && !visited[nb.node] && traversable(nb.edge)) {
            visited[nb.node] = 1;
            stack.push_back(nb.node);
          }
        }
      }
      components.push_back(std::move(component));
    }
  }
  std::vector<double> component_activity(components.size(), 0.0);
  for (size_t c = 0; c < components.size(); ++c) {
    for (const NodeId v : components[c]) {
      component_activity[c] += activity[v];
    }
  }
  std::vector<size_t> component_order(components.size());
  for (size_t c = 0; c < components.size(); ++c) component_order[c] = c;
  std::sort(component_order.begin(), component_order.end(),
            [&](size_t a, size_t b) {
              if (component_activity[a] != component_activity[b]) {
                return component_activity[a] > component_activity[b];
              }
              return components[a][0] < components[b][0];  // deterministic
            });

  for (const size_t c : component_order) {
    const std::vector<NodeId>& members = components[c];
    std::vector<double> aff_load(k, 0.0);
    std::vector<size_t> aff_nodes(k, 0);
    for (const NodeId v : members) {
      aff_load[projected.node_shard[v]] += activity[v];
      ++aff_nodes[projected.node_shard[v]];
    }
    uint32_t best = k;
    double best_load = 0.0;
    for (uint32_t s = 0; s < k; ++s) {
      // Feasible: the arrivals fit the node capacity, and no shard the
      // component vacates is left empty.
      if (shard_nodes[s] - aff_nodes[s] + members.size() > capacity) continue;
      bool empties_a_shard = false;
      for (uint32_t other = 0; other < k && !empties_a_shard; ++other) {
        empties_a_shard = other != s && aff_nodes[other] > 0 &&
                          shard_nodes[other] == aff_nodes[other];
      }
      if (empties_a_shard) continue;
      const double resulting =
          shard_load[s] + component_activity[c] - aff_load[s];
      if (best == k || resulting < best_load ||
          (resulting == best_load && aff_load[s] > aff_load[best])) {
        best = s;
        best_load = resulting;
      }
    }
    if (best == k) continue;  // nowhere it fits whole: leave it in place
    for (const NodeId v : members) {
      const uint32_t home = projected.node_shard[v];
      if (home == best) continue;
      --shard_nodes[home];
      ++shard_nodes[best];
      shard_load[home] -= activity[v];
      shard_load[best] += activity[v];
      projected.node_shard[v] = best;
    }
  }

  // Phase 2 — per-vertex refinement. Hottest vertices decide first, and
  // every later (cooler) vertex scores against the *projected* assignment
  // — committed moves included — so a border vertex follows where phase 1
  // put its neighbors. Extra passes let stragglers follow; the activity
  // cap keeps refinement (unlike an indivisible component) from piling
  // load past the slack.
  std::vector<double> mass(k, 0.0);
  bool changed = true;
  for (uint32_t pass = 0; pass < kPlanPasses && changed; ++pass) {
    changed = false;
    for (const NodeId v : order) {
      std::fill(mass.begin(), mass.end(), 0.0);
      for (const auto& nb : graph.Neighbors(v)) {
        mass[projected.node_shard[nb.node]] += activity[v] + activity[nb.node];
      }
      const uint32_t home = projected.node_shard[v];
      uint32_t best = home;
      for (uint32_t s = 0; s < k; ++s) {
        if (s == home || shard_nodes[s] + 1 > capacity) continue;
        if (total_activity > 0.0 &&
            shard_load[s] + activity[v] > activity_capacity) {
          continue;
        }
        if (mass[s] > mass[best]) best = s;
      }
      if (best == home || mass[best] - mass[home] <= kMinGain) continue;
      if (shard_nodes[home] == 1) continue;  // never empty a shard
      --shard_nodes[home];
      ++shard_nodes[best];
      shard_load[home] -= activity[v];
      shard_load[best] += activity[v];
      projected.node_shard[v] = best;
      changed = true;
    }
  }

  // Emit the *net* moves (fixpoint vs input): a vertex that wandered
  // through an intermediate shard while its community converged migrates
  // once, straight to its final owner. Hottest vertices first so a
  // max_moves truncation keeps the traffic that matters.
  size_t differing = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (projected.node_shard[v] != partition.node_shard[v]) ++differing;
  }
  for (const NodeId v : order) {
    if (plan.moves.size() >= options.max_moves) break;
    const uint32_t home = partition.node_shard[v];
    const uint32_t final = projected.node_shard[v];
    if (final == home) continue;
    std::fill(mass.begin(), mass.end(), 0.0);
    for (const auto& nb : graph.Neighbors(v)) {
      mass[projected.node_shard[nb.node]] += activity[v] + activity[nb.node];
    }
    plan.moves.push_back(RebalanceMove{v, home, final, mass[final] - mass[home]});
  }
  if (plan.moves.size() < differing) {
    // Truncated: recompute `projected` from the moves actually emitted so
    // the scorecard matches the plan.
    projected = partition;
    for (const RebalanceMove& move : plan.moves) {
      projected.node_shard[move.node] = move.to;
    }
  }
  plan.projected = plan.moves.empty() ? plan.before
                                      : shard::ComputeStats(graph, projected);
  return plan;
}

}  // namespace anc::rebalance
