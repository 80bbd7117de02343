#ifndef ANC_REBALANCE_MONITOR_H_
#define ANC_REBALANCE_MONITOR_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "shard/partitioner.h"

namespace anc::rebalance {

/// Drift-detector knobs (docs/sharding.md "Rebalancing & live migration").
struct CutMonitorOptions {
  /// Windows with fewer accepted activations than this are skipped —
  /// early or idle traffic is noise, not drift.
  uint64_t min_window_accepted = 512;
  /// Consecutive over-threshold windows required before firing (debounce).
  uint32_t consecutive_windows = 2;
};

/// One cumulative reading of the router's delivery counters
/// (shard::ShardedServer: accepted(), halo_deliveries(), per-shard
/// accepted). The monitor differences consecutive samples itself.
struct CutSample {
  uint64_t accepted = 0;
  uint64_t halo_deliveries = 0;
  std::vector<uint64_t> shard_accepted;
};

/// Watches the *observed* cut — the fraction of routed activations that
/// fan out to a halo replica — against the partitioner's static cut
/// ratio. A stream whose community structure drifts away from the
/// partition raises the observed ratio long before the static scorecard
/// (which only knows edge counts) moves, so this EWMA is the rebalance
/// trigger. A window is over threshold when the observed cut EWMA exceeds
/// the static ratio by more than 0.15 (absolute), or when the ingest skew
/// EWMA exceeds 2.0; each EWMA weighs the newest window 0.3.
/// Single-threaded: call Update from one monitor loop.
class CutMonitor {
 public:
  explicit CutMonitor(CutMonitorOptions options = {}) : options_(options) {}

  const CutMonitorOptions& options() const { return options_; }

  /// Feeds one cumulative sample; differences it against the previous one
  /// and, when the window is big enough, folds the window's cut ratio and
  /// skew into the EWMAs and updates the debounce streak against
  /// `static_cut_ratio` (the partitioner's scorecard for the current
  /// assignment). Returns true when the window was counted.
  bool Update(const CutSample& sample, double static_cut_ratio);

  /// EWMA of halo deliveries per accepted activation (0 until the first
  /// counted window).
  double observed_cut_ratio() const { return cut_ewma_; }

  /// EWMA of max per-shard window share / fair share (1.0 = even).
  double ingest_skew() const { return skew_ewma_; }

  /// Windows counted so far.
  uint64_t windows() const { return windows_; }

  /// Trip decision: the EWMAs have been over threshold for at least
  /// consecutive_windows counted windows.
  bool ShouldRebalance() const {
    return windows_ > 0 &&
           over_threshold_streak_ >= options_.consecutive_windows;
  }

  /// Tells the monitor migrations just executed: clears the debounce
  /// streak and re-seeds the EWMAs at the next counted window. The EWMAs
  /// still carry pre-migration windows and would re-fire instantly even
  /// though the evidence describes an assignment that no longer exists.
  void NoteRebalanced() {
    over_threshold_streak_ = 0;
    reseed_ = true;
  }

 private:
  CutMonitorOptions options_;
  CutSample last_;
  bool has_last_ = false;
  bool reseed_ = false;
  double cut_ewma_ = 0.0;
  double skew_ewma_ = 1.0;
  uint64_t windows_ = 0;
  uint32_t over_threshold_streak_ = 0;
};

/// One planned ownership change.
struct RebalanceMove {
  NodeId node = 0;
  uint32_t from = 0;
  uint32_t to = 0;
  /// Activity-weighted neighbor mass gained by the move (how much hot
  /// traffic stops crossing the cut).
  double gain = 0.0;
};

struct PlanOptions {
  /// Per-round ceiling on moved vertices — migrations are deliberately
  /// incremental (each one briefly holds the route lock at finalize).
  uint32_t max_moves = 64;
  /// Capacity bound for receiving shards, as a multiple of ceil(n / k)
  /// (same meaning as PartitionOptions::balance_slack).
  double balance_slack = 1.1;
};

struct RebalancePlan {
  std::vector<RebalanceMove> moves;
  shard::PartitionStats before;     ///< static scorecard of the input
  shard::PartitionStats projected;  ///< scorecard after applying `moves`
};

/// Two-phase activity-weighted planner. Phase 1 treats each connected
/// component of *hot* vertices (activity >= 2 x mean)
/// as an indivisible atom and bin-packs the components, heaviest first,
/// onto the shard minimizing the resulting traffic load — shards already
/// holding much of a component win ties, so a consolidated community
/// stays put and equally-hot communities spread one per shard. Phase 2
/// is label-propagation refinement: each vertex compares the activity
/// mass of its neighbors per shard (edge (u,v) weighs
/// activity[u] + activity[v]) and moves to the shard holding most of it,
/// within both the node-count and traffic-load slack; hottest vertices
/// decide first against the *projected* assignment, and up to 12 sweeps
/// let stragglers follow. The plan holds the *net* moves of the
/// fixpoint, hottest first, capped at max_moves; ties and inactive
/// vertices stay put, so a stream that still matches the partition
/// yields an empty plan.
/// `edge_activity` (ActivityTracker::edge_activity(), size NumEdges)
/// decides which edges the component walk may traverse: two busy
/// communities joined by an idle structural edge are separate components
/// only under the edge signal. Pass empty to fall back to vertex
/// adjacency (any edge between two hot vertices connects them).
RebalancePlan PlanRebalance(const Graph& graph,
                            const shard::Partition& partition,
                            const std::vector<double>& activity,
                            const std::vector<double>& edge_activity,
                            const PlanOptions& options = {});

inline RebalancePlan PlanRebalance(const Graph& graph,
                                   const shard::Partition& partition,
                                   const std::vector<double>& activity,
                                   const PlanOptions& options = {}) {
  return PlanRebalance(graph, partition, activity, {}, options);
}

}  // namespace anc::rebalance

#endif  // ANC_REBALANCE_MONITOR_H_
