#ifndef ANC_OBS_HEALTH_H_
#define ANC_OBS_HEALTH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace anc::obs {

class Json;

/// Health states, ordered by severity.
enum class HealthState : uint8_t { kHealthy = 0, kDegraded = 1, kCritical = 2 };

const char* HealthStateName(HealthState state);

/// Per-shard observation folded into a scorecard. The shard layer builds
/// these from its servers (shard::CollectHealthSample); keeping the types
/// plain here lets the monitor live in obs without depending on serve or
/// shard.
struct ShardHealthSample {
  uint32_t shard = 0;
  uint64_t accepted = 0;        ///< per-shard tickets issued
  size_t queue_depth = 0;       ///< unapplied activations in the queue
  double queue_oldest_age_s = 0.0;  ///< age of the oldest queued entry
  uint64_t applied_seq = 0;     ///< published watermark ticket
  uint64_t durable_seq = 0;     ///< fsynced watermark ticket
  bool durable_enabled = false; ///< durability configured on this shard
  double view_age_s = 0.0;      ///< staleness of the published view
  uint64_t epoch = 0;
};

/// Cluster-wide observation: partitioner scorecard (ComputeStats) plus the
/// router's anc.shard.* counters.
struct ClusterHealthSample {
  uint32_t num_shards = 0;
  uint64_t num_edges = 0;
  uint64_t cut_edges = 0;
  double cut_ratio = 0.0;  ///< cut_edges / num_edges (static, ComputeStats)
  double balance = 0.0;    ///< max shard_nodes / (n / k); 1.0 is perfect
  uint64_t halo_partial = 0;  ///< fan-out deliveries a shard queue refused
  uint64_t accepted = 0;          ///< total tickets issued across shards
  uint64_t halo_deliveries = 0;   ///< fan-out deliveries for cut edges
  /// halo_deliveries / accepted: the cut ratio of the traffic actually
  /// ingested, as opposed to cut_ratio's static edge-census. A live stream
  /// concentrating on cut edges drives this above the static number — the
  /// drift signal the rebalancer (src/rebalance/) acts on.
  double observed_cut_ratio = 0.0;
  /// Vertex->shard assignment generation; bumps on live migration.
  uint64_t assignment_epoch = 0;
  std::vector<ShardHealthSample> shards;
};

/// Degraded / critical trip points. Every check trips kDegraded at the
/// degraded_* value and kCritical at the critical_* value; the report's
/// state is the worst tripped check. Defaults reflect docs/sharding.md:
/// LDG cuts ~10-20% of community-structured edges where hash approaches
/// (k-1)/k, so a 25% cut ratio separates "partitioner doing its job" from
/// "ingest dominated by halo duplication".
struct HealthThresholds {
  double degraded_cut_ratio = 0.25;
  double critical_cut_ratio = 0.60;
  double degraded_balance = 1.5;
  double critical_balance = 2.5;
  size_t degraded_queue_depth = 1024;
  size_t critical_queue_depth = 16384;
  double degraded_staleness_s = 0.5;  ///< queue oldest-entry age / view age
  double critical_staleness_s = 5.0;
  uint64_t degraded_durable_lag = 4096;  ///< applied_seq - durable_seq
  uint64_t critical_durable_lag = 65536;
  /// Ingest skew: max per-shard accepted / mean accepted. Only judged once
  /// total accepted reaches min_accepted_for_skew (early traffic is noise).
  double degraded_load_skew = 2.0;
  double critical_load_skew = 4.0;
  uint64_t min_accepted_for_skew = 1024;
  /// Observed-cut drift: observed_cut_ratio minus the static cut_ratio.
  /// Judged under the same min_accepted_for_skew floor. Sustained drift
  /// means the partition was computed for traffic that no longer exists;
  /// the fix is a rebalance (src/rebalance/, docs/sharding.md), so the
  /// degraded trip point matches CutMonitorOptions::drift_threshold.
  double degraded_cut_drift = 0.15;
  double critical_cut_drift = 0.40;
};

/// One shard's verdict: the tripped checks, each as a human-readable
/// reason string ("queue_depth 9000 >= 1024").
struct ShardScorecard {
  uint32_t shard = 0;
  HealthState state = HealthState::kHealthy;
  std::vector<std::string> reasons;
  ShardHealthSample sample;
};

struct HealthReport {
  HealthState overall = HealthState::kHealthy;
  /// Cluster-level verdict (cut ratio, balance, skew, halo_partial).
  HealthState cluster_state = HealthState::kHealthy;
  std::vector<std::string> cluster_reasons;
  std::vector<ShardScorecard> shards;
  ClusterHealthSample sample;

  Json ToJsonValue() const;
  std::string ToJson(int indent = 2) const;
  /// Multi-line human-readable rendering (the anc_cli `shard-health`
  /// command).
  std::string ToString() const;
};

/// Folds a ClusterHealthSample into per-shard scorecards and an overall
/// state (docs/observability.md). Pure function of (sample, thresholds) —
/// call it on every assessment; keep the monitor around to hold the
/// thresholds.
class ShardHealthMonitor {
 public:
  ShardHealthMonitor(HealthThresholds thresholds = {})  // NOLINT: implicit
      : thresholds_(thresholds) {}

  const HealthThresholds& thresholds() const { return thresholds_; }

  HealthReport Assess(const ClusterHealthSample& sample) const;

 private:
  HealthThresholds thresholds_;
};

}  // namespace anc::obs

#endif  // ANC_OBS_HEALTH_H_
