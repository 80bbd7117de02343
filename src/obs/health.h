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
/// plain here lets Assess live in obs without depending on serve or
/// shard.
struct ShardHealthSample {
  uint32_t shard = 0;
  uint64_t accepted = 0;        ///< per-shard tickets issued
  size_t queue_depth = 0;       ///< unapplied activations in the queue
  size_t queue_capacity = 0;    ///< the queue's bound (0: not reported)
  double queue_oldest_age_s = 0.0;  ///< age of the oldest queued entry
  uint64_t applied_seq = 0;     ///< published watermark ticket
  uint64_t durable_seq = 0;     ///< fsynced watermark ticket
  bool durable_enabled = false; ///< durability configured on this shard
  double view_age_s = 0.0;      ///< published view's age while work is owed
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

/// One shard's verdict: the tripped checks, each as a human-readable
/// reason string ("queue_depth 256 >= capacity 256").
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
/// state (docs/observability.md). Every check trips kDegraded and
/// kCritical at fixed trip points (health.cc); the report's state is the
/// worst tripped check.
HealthReport Assess(const ClusterHealthSample& sample);

}  // namespace anc::obs

#endif  // ANC_OBS_HEALTH_H_
