#ifndef ANC_REBALANCE_REBALANCER_H_
#define ANC_REBALANCE_REBALANCER_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "rebalance/activity.h"
#include "rebalance/migrator.h"
#include "rebalance/monitor.h"
#include "shard/sharded_server.h"
#include "util/status.h"

namespace anc::rebalance {

struct RebalancerOptions {
  CutMonitorOptions monitor;
  PlanOptions plan;
};

/// What one Step() decided and did.
struct RebalanceOutcome {
  bool window_counted = false;  ///< the monitor folded a full window in
  bool triggered = false;       ///< drift tripped the rebalance threshold
  uint64_t planned_moves = 0;
  uint64_t migrated_vertices = 0;
  uint64_t migrations = 0;  ///< migrations executed (one per target pair)
  Status status;            ///< first migration error, OK otherwise
};

/// The adaptive re-partitioning loop (docs/sharding.md "Rebalancing &
/// live migration"): tap the ingest stream (Observe), watch the observed
/// cut drift against the partitioner's static scorecard (Step), and when
/// it trips, plan activity-weighted moves and execute them as live
/// migrations. Everything is pull-based — the caller decides the cadence
/// by calling Step() from its own monitor loop; nothing here spawns
/// threads.
///
/// Observe() is any-thread; Step()/RebalanceNow() must come from one
/// coordinator thread (they drive the single-migration protocol).
class Rebalancer {
 public:
  /// `server` must outlive the rebalancer. Metrics land in the server's
  /// router-level registry under anc.rebalance.*.
  explicit Rebalancer(shard::ShardedServer* server,
                      RebalancerOptions options = {});

  /// Feeds one accepted activation into the activity tracker (call next
  /// to ShardedServer::Submit; cheap, lock-free).
  void Observe(const Activation& activation) {
    tracker_.Observe(activation.edge);
  }

  /// Closes one observation window: rotates the activity EWMAs, feeds the
  /// router's delivery counters to the cut monitor and — when drift has
  /// persisted past the debounce — plans and executes migrations.
  RebalanceOutcome Step();

  /// Plans and executes migrations from the current activity EWMAs,
  /// ignoring the drift trigger (the anc_cli `rebalance-now` path).
  RebalanceOutcome RebalanceNow();

  /// Hands `moving` (one current owner) to shard `to` right now, through
  /// this rebalancer's migrator — the anc_cli `migrate` path. Same
  /// contract as Migrator::Migrate.
  Status Migrate(const std::vector<NodeId>& moving, uint32_t to) {
    return migrator_.Migrate(moving, to);
  }

  const CutMonitor& monitor() const { return monitor_; }
  const ActivityTracker& tracker() const { return tracker_; }
  uint64_t migrations() const { return migrator_.migrations(); }

 private:
  /// Executes `plan` as one live migration per (from, to) shard pair,
  /// largest total gain first.
  void Execute(const RebalancePlan& plan, RebalanceOutcome* outcome);

  shard::ShardedServer* server_;
  RebalancerOptions options_;
  ActivityTracker tracker_;
  CutMonitor monitor_;
  Migrator migrator_;

  obs::CounterId windows_;
  obs::CounterId triggers_;
  obs::CounterId migrations_done_;
  obs::CounterId migrations_failed_;
  obs::CounterId moved_vertices_;
  obs::GaugeId observed_cut_x1000_;
  obs::GaugeId static_cut_x1000_;
  obs::GaugeId ingest_skew_x1000_;
};

}  // namespace anc::rebalance

#endif  // ANC_REBALANCE_REBALANCER_H_
