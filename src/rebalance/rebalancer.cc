#include "rebalance/rebalancer.h"

#include <algorithm>

namespace anc::rebalance {

Rebalancer::Rebalancer(shard::ShardedServer* server, RebalancerOptions options)
    : server_(server),
      options_(options),
      tracker_(server->graph()),
      monitor_(options.monitor),
      migrator_(server) {
  obs::MetricsRegistry& registry = server_->metrics();
  windows_ = registry.Counter("anc.rebalance.windows");
  triggers_ = registry.Counter("anc.rebalance.triggers");
  migrations_done_ = registry.Counter("anc.rebalance.migrations");
  migrations_failed_ = registry.Counter("anc.rebalance.migrations_failed");
  moved_vertices_ = registry.Counter("anc.rebalance.moved_vertices");
  observed_cut_x1000_ = registry.Gauge("anc.rebalance.observed_cut_x1000");
  static_cut_x1000_ = registry.Gauge("anc.rebalance.static_cut_x1000");
  ingest_skew_x1000_ = registry.Gauge("anc.rebalance.ingest_skew_x1000");
}

RebalanceOutcome Rebalancer::Step() {
  RebalanceOutcome outcome;
  tracker_.Rotate();

  CutSample sample;
  sample.accepted = server_->accepted();
  sample.halo_deliveries = server_->halo_deliveries();
  sample.shard_accepted.reserve(server_->num_shards());
  for (uint32_t s = 0; s < server_->num_shards(); ++s) {
    sample.shard_accepted.push_back(server_->shard(s).accepted());
  }
  const double static_cut = server_->partition_stats().cut_ratio;
  outcome.window_counted = monitor_.Update(sample, static_cut);

  obs::MetricsRegistry& registry = server_->metrics();
  if (outcome.window_counted) registry.Add(windows_);
  registry.Set(observed_cut_x1000_,
               static_cast<int64_t>(monitor_.observed_cut_ratio() * 1000.0));
  registry.Set(static_cut_x1000_,
               static_cast<int64_t>(static_cut * 1000.0));
  registry.Set(ingest_skew_x1000_,
               static_cast<int64_t>(monitor_.ingest_skew() * 1000.0));

  if (!monitor_.ShouldRebalance()) return outcome;
  outcome.triggered = true;
  registry.Add(triggers_);

  const std::shared_ptr<const shard::Router> router = server_->router();
  const RebalancePlan plan = PlanRebalance(
      server_->graph(), router->partition(), tracker_.activity(),
      tracker_.edge_activity(), options_.plan);
  outcome.planned_moves = plan.moves.size();
  Execute(plan, &outcome);
  return outcome;
}

RebalanceOutcome Rebalancer::RebalanceNow() {
  RebalanceOutcome outcome;
  tracker_.Rotate();
  const std::shared_ptr<const shard::Router> router = server_->router();
  const RebalancePlan plan = PlanRebalance(
      server_->graph(), router->partition(), tracker_.activity(),
      tracker_.edge_activity(), options_.plan);
  outcome.planned_moves = plan.moves.size();
  outcome.triggered = !plan.moves.empty();
  Execute(plan, &outcome);
  return outcome;
}

void Rebalancer::Execute(const RebalancePlan& plan,
                         RebalanceOutcome* outcome) {
  if (plan.moves.empty()) return;
  // One live migration per (from, to) pair — the handoff protocol moves
  // one owner/target pair at a time — richest pair first.
  std::map<std::pair<uint32_t, uint32_t>, std::vector<NodeId>> groups;
  std::map<std::pair<uint32_t, uint32_t>, double> gains;
  for (const RebalanceMove& move : plan.moves) {
    groups[{move.from, move.to}].push_back(move.node);
    gains[{move.from, move.to}] += move.gain;
  }
  std::vector<std::pair<uint32_t, uint32_t>> order;
  order.reserve(groups.size());
  for (const auto& [pair, nodes] : groups) order.push_back(pair);
  std::sort(order.begin(), order.end(),
            [&gains](const auto& a, const auto& b) {
              if (gains.at(a) != gains.at(b)) return gains.at(a) > gains.at(b);
              return a < b;  // deterministic order on gain ties
            });

  obs::MetricsRegistry& registry = server_->metrics();
  for (const auto& pair : order) {
    const std::vector<NodeId>& nodes = groups[pair];
    const Status status = migrator_.Migrate(nodes, pair.second);
    if (!status.ok()) {
      registry.Add(migrations_failed_);
      if (outcome->status.ok()) outcome->status = status;
      continue;
    }
    registry.Add(migrations_done_);
    registry.Add(moved_vertices_, nodes.size());
    ++outcome->migrations;
    outcome->migrated_vertices += nodes.size();
  }
  // The evidence in the monitor describes the pre-migration assignment:
  // start the debounce over so the next trip needs fresh windows.
  if (outcome->migrations > 0) monitor_.NoteRebalanced();
}

}  // namespace anc::rebalance
