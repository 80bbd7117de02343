#include "obs/health.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/json.h"

namespace anc::obs {

namespace {

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g", value);
  return buf;
}

HealthState Worse(HealthState a, HealthState b) {
  return static_cast<uint8_t>(a) >= static_cast<uint8_t>(b) ? a : b;
}

/// Applies one two-level threshold check; appends a reason and raises
/// `state` when tripped.
template <typename T>
void Check(const char* what, T value, T degraded, T critical,
           HealthState* state, std::vector<std::string>* reasons) {
  if (static_cast<double>(value) >= static_cast<double>(critical)) {
    *state = Worse(*state, HealthState::kCritical);
    reasons->push_back(std::string(what) + " " + FormatDouble(value) +
                       " >= critical " + FormatDouble(critical));
  } else if (static_cast<double>(value) >= static_cast<double>(degraded)) {
    *state = Worse(*state, HealthState::kDegraded);
    reasons->push_back(std::string(what) + " " + FormatDouble(value) +
                       " >= degraded " + FormatDouble(degraded));
  }
}

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kCritical:
      return "critical";
  }
  return "unknown";
}

HealthReport ShardHealthMonitor::Assess(
    const ClusterHealthSample& sample) const {
  HealthReport report;
  report.sample = sample;

  const HealthThresholds& t = thresholds_;
  Check("cut_ratio", sample.cut_ratio, t.degraded_cut_ratio,
        t.critical_cut_ratio, &report.cluster_state, &report.cluster_reasons);
  Check("balance", sample.balance, t.degraded_balance, t.critical_balance,
        &report.cluster_state, &report.cluster_reasons);
  if (sample.halo_partial > 0) {
    // Any refused fan-out delivery means a replica's boundary went stale —
    // never healthy, but not by itself an outage.
    report.cluster_state = Worse(report.cluster_state, HealthState::kDegraded);
    report.cluster_reasons.push_back(
        "halo_partial " + std::to_string(sample.halo_partial) + " > 0");
  }
  uint64_t total_accepted = 0;
  uint64_t max_accepted = 0;
  for (const ShardHealthSample& shard : sample.shards) {
    total_accepted += shard.accepted;
    max_accepted = std::max(max_accepted, shard.accepted);
  }
  if (!sample.shards.empty() &&
      total_accepted >= t.min_accepted_for_skew) {
    const double mean =
        static_cast<double>(total_accepted) / sample.shards.size();
    const double skew = mean > 0.0 ? max_accepted / mean : 0.0;
    Check("load_skew", skew, t.degraded_load_skew, t.critical_load_skew,
          &report.cluster_state, &report.cluster_reasons);
  }
  if (sample.accepted >= t.min_accepted_for_skew) {
    const double drift = sample.observed_cut_ratio - sample.cut_ratio;
    Check("cut_drift", drift, t.degraded_cut_drift, t.critical_cut_drift,
          &report.cluster_state, &report.cluster_reasons);
  }

  report.shards.reserve(sample.shards.size());
  for (const ShardHealthSample& shard : sample.shards) {
    ShardScorecard card;
    card.shard = shard.shard;
    card.sample = shard;
    Check("queue_depth", shard.queue_depth, t.degraded_queue_depth,
          t.critical_queue_depth, &card.state, &card.reasons);
    Check("queue_oldest_age_s", shard.queue_oldest_age_s,
          t.degraded_staleness_s, t.critical_staleness_s, &card.state,
          &card.reasons);
    Check("view_age_s", shard.view_age_s, t.degraded_staleness_s,
          t.critical_staleness_s, &card.state, &card.reasons);
    if (shard.durable_enabled) {
      const uint64_t lag = shard.applied_seq >= shard.durable_seq
                               ? shard.applied_seq - shard.durable_seq
                               : 0;
      Check("durable_lag", lag, t.degraded_durable_lag,
            t.critical_durable_lag, &card.state, &card.reasons);
    }
    report.shards.push_back(std::move(card));
  }

  report.overall = report.cluster_state;
  for (const ShardScorecard& card : report.shards) {
    report.overall = Worse(report.overall, card.state);
  }
  return report;
}

Json HealthReport::ToJsonValue() const {
  Json doc = Json::Object();
  doc.Set("overall", Json::Str(HealthStateName(overall)));
  Json cluster = Json::Object();
  cluster.Set("state", Json::Str(HealthStateName(cluster_state)));
  cluster.Set("num_shards", Json::Number(sample.num_shards));
  cluster.Set("cut_edges",
              Json::Number(static_cast<double>(sample.cut_edges)));
  cluster.Set("cut_ratio", Json::Number(sample.cut_ratio));
  cluster.Set("balance", Json::Number(sample.balance));
  cluster.Set("halo_partial",
              Json::Number(static_cast<double>(sample.halo_partial)));
  cluster.Set("accepted", Json::Number(static_cast<double>(sample.accepted)));
  cluster.Set("halo_deliveries",
              Json::Number(static_cast<double>(sample.halo_deliveries)));
  cluster.Set("observed_cut_ratio", Json::Number(sample.observed_cut_ratio));
  cluster.Set("assignment_epoch",
              Json::Number(static_cast<double>(sample.assignment_epoch)));
  Json cluster_reasons_json = Json::Array();
  for (const std::string& reason : cluster_reasons) {
    cluster_reasons_json.Append(Json::Str(reason));
  }
  cluster.Set("reasons", std::move(cluster_reasons_json));
  doc.Set("cluster", std::move(cluster));
  Json shards_json = Json::Array();
  for (const ShardScorecard& card : shards) {
    Json entry = Json::Object();
    entry.Set("shard", Json::Number(card.shard));
    entry.Set("state", Json::Str(HealthStateName(card.state)));
    entry.Set("accepted",
              Json::Number(static_cast<double>(card.sample.accepted)));
    entry.Set("queue_depth",
              Json::Number(static_cast<double>(card.sample.queue_depth)));
    entry.Set("queue_oldest_age_s",
              Json::Number(card.sample.queue_oldest_age_s));
    entry.Set("applied_seq",
              Json::Number(static_cast<double>(card.sample.applied_seq)));
    entry.Set("durable_seq",
              Json::Number(static_cast<double>(card.sample.durable_seq)));
    entry.Set("durable_enabled", Json::Bool(card.sample.durable_enabled));
    entry.Set("view_age_s", Json::Number(card.sample.view_age_s));
    entry.Set("epoch",
              Json::Number(static_cast<double>(card.sample.epoch)));
    Json reasons_json = Json::Array();
    for (const std::string& reason : card.reasons) {
      reasons_json.Append(Json::Str(reason));
    }
    entry.Set("reasons", std::move(reasons_json));
    shards_json.Append(std::move(entry));
  }
  doc.Set("shards", std::move(shards_json));
  return doc;
}

std::string HealthReport::ToJson(int indent) const {
  return ToJsonValue().Dump(indent);
}

std::string HealthReport::ToString() const {
  std::string out = "overall: ";
  out += HealthStateName(overall);
  out += "\ncluster: ";
  out += HealthStateName(cluster_state);
  out += " (shards=" + std::to_string(sample.num_shards) +
         " cut_ratio=" + FormatDouble(sample.cut_ratio) +
         " observed_cut=" + FormatDouble(sample.observed_cut_ratio) +
         " balance=" + FormatDouble(sample.balance) +
         " halo_partial=" + std::to_string(sample.halo_partial) +
         " assignment_epoch=" + std::to_string(sample.assignment_epoch) + ")";
  for (const std::string& reason : cluster_reasons) {
    out += "\n  ! " + reason;
  }
  for (const ShardScorecard& card : shards) {
    out += "\nshard " + std::to_string(card.shard) + ": ";
    out += HealthStateName(card.state);
    out += " (accepted=" + std::to_string(card.sample.accepted) +
           " depth=" + std::to_string(card.sample.queue_depth) +
           " applied=" + std::to_string(card.sample.applied_seq);
    if (card.sample.durable_enabled) {
      out += " durable=" + std::to_string(card.sample.durable_seq);
    }
    out += " epoch=" + std::to_string(card.sample.epoch) + ")";
    for (const std::string& reason : card.reasons) {
      out += "\n  ! " + reason;
    }
  }
  return out;
}

}  // namespace anc::obs
