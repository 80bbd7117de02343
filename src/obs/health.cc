#include "obs/health.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/json.h"

namespace anc::obs {

namespace {

// Degraded / critical trip points. A shard's queue depth is judged against
// the queue's own capacity instead: a full queue (producers blocked) is
// degraded, and the staleness checks grade how long it stays that way.
// LDG cuts ~10-20% of community-structured edges where hash approaches
// (k-1)/k (docs/sharding.md), so a 25% cut ratio separates "partitioner
// doing its job" from "ingest dominated by halo duplication".
constexpr double kDegradedCutRatio = 0.25;
constexpr double kCriticalCutRatio = 0.60;
constexpr double kDegradedBalance = 1.5;
constexpr double kCriticalBalance = 2.5;
/// Queue oldest-entry age and view age, in seconds.
constexpr double kDegradedStalenessS = 0.5;
constexpr double kCriticalStalenessS = 5.0;
/// applied_seq - durable_seq.
constexpr uint64_t kDegradedDurableLag = 4096;
constexpr uint64_t kCriticalDurableLag = 65536;
/// Ingest skew: max per-shard accepted / mean accepted.
constexpr double kDegradedLoadSkew = 2.0;
constexpr double kCriticalLoadSkew = 4.0;
/// Observed-cut drift: observed_cut_ratio minus the static cut_ratio.
/// Sustained drift means the partition was computed for traffic that no
/// longer exists; the fix is a rebalance (src/rebalance/), so the degraded
/// trip point matches the cut monitor's drift threshold.
constexpr double kDegradedCutDrift = 0.15;
constexpr double kCriticalCutDrift = 0.40;
/// Skew and drift are judged only from this many accepted tickets on
/// (early traffic is noise).
constexpr uint64_t kMinAcceptedForSkew = 1024;

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

HealthReport Assess(const ClusterHealthSample& sample) {
  HealthReport report;
  report.sample = sample;

  Check("cut_ratio", sample.cut_ratio, kDegradedCutRatio, kCriticalCutRatio,
        &report.cluster_state, &report.cluster_reasons);
  Check("balance", sample.balance, kDegradedBalance, kCriticalBalance,
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
  if (!sample.shards.empty() && total_accepted >= kMinAcceptedForSkew) {
    const double mean =
        static_cast<double>(total_accepted) / sample.shards.size();
    const double skew = mean > 0.0 ? max_accepted / mean : 0.0;
    Check("load_skew", skew, kDegradedLoadSkew, kCriticalLoadSkew,
          &report.cluster_state, &report.cluster_reasons);
  }
  if (sample.accepted >= kMinAcceptedForSkew) {
    const double drift = sample.observed_cut_ratio - sample.cut_ratio;
    Check("cut_drift", drift, kDegradedCutDrift, kCriticalCutDrift,
          &report.cluster_state, &report.cluster_reasons);
  }

  report.shards.reserve(sample.shards.size());
  for (const ShardHealthSample& shard : sample.shards) {
    ShardScorecard card;
    card.shard = shard.shard;
    card.sample = shard;
    if (shard.queue_capacity > 0 &&
        shard.queue_depth >= shard.queue_capacity) {
      card.state = Worse(card.state, HealthState::kDegraded);
      card.reasons.push_back(
          "queue_depth " + std::to_string(shard.queue_depth) +
          " >= capacity " + std::to_string(shard.queue_capacity));
    }
    Check("queue_oldest_age_s", shard.queue_oldest_age_s,
          kDegradedStalenessS, kCriticalStalenessS, &card.state,
          &card.reasons);
    Check("view_age_s", shard.view_age_s, kDegradedStalenessS,
          kCriticalStalenessS, &card.state, &card.reasons);
    if (shard.durable_enabled) {
      const uint64_t lag = shard.applied_seq >= shard.durable_seq
                               ? shard.applied_seq - shard.durable_seq
                               : 0;
      Check("durable_lag", lag, kDegradedDurableLag, kCriticalDurableLag,
            &card.state, &card.reasons);
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
