// Serving-layer throughput/latency benchmark (docs/serving.md): drives a
// one-shard ShardedServer with N producer threads racing a prepared community stream
// against M query threads hammering the snapshot read path, across the
// three backpressure policies and a producer/reader sweep. Reports ingest
// throughput, query p50/p99, observed staleness (activations behind the
// ingest frontier) and epochs published; full per-stage metrics go to
// bench_serve_throughput_stats.json via StatsJsonExporter ($ANC_STATS_DIR),
// with a per-run "timeseries" section of periodic TelemetryExporter deltas.
//
// ANC_SERVE_SMOKE=1 shrinks the workload for CI smoke runs
// (scripts/bench_smoke.sh). ANC_TRACE_FILE=<path> attaches a TraceSink so
// every run also emits correlated ingest/apply/publish spans as JSONL.

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "activation/stream_generators.h"
#include "bench/bench_common.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "serve/harness.h"
#include "shard/sharded_server.h"
#include "util/rng.h"
#include "util/timer.h"

namespace anc::bench {
namespace {

struct Workload {
  GroundTruthGraph data;
  ActivationStream stream;
};

Workload MakeWorkload(bool smoke) {
  PlantedPartitionParams pp;
  pp.num_communities = smoke ? 4 : 16;
  pp.min_size = smoke ? 10 : 40;
  pp.max_size = smoke ? 14 : 60;
  Rng rng(2022);
  Workload w{PlantedPartition(pp, rng), {}};
  const uint32_t steps = smoke ? 40 : 400;
  w.stream = CommunityBiasedStream(w.data.graph, w.data.truth.labels, steps,
                                   0.08, 4.0, rng);
  return w;
}

AncConfig ServeConfig() {
  AncConfig config;
  config.mode = AncMode::kOnline;
  return config;
}

shard::ShardedOptions OptionsFor(serve::BackpressurePolicy policy,
                                 size_t capacity) {
  shard::ShardedOptions options;
  options.partition.num_shards = 1;
  options.serve.ingest.policy = policy;
  options.serve.ingest.capacity = capacity;
  options.serve.ingest.clamp_out_of_order = true;  // racing producers
  options.serve.snapshot_every_activations = 32;
  options.serve.snapshot_max_age_s = 0.005;
  return options;
}

/// The shard engine's full snapshot (anc.serve.*, anc.apply.*, ...) plus
/// the router's query histograms (anc.shard.query_us, ...).
obs::StatsSnapshot ServerStats(const shard::ShardedServer& server) {
  obs::StatsSnapshot stats = server.ShardStats(0);
  const obs::StatsSnapshot router = server.metrics().Snapshot();
  stats.counters.insert(stats.counters.end(), router.counters.begin(),
                        router.counters.end());
  stats.histograms.insert(stats.histograms.end(), router.histograms.begin(),
                          router.histograms.end());
  return stats;
}

std::string Row(const std::string& label, const serve::HarnessReport& r) {
  PrintRow({label, std::to_string(r.accepted), FormatSci(r.ingest_per_sec),
            FormatDouble(r.query_p50_us, 1), FormatDouble(r.query_p99_us, 1),
            FormatDouble(r.mean_staleness_activations, 2),
            std::to_string(r.max_staleness_activations),
            std::to_string(r.dropped + r.rejected),
            std::to_string(r.failed), std::to_string(r.epochs)});
  return label;
}

/// Tick fast enough that even smoke runs retain a few per-interval deltas
/// (Stop() always takes a final sample, so no run exports empty).
obs::TelemetryOptions TelemetryTick() {
  obs::TelemetryOptions options;
  options.interval = std::chrono::milliseconds(100);
  return options;
}

/// One harness run against a fresh one-shard server; false when the
/// server cannot start.
bool RunOnce(const Workload& w, const shard::ShardedOptions& options,
             const serve::HarnessOptions& harness_options,
             obs::TraceSink* trace, const std::string& label,
             StatsJsonExporter& exporter) {
  auto created =
      shard::ShardedServer::Create(w.data.graph, ServeConfig(), options);
  if (!created.ok()) return false;
  shard::ShardedServer& server = *created.value();
  if (trace != nullptr) server.SetTraceSink(trace);
  if (!server.Start().ok()) return false;
  obs::TelemetryExporter telemetry([&server] { return ServerStats(server); },
                                   TelemetryTick());
  telemetry.Start();
  serve::ServeHarness harness(server.HarnessTarget(), harness_options);
  Timer timer;
  serve::HarnessReport report = harness.Run(w.stream);
  const double elapsed = timer.ElapsedSeconds();
  telemetry.Stop();
  server.Stop();
  Row(label, report);
  exporter.Add(label, ServerStats(server), elapsed, telemetry.samples());
  return true;
}

int Main() {
  const bool smoke = std::getenv("ANC_SERVE_SMOKE") != nullptr;
  Workload w = MakeWorkload(smoke);
  std::printf("graph: n=%u m=%u, stream: %zu activations%s\n",
              w.data.graph.NumNodes(), w.data.graph.NumEdges(),
              w.stream.size(), smoke ? " (smoke)" : "");

  StatsJsonExporter exporter("bench_serve_throughput");
  const std::unique_ptr<obs::TraceSink> trace = OpenTraceSinkFromEnv();
  PrintHeader("serve throughput: producers x query-threads sweep");
  PrintRow({"config", "accepted", "ingest/s", "q_p50us", "q_p99us",
            "stale_avg", "stale_max", "lost", "failed", "epochs"});

  // Producer/reader sweep under kBlock (the lossless default). The ISSUE's
  // acceptance bar — >= 4 concurrent query threads against live ingest —
  // is the (2, 4) and (4, 4) rows.
  const std::vector<std::pair<uint32_t, uint32_t>> sweep =
      smoke ? std::vector<std::pair<uint32_t, uint32_t>>{{1, 4}, {2, 4}}
            : std::vector<std::pair<uint32_t, uint32_t>>{
                  {1, 1}, {1, 4}, {2, 4}, {4, 4}, {4, 8}};
  for (const auto& [producers, readers] : sweep) {
    serve::HarnessOptions ho;
    ho.num_producers = producers;
    ho.num_query_threads = readers;
    if (!RunOnce(w, OptionsFor(serve::BackpressurePolicy::kBlock, 4096), ho,
                 trace.get(),
                 "block_p" + std::to_string(producers) + "_q" +
                     std::to_string(readers),
                 exporter)) {
      return 1;
    }
  }

  // Backpressure policies under a deliberately tiny queue: kBlock stays
  // lossless, kDropOldest trades bounded loss for producer liveness,
  // kReject bounces the overflow back to the caller.
  PrintHeader("serve throughput: backpressure policies (capacity 64)");
  PrintRow({"config", "accepted", "ingest/s", "q_p50us", "q_p99us",
            "stale_avg", "stale_max", "lost", "failed", "epochs"});
  const std::vector<std::pair<std::string, serve::BackpressurePolicy>>
      policies = {{"block", serve::BackpressurePolicy::kBlock},
                  {"drop_oldest", serve::BackpressurePolicy::kDropOldest},
                  {"reject", serve::BackpressurePolicy::kReject}};
  for (const auto& [name, policy] : policies) {
    serve::HarnessOptions ho;
    ho.num_producers = 2;
    ho.num_query_threads = 4;
    if (!RunOnce(w, OptionsFor(policy, 64), ho, trace.get(), name,
                 exporter)) {
      return 1;
    }
  }

  const std::string path = exporter.Flush();
  if (!path.empty()) std::printf("\nstats: %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace anc::bench

int main() { return anc::bench::Main(); }
