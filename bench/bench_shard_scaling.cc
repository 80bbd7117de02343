// Sharded-ingest scaling benchmark (docs/sharding.md): sweeps shard count
// x partitioner over the serve-bench workload (the planted-partition graph
// and community-biased stream of bench_serve_throughput, under its p2/q4
// harness mix) and reports ingest throughput (and speedup over the
// "single" row, a k=1 ShardedServer: the same stack minus sharding),
// merged scatter-gather query p50/p99, cut ratio, balance and halo
// traffic. The "ldg_s4" row's speedup column is the 4-shard scaling
// figure; each run's row in bench_shard_scaling_stats.json
// (StatsJsonExporter, $ANC_STATS_DIR) carries it as the
// bench.ingest_per_sec / bench.speedup_x100 gauges next to the full router
// metrics, plus a "timeseries" section of periodic TelemetryExporter
// deltas. ANC_TRACE_FILE=<path> attaches a TraceSink so every run also
// emits correlated routed-ingest and scatter-gather spans as JSONL.
//
// ANC_SHARD_SMOKE=1 keeps the full-size workload (a toy graph cannot show
// scaling) but trims the sweep to the acceptance rows — single, hash_s4,
// ldg_s4 — so scripts/bench_smoke.sh and CI finish in seconds.

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "activation/stream_generators.h"
#include "bench/bench_common.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "serve/harness.h"
#include "shard/partitioner.h"
#include "shard/sharded_server.h"
#include "util/rng.h"
#include "util/timer.h"

namespace anc::bench {
namespace {

struct Workload {
  GroundTruthGraph data;
  ActivationStream stream;
};

/// Same shape as bench_serve_throughput's workload (the acceptance
/// criterion compares against the single-writer serve bench). Full-size
/// even under smoke: shard scaling is invisible on a toy graph.
Workload MakeWorkload() {
  PlantedPartitionParams pp;
  pp.num_communities = 16;
  pp.min_size = 40;
  pp.max_size = 60;
  Rng rng(2022);
  Workload w{PlantedPartition(pp, rng), {}};
  w.stream = CommunityBiasedStream(w.data.graph, w.data.truth.labels,
                                   /*steps=*/400, 0.08, 4.0, rng);
  return w;
}

/// Stamps the row's headline numbers into the exported snapshot so
/// BENCH_shard.json carries them directly (speedup_x100 = 2.51x -> 251).
void AddRun(StatsJsonExporter& exporter, const std::string& label,
            obs::StatsSnapshot stats, const serve::HarnessReport& report,
            double speedup, double elapsed,
            std::vector<obs::TelemetrySample> timeseries) {
  stats.gauges.push_back(
      {"bench.ingest_per_sec",
       static_cast<int64_t>(report.ingest_per_sec + 0.5)});
  stats.gauges.push_back(
      {"bench.speedup_x100", static_cast<int64_t>(speedup * 100.0 + 0.5)});
  stats.gauges.push_back(
      {"bench.query_p99_us",
       static_cast<int64_t>(report.query_p99_us + 0.5)});
  exporter.Add(label, std::move(stats), elapsed, std::move(timeseries));
}

/// Tick fast enough that even the smoke sweep retains a few per-interval
/// deltas (Stop() always takes a final sample, so no run exports empty).
obs::TelemetryOptions TelemetryTick() {
  obs::TelemetryOptions options;
  options.interval = std::chrono::milliseconds(100);
  return options;
}

AncConfig ServeConfig() {
  AncConfig config;
  config.mode = AncMode::kOnline;
  return config;
}

serve::ServeOptions ShardServeOptions() {
  serve::ServeOptions options;
  options.ingest.capacity = 131072;
  options.ingest.clamp_out_of_order = true;  // racing producers
  options.snapshot_every_activations = 32;
  options.snapshot_max_age_s = 0.005;
  return options;
}

void Row(const std::string& label, const serve::HarnessReport& r,
         double speedup, double cut_ratio, double balance, uint64_t halo) {
  PrintRow({label, std::to_string(r.accepted), FormatSci(r.ingest_per_sec),
            FormatDouble(speedup, 2), FormatDouble(r.query_p50_us, 1),
            FormatDouble(r.query_p99_us, 1),
            FormatDouble(cut_ratio * 100.0, 1), FormatDouble(balance, 2),
            std::to_string(halo)});
}

int Main() {
  const bool smoke = std::getenv("ANC_SHARD_SMOKE") != nullptr;
  Workload w = MakeWorkload();
  std::printf("graph: n=%u m=%u, stream: %zu activations%s\n",
              w.data.graph.NumNodes(), w.data.graph.NumEdges(),
              w.stream.size(), smoke ? " (smoke: acceptance rows only)" : "");

  StatsJsonExporter exporter("bench_shard_scaling");
  const std::unique_ptr<obs::TraceSink> trace = OpenTraceSinkFromEnv();
  serve::HarnessOptions ho;
  ho.num_producers = 2;
  ho.num_query_threads = 4;

  PrintHeader("shard scaling: shard-count x partitioner sweep");
  PrintRow({"config", "accepted", "ingest/s", "speedup", "q_p50us",
            "q_p99us", "cut%", "balance", "halo"});

  // One sweep row: a k-shard server driven through the harness. Returns
  // the row's ingest rate (0 on a failed start).
  const auto run = [&](const std::string& label, shard::PartitionerKind kind,
                       uint32_t num_shards, double baseline_per_sec) {
    shard::ShardedOptions options;
    options.partition.num_shards = num_shards;
    options.partition.kind = kind;
    options.partition.ldg_passes = 3;
    options.serve = ShardServeOptions();
    auto created =
        shard::ShardedServer::Create(w.data.graph, ServeConfig(), options);
    if (!created.ok()) {
      std::printf("create failed: %s\n", created.status().ToString().c_str());
      return 0.0;
    }
    shard::ShardedServer& server = *created.value();
    if (trace != nullptr) server.SetTraceSink(trace.get());
    if (!server.Start().ok()) return 0.0;
    obs::TelemetryExporter telemetry([&server] { return server.Stats(); },
                                     TelemetryTick());
    telemetry.Start();
    serve::ServeHarness harness(server.HarnessTarget(), ho);
    Timer timer;
    serve::HarnessReport report = harness.Run(w.stream);
    const double elapsed = timer.ElapsedSeconds();
    telemetry.Stop();
    server.Stop();
    const shard::PartitionStats& stats = server.partition_stats();
    const double speedup = baseline_per_sec > 0.0
                               ? report.ingest_per_sec / baseline_per_sec
                               : 1.0;
    Row(label, report, speedup, stats.cut_ratio, stats.balance,
        server.halo_deliveries());
    AddRun(exporter, label, server.Stats(), report, speedup, elapsed,
           telemetry.samples());
    return report.ingest_per_sec;
  };

  // Baseline: the same stack with one shard, so every speedup below
  // measures sharding alone (not the batched routed submit path).
  const double baseline_per_sec =
      run("single", shard::PartitionerKind::kHash, 1, 0.0);
  if (baseline_per_sec <= 0.0) return 1;

  std::vector<std::pair<shard::PartitionerKind, uint32_t>> sweep;
  if (smoke) {
    sweep = {{shard::PartitionerKind::kHash, 4},
             {shard::PartitionerKind::kLdg, 4}};
  } else {
    for (const shard::PartitionerKind kind :
         {shard::PartitionerKind::kHash, shard::PartitionerKind::kLdg}) {
      for (const uint32_t num_shards : {2u, 4u, 8u}) {
        sweep.emplace_back(kind, num_shards);
      }
    }
  }
  for (const auto& [kind, num_shards] : sweep) {
    const std::string label = std::string(PartitionerKindName(kind)) + "_s" +
                              std::to_string(num_shards);
    if (run(label, kind, num_shards, baseline_per_sec) <= 0.0) return 1;
  }

  const std::string path = exporter.Flush();
  if (!path.empty()) std::printf("\nstats: %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace anc::bench

int main() { return anc::bench::Main(); }
