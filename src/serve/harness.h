#ifndef ANC_SERVE_HARNESS_H_
#define ANC_SERVE_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "activation/stream_io.h"
#include "util/status.h"

namespace anc::serve {

/// Load-generator configuration for ServeHarness.
struct HarnessOptions {
  uint32_t num_producers = 2;
  uint32_t num_query_threads = 4;
  /// Each query thread issues local-cluster queries on random nodes and,
  /// every `full_clusters_every` queries, one full Clusters() sweep
  /// (0 disables the full sweeps).
  uint32_t full_clusters_every = 64;
  uint64_t rng_seed = 1;
};

/// One harness run's scorecard (bench_serve_throughput and
/// scripts/bench_smoke.sh report these).
struct HarnessReport {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t dropped = 0;
  uint64_t rejected = 0;
  /// RunFile only: lines the stream loader skipped (malformed fields,
  /// non-edges, regressed timestamps) and the first one's "path:line:
  /// reason". Skips are also folded into the serve stats
  /// (anc.serve.load_skipped) so they never vanish silently.
  uint64_t load_skipped = 0;
  std::string load_first_error;
  double ingest_seconds = 0.0;
  double ingest_per_sec = 0.0;

  uint64_t queries = 0;
  /// Queries the target answered with an error (excluded from latency).
  uint64_t failed = 0;
  double query_p50_us = 0.0;
  double query_p99_us = 0.0;

  /// Staleness observed by queries: the target's ingest frontier minus its
  /// published watermark at query time (how many activations the answer is
  /// behind the ingest frontier).
  double mean_staleness_activations = 0.0;
  uint64_t max_staleness_activations = 0;

  uint64_t epochs = 0;

  std::string ToString() const;
};

/// The routing seam between the harness and whatever it drives: a bundle
/// of callbacks a serving stack satisfies — shard::ShardedServer
/// (ShardedServer::HarnessTarget) or a test double. All callbacks except
/// record_load_report are required and must be thread-safe: producers call
/// submit concurrently while query threads poll the counters and issue
/// queries.
struct HarnessTarget {
  std::function<Result<uint64_t>(const Activation&)> submit;
  std::function<Status(std::chrono::milliseconds)> flush;

  /// Ingest tallies for the report.
  std::function<uint64_t()> accepted;
  std::function<uint64_t()> dropped;
  std::function<uint64_t()> rejected;

  /// Staleness pair in one shared unit (e.g. resolved tickets): how far
  /// published answers lag the ingest frontier.
  std::function<uint64_t()> frontier;
  std::function<uint64_t()> view_seq;

  /// Snapshot publications over the target's lifetime.
  std::function<uint64_t()> epochs;

  /// Node-id domain the query threads draw from (0 disables queries).
  std::function<uint32_t()> num_nodes;

  /// Issue one full cluster sweep / one local-cluster query at the
  /// target's default granularity; return false when the query failed.
  std::function<bool()> query_clusters;
  std::function<bool(NodeId)> query_local;

  /// Optional: fold a stream loader's report into the target's stats.
  std::function<void(const StreamLoadReport&)> record_load_report;
};

/// Multi-threaded load driver: N producer threads race to submit a
/// prepared activation stream into a HarnessTarget while M query threads
/// hammer its snapshot read path; reports ingest throughput, query latency
/// quantiles and observed staleness. With more than one producer,
/// configure the target's ingest with clamp_out_of_order = true —
/// producers dispatch stream entries in order but race at the queue
/// boundary.
class ServeHarness {
 public:
  /// Drives `target` (e.g. a ShardedServer routing to k >= 1 shards). The
  /// callbacks must stay valid for the harness lifetime.
  ServeHarness(HarnessTarget target, HarnessOptions options);

  /// Drives the full stream through the target (blocking), then flushes.
  /// Query threads run for the whole ingest window. Reusable.
  HarnessReport Run(const ActivationStream& stream);

  /// Loads "u v t" lines from `path` (skipping bad lines), records the
  /// loader's report into the target's stats, then runs the loaded
  /// stream. Fails only when the file itself is unreadable.
  Result<HarnessReport> RunFile(const Graph& g, const std::string& path);

 private:
  HarnessTarget target_;
  HarnessOptions options_;
};

}  // namespace anc::serve

#endif  // ANC_SERVE_HARNESS_H_
