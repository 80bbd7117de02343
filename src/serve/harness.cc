#include "serve/harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace anc::serve {

namespace {

double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t rank = std::min(
      samples.size() - 1, static_cast<size_t>(q * (samples.size() - 1)));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

}  // namespace

std::string HarnessReport::ToString() const {
  char buffer[512];
  std::snprintf(  // lint-ok: output (formats the report string, no I/O)
      buffer, sizeof(buffer),
      "ingest: %llu submitted (%llu accepted, %llu dropped, %llu rejected) "
      "in %.3fs = %.0f act/s | queries: %llu (%llu failed) "
      "p50=%.1fus p99=%.1fus | staleness: mean=%.1f max=%llu activations | "
      "epochs: %llu",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(rejected), ingest_seconds,
      ingest_per_sec, static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(failed), query_p50_us, query_p99_us,
      mean_staleness_activations,
      static_cast<unsigned long long>(max_staleness_activations),
      static_cast<unsigned long long>(epochs));
  std::string out = buffer;
  if (load_skipped > 0) {
    std::snprintf(  // lint-ok: output (formats the report string, no I/O)
        buffer, sizeof(buffer), " | load: %llu lines skipped (first: %s)",
        static_cast<unsigned long long>(load_skipped),
        load_first_error.c_str());
    out += buffer;
  }
  return out;
}

ServeHarness::ServeHarness(HarnessTarget target, HarnessOptions options)
    : target_(std::move(target)), options_(options) {
  ANC_CHECK(target_.submit && target_.flush && target_.accepted &&
                target_.dropped && target_.rejected && target_.frontier &&
                target_.view_seq && target_.epochs && target_.num_nodes &&
                target_.query_clusters && target_.query_local,
            "ServeHarness target is missing callbacks");
  if (options_.num_producers == 0) options_.num_producers = 1;
}

HarnessReport ServeHarness::Run(const ActivationStream& stream) {
  HarnessReport report;
  report.submitted = stream.size();
  const uint64_t accepted_before = target_.accepted();
  const uint64_t dropped_before = target_.dropped();
  const uint64_t rejected_before = target_.rejected();
  const uint64_t epochs_before = target_.epochs();

  std::atomic<size_t> next_index{0};
  std::atomic<bool> stop_queries{false};

  struct QueryThreadStats {
    std::vector<double> latencies_us;
    uint64_t queries = 0;
    uint64_t failed = 0;
    double staleness_sum = 0.0;
    uint64_t staleness_max = 0;
  };
  std::vector<QueryThreadStats> per_thread(options_.num_query_threads);

  std::vector<std::thread> query_threads;
  query_threads.reserve(options_.num_query_threads);
  for (uint32_t q = 0; q < options_.num_query_threads; ++q) {
    query_threads.emplace_back([this, q, &stop_queries, &per_thread] {
      QueryThreadStats& stats = per_thread[q];
      Rng rng(options_.rng_seed + 1000 + q);
      const uint32_t num_nodes = target_.num_nodes();
      if (num_nodes == 0) return;
      while (!stop_queries.load(std::memory_order_acquire)) {
        // Staleness of the answer the next query will see.
        const uint64_t frontier = target_.frontier();
        const uint64_t seq = target_.view_seq();
        const uint64_t lag = frontier > seq ? frontier - seq : 0;
        stats.staleness_sum += static_cast<double>(lag);
        stats.staleness_max = std::max(stats.staleness_max, lag);

        const auto start = std::chrono::steady_clock::now();
        bool ok;
        if (options_.full_clusters_every != 0 &&
            stats.queries % options_.full_clusters_every ==
                options_.full_clusters_every - 1) {
          ok = target_.query_clusters();
        } else {
          const NodeId node = static_cast<NodeId>(rng.Next() % num_nodes);
          ok = target_.query_local(node);
        }
        const double micros =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count();
        ++stats.queries;
        if (ok) {
          stats.latencies_us.push_back(micros);
        } else {
          ++stats.failed;
        }
      }
    });
  }

  const auto ingest_start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(options_.num_producers);
  for (uint32_t p = 0; p < options_.num_producers; ++p) {
    producers.emplace_back([this, &next_index, &stream] {
      while (true) {
        const size_t i =
            next_index.fetch_add(1, std::memory_order_relaxed);
        if (i >= stream.size()) return;
        // Rejections (kReject backpressure, ordering races) are absorbed
        // into the target's rejected() tally; the harness pushes on.
        (void)target_.submit(stream[i]);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  // A flush timeout surfaces through the report's watermarks, not here.
  (void)target_.flush(std::chrono::minutes(1));
  report.ingest_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ingest_start)
          .count();

  stop_queries.store(true, std::memory_order_release);
  for (std::thread& thread : query_threads) thread.join();

  report.accepted = target_.accepted() - accepted_before;
  report.dropped = target_.dropped() - dropped_before;
  report.rejected = target_.rejected() - rejected_before;
  report.ingest_per_sec =
      report.ingest_seconds > 0.0
          ? static_cast<double>(report.accepted) / report.ingest_seconds
          : 0.0;

  std::vector<double> all_latencies;
  for (QueryThreadStats& stats : per_thread) {
    report.queries += stats.queries;
    report.failed += stats.failed;
    report.mean_staleness_activations += stats.staleness_sum;
    report.max_staleness_activations =
        std::max(report.max_staleness_activations, stats.staleness_max);
    all_latencies.insert(all_latencies.end(), stats.latencies_us.begin(),
                         stats.latencies_us.end());
  }
  if (report.queries > 0) {
    report.mean_staleness_activations /= static_cast<double>(report.queries);
  }
  report.query_p50_us = Quantile(all_latencies, 0.50);
  report.query_p99_us = Quantile(all_latencies, 0.99);
  report.epochs = target_.epochs() - epochs_before;
  return report;
}

Result<HarnessReport> ServeHarness::RunFile(const Graph& g,
                                            const std::string& path) {
  StreamLoadOptions load;
  load.skip_bad_lines = true;
  StreamLoadReport load_report;
  Result<ActivationStream> stream =
      LoadActivationStream(g, path, load, &load_report);
  if (!stream.ok()) return stream.status();
  if (target_.record_load_report) target_.record_load_report(load_report);
  HarnessReport report = Run(stream.value());
  report.load_skipped = load_report.skipped;
  report.load_first_error = load_report.first_error;
  return report;
}

}  // namespace anc::serve
