// Shared pieces of the serving-stack benchmark driver: run arguments,
// sample statistics, the in-memory span tracer, the result report, the
// seeded inputs and the load generators the workloads share.
//
// Everything here lives in the benchmark. Spans are recorded around calls
// into the library's public API; nothing inside src/ is instrumented.
#ifndef PERFBENCH_DRIVER_BENCH_H_
#define PERFBENCH_DRIVER_BENCH_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "activation/activeness.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "obs/json.h"
#include "shard/sharded_server.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One run's command line (see main.cc).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for stores and the span file; inside the checkout.
  std::string work_dir;
};

/// A bag of measurements. Quantiles use the nearest-rank rule on a sorted
/// copy, so a reported percentile is always a value that was measured.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The highest of the 99.9/99/95/90/50th percentiles that still has at
  /// least ten samples beyond it (0 when there are fewer than 20 samples).
  double TailRank() const;

 private:
  std::vector<double> values_;
};

// --- Tracing ---------------------------------------------------------------

/// One closed span. Times are nanoseconds since the tracer's epoch.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;    ///< 0 for a root span
  uint64_t trace_id = 0;  ///< the root span's id
};

class Tracer;

/// One thread's span log; each recording thread owns its own, so spans are
/// appended without locks. Parents come from the log's stack of open spans.
class SpanLog {
 public:
  explicit SpanLog(Tracer* tracer) : tracer_(tracer) {}
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  friend class ScopedSpan;
  Tracer* tracer_;
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;
};

/// Keeps every span in memory until the run ends. A disabled tracer hands
/// out null logs, and a ScopedSpan on a null log does nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// A fresh log for the calling thread (null when disabled). The tracer
  /// owns it; it stays valid for the tracer's lifetime.
  SpanLog* NewLog();

  /// Every span recorded so far. Call only after the recording threads
  /// have been joined.
  std::vector<SpanRecord> Collect() const;

  /// Writes the spans as JSONL (name, start/end in microseconds, id,
  /// parent, trace id).
  anc::Status WriteJsonl(const std::string& path) const;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

 private:
  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::deque<SpanLog> logs_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Per-name aggregate of a span list: durations and self times (a span's
/// duration minus the part its children cover).
struct SpanStats {
  Samples dur_us;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<SpanRecord>& spans);

// --- Report ----------------------------------------------------------------

/// What one run prints: metrics by name with unit, the answer checks, the
/// attempted/failed counts, and free-form detail (sample counts, tail
/// percentiles, offered rates) for the result record.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit);
  /// Records a timing's sample count, median and tail percentile next to
  /// the metrics derived from it.
  void TimingDetail(const std::string& name, const Samples& samples);
  void Detail(const std::string& key, anc::obs::Json value);
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const;
  std::string Dump(const Args& args) const;

 private:
  anc::obs::Json metrics_ = anc::obs::Json::Object();
  anc::obs::Json detail_ = anc::obs::Json::Object();
  anc::obs::Json checks_ = anc::obs::Json::Array();
  bool all_checks_ok_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- Inputs ----------------------------------------------------------------

/// The index configuration every workload serves: the library default.
anc::AncConfig BenchConfig();

/// A planted partition of `communities` communities of 40-60 nodes
/// (library-default density and mixing, one fixed draw per size) and a
/// community-biased stream of at least `min_activations` activations over
/// it drawn from `seed`.
struct Inputs {
  anc::GroundTruthGraph data;
  anc::ActivationStream stream;
};
Inputs MakeInputs(uint32_t communities, size_t min_activations, uint64_t seed);

/// Peak resident set of this process so far (VmHWM), in MiB.
double PeakRssMb();

/// Load generators (threads, and connections they own) must stay within
/// the machine's cores, or the benchmark measures its own contention.
/// Records the budget and fails the run's check when it is exceeded.
void CheckLoadBudget(uint32_t threads, uint32_t connections, Report* report);

/// Measures set-up time: runs `teardown` then a timed `setup` three times
/// and reports setup_s as the median. `setup` ends at the workload's first
/// accepted submission; the instance the last call built is the one the
/// workload measures. Returns false (and fails the run) on an error.
bool TimeSetups(const std::function<void()>& teardown,
                const std::function<anc::Status()>& setup, SpanLog* log,
                Report* report);

// --- Shared load generators -------------------------------------------------

/// Times submit -> visible on sampled tickets: the producer hands over
/// (ticket, due time) pairs and one probe thread awaits them in order.
///
/// An exact await (a shard's own AwaitSeq) returns once that ticket is
/// published, and tickets publish in order, so queued samples are each
/// timed correctly even when the probe runs behind. ShardedServer::AwaitSeq
/// is conservative instead: it waits for everything routed before the
/// call, so a late call would time later traffic too. With
/// `one_in_flight`, samples handed over while an await is pending are
/// skipped, so every await starts as its ticket is submitted.
class VisibilityProbe {
 public:
  using AwaitFn = std::function<anc::Status(uint64_t ticket)>;
  VisibilityProbe(AwaitFn await, bool one_in_flight, SpanLog* log);
  ~VisibilityProbe();
  VisibilityProbe(const VisibilityProbe&) = delete;
  VisibilityProbe& operator=(const VisibilityProbe&) = delete;

  void Sample(uint64_t ticket, Clock::time_point due);
  /// Drains the pending samples and joins the probe thread.
  void Finish();

  const Samples& latency_ms() const { return latency_ms_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  void Loop();

  AwaitFn await_;
  const bool one_in_flight_;
  SpanLog* log_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<uint64_t, Clock::time_point>> pending_;
  bool awaiting_ = false;
  bool done_ = false;
  Samples latency_ms_;  // probe thread only until Finish()
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

/// Closed-loop in-process readers over a ShardedServer: LocalCluster at the
/// default level on uniformly drawn nodes, plus one Clusters() sweep every
/// 32 reads.
struct ReadResult {
  Samples local_us;
  Samples clusters_us;
  uint64_t reads = 0;
  uint64_t failed = 0;
  double elapsed_s = 0.0;
};
ReadResult RunInProcessReaders(const anc::shard::ShardedServer& server,
                               uint32_t num_readers, double seconds,
                               uint64_t seed, Tracer* tracer);

/// Reports the read-side end-to-end metrics from `reads`.
void ReportReads(const ReadResult& reads, Report* report);

/// Reports visible_p50_ms / visible_p99_ms from `probe`.
void ReportVisibility(const VisibilityProbe& probe, Report* report);

/// The order-sensitive fingerprint compared by the byte-identity checks.
bool SameClustering(const anc::Clustering& a, const anc::Clustering& b);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_H_
