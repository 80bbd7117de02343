#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

#include "activation/stream_generators.h"
#include "util/rng.h"

namespace perfbench {

using anc::obs::Json;

namespace {
constexpr uint64_t kGraphSeed = 2022;
}  // namespace

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const size_t rank = std::min(
      sorted.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
  return sorted[rank];
}

double Samples::TailRank() const {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.5}) {
    if (static_cast<double>(values_.size()) * (1.0 - q) >= 10.0) return q;
  }
  return 0.0;
}

// --- Tracing ---------------------------------------------------------------

SpanLog* Tracer::NewLog() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.emplace_back(this);
  return &logs_.back();
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  for (const SpanLog& log : logs_) {
    out.insert(out.end(), log.spans().begin(), log.spans().end());
  }
  return out;
}

anc::Status Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return anc::Status::IoError("cannot write " + path);
  for (const SpanRecord& span : Collect()) {
    Json line = Json::Object();
    line.Set("name", Json::Str(span.name));
    line.Set("start_us", Json::Number(static_cast<double>(span.start_ns) / 1e3));
    line.Set("end_us", Json::Number(static_cast<double>(span.end_ns) / 1e3));
    line.Set("id", Json::Number(static_cast<double>(span.id)));
    line.Set("parent", Json::Number(static_cast<double>(span.parent)));
    line.Set("trace_id", Json::Number(static_cast<double>(span.trace_id)));
    out << line.Dump() << '\n';
  }
  out.close();
  return out ? anc::Status::OK() : anc::Status::IoError("short write " + path);
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  SpanRecord span;
  span.name = name;
  span.id = log_->tracer_->NextId();
  if (log_->open_.empty()) {
    span.trace_id = span.id;
  } else {
    const SpanRecord& parent = log_->spans_[log_->open_.back()];
    span.parent = parent.id;
    span.trace_id = parent.trace_id;
  }
  log_->open_.push_back(log_->spans_.size());
  span.start_ns = log_->tracer_->NowNs();
  log_->spans_.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  log_->spans_[log_->open_.back()].end_ns = log_->tracer_->NowNs();
  log_->open_.pop_back();
}

std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  // Children nest on their parent's thread, one after another, so the part
  // of a span its children cover is the sum of their durations.
  std::unordered_map<uint64_t, double> child_us;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      child_us[span.parent] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    }
  }
  std::map<std::string, SpanStats> out;
  for (const SpanRecord& span : spans) {
    const double dur_us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    SpanStats& stats = out[span.name];
    stats.dur_us.Add(dur_us);
    stats.total_us += dur_us;
    const auto it = child_us.find(span.id);
    stats.self_us += dur_us - (it == child_us.end() ? 0.0 : it->second);
  }
  return out;
}

// --- Report ----------------------------------------------------------------

void Report::Metric(const std::string& name, double value, const char* unit) {
  Json metric = Json::Object();
  metric.Set("value", Json::Number(value));
  metric.Set("unit", Json::Str(unit));
  metrics_.Set(name, std::move(metric));
}

void Report::TimingDetail(const std::string& name, const Samples& samples) {
  Json detail = Json::Object();
  detail.Set("n", Json::Number(static_cast<double>(samples.size())));
  detail.Set("p50", Json::Number(samples.Median()));
  const double tail = samples.TailRank();
  detail.Set("tail_q", Json::Number(tail));
  detail.Set("tail", Json::Number(samples.Quantile(tail)));
  detail_.Set("timing." + name, std::move(detail));
}

void Report::Detail(const std::string& key, Json value) {
  detail_.Set(key, std::move(value));
}

void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  Json check = Json::Object();
  check.Set("name", Json::Str(name));
  check.Set("ok", Json::Bool(ok));
  check.Set("detail", Json::Str(detail));
  checks_.Append(std::move(check));
  if (!ok) all_checks_ok_ = false;
}

bool Report::correct() const { return all_checks_ok_ && attempted_ > 0; }

std::string Report::Dump(const Args& args) const {
  Json out = Json::Object();
  out.Set("workload", Json::Str(args.workload));
  out.Set("seed", Json::Number(static_cast<double>(args.seed)));
  out.Set("seconds", Json::Number(args.seconds));
  out.Set("trace", Json::Bool(args.trace));
  out.Set("correct", Json::Bool(correct()));
  out.Set("attempted", Json::Number(static_cast<double>(attempted_)));
  out.Set("failed", Json::Number(static_cast<double>(failed_)));
  out.Set("metrics", metrics_);
  out.Set("checks", checks_);
  out.Set("detail", detail_);
  return out.Dump();
}

// --- Inputs ----------------------------------------------------------------

anc::AncConfig BenchConfig() { return anc::AncConfig{}; }

Inputs MakeInputs(uint32_t communities, size_t min_activations, uint64_t seed) {
  // The graph is part of the workload's definition and stays fixed; the
  // seed draws the traffic. Query costs follow the cluster-size
  // distribution, so a graph redrawn per seed would move every read metric
  // by more than any bound a regression check can use.
  anc::Rng graph_rng(kGraphSeed);
  anc::PlantedPartitionParams params;
  params.num_communities = communities;
  params.min_size = 40;
  params.max_size = 60;
  Inputs inputs{anc::PlantedPartition(params, graph_rng), {}};
  anc::Rng rng(seed);
  // 5% of the edges per timestamp, intra-community edges 4x as likely:
  // communities stay temporally coherent, the regime ANC targets.
  constexpr double kFraction = 0.05;
  const double per_step =
      std::max(1.0, std::floor(kFraction * inputs.data.graph.NumEdges()));
  const auto steps = static_cast<uint32_t>(
      std::ceil(static_cast<double>(min_activations) / per_step));
  inputs.stream = anc::CommunityBiasedStream(
      inputs.data.graph, inputs.data.truth.labels, std::max(1u, steps),
      kFraction, 4.0, rng);
  return inputs;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void CheckLoadBudget(uint32_t threads, uint32_t connections, Report* report) {
  const uint32_t cores = std::max(1u, std::thread::hardware_concurrency());
  Json budget = Json::Object();
  budget.Set("nproc", Json::Number(cores));
  budget.Set("load_threads", Json::Number(threads));
  budget.Set("connections", Json::Number(connections));
  report->Detail("load_budget", std::move(budget));
  report->Check("load_budget", threads <= cores && connections <= cores,
                std::to_string(threads) + " load threads and " +
                    std::to_string(connections) + " connections on " +
                    std::to_string(cores) + " cores");
}

bool TimeSetups(const std::function<void()>& teardown,
                const std::function<anc::Status()>& setup, SpanLog* log,
                Report* report) {
  constexpr int kSetups = 3;
  Samples seconds;
  Json runs = Json::Array();
  for (int i = 0; i < kSetups; ++i) {
    teardown();
    ScopedSpan span(log, "setup");
    const Clock::time_point t0 = Clock::now();
    const anc::Status status = setup();
    if (!status.ok()) {
      report->Check("setup", false, status.ToString());
      return false;
    }
    const double elapsed = SecondsBetween(t0, Clock::now());
    seconds.Add(elapsed);
    runs.Append(Json::Number(elapsed));
  }
  report->Metric("setup_s", seconds.Median(), "s");
  report->Detail("setup_runs_s", std::move(runs));
  return true;
}

// --- Shared load generators -------------------------------------------------

VisibilityProbe::VisibilityProbe(AwaitFn await, bool one_in_flight,
                                 SpanLog* log)
    : await_(std::move(await)),
      one_in_flight_(one_in_flight),
      log_(log),
      thread_([this] { Loop(); }) {}

VisibilityProbe::~VisibilityProbe() { Finish(); }

void VisibilityProbe::Sample(uint64_t ticket, Clock::time_point due) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (one_in_flight_ && (awaiting_ || !pending_.empty())) return;
    pending_.emplace_back(ticket, due);
  }
  cv_.notify_one();
}

void VisibilityProbe::Finish() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

void VisibilityProbe::Loop() {
  while (true) {
    std::pair<uint64_t, Clock::time_point> next;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      awaiting_ = false;
      cv_.wait(lock, [this] { return done_ || !pending_.empty(); });
      if (pending_.empty()) return;
      next = pending_.front();
      pending_.pop_front();
      awaiting_ = true;
    }
    ++attempted_;
    anc::Status status;
    {
      ScopedSpan span(log_, "probe.await_seq");
      status = await_(next.first);
    }
    if (status.ok()) {
      latency_ms_.Add(MsBetween(next.second, Clock::now()));
    } else {
      ++failed_;
    }
  }
}

ReadResult RunInProcessReaders(const anc::shard::ShardedServer& server,
                               uint32_t num_readers, double seconds,
                               uint64_t seed, Tracer* tracer) {
  const uint32_t n = server.graph().NumNodes();
  std::vector<ReadResult> per_reader(num_readers);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (uint32_t r = 0; r < num_readers; ++r) {
    threads.emplace_back([&, r] {
      SpanLog* log = tracer->NewLog();
      anc::Rng rng(seed * 1000003 + r);
      ReadResult& out = per_reader[r];
      for (uint64_t i = 1; Clock::now() < deadline; ++i) {
        const Clock::time_point t0 = Clock::now();
        bool ok;
        if (i % 32 == 0) {
          ScopedSpan span(log, "shard.clusters");
          ok = server.Clusters().ok();
          out.clusters_us.Add(UsBetween(t0, Clock::now()));
        } else {
          const auto node = static_cast<anc::NodeId>(rng.Uniform(n));
          ScopedSpan span(log, "shard.local_cluster");
          ok = server.LocalCluster(node).ok();
          out.local_us.Add(UsBetween(t0, Clock::now()));
        }
        ++out.reads;
        if (!ok) ++out.failed;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ReadResult total;
  total.elapsed_s = SecondsBetween(start, Clock::now());
  for (const ReadResult& r : per_reader) {
    total.local_us.Append(r.local_us);
    total.clusters_us.Append(r.clusters_us);
    total.reads += r.reads;
    total.failed += r.failed;
  }
  return total;
}

void ReportReads(const ReadResult& reads, Report* report) {
  report->Metric("query_local_p50_us", reads.local_us.Median(), "us");
  report->Metric("query_local_p99_us", reads.local_us.Quantile(0.99), "us");
  report->Metric("query_clusters_p50_us", reads.clusters_us.Median(), "us");
  report->Metric("query_qps",
                 static_cast<double>(reads.reads) / reads.elapsed_s, "1/s");
  report->TimingDetail("query_local_us", reads.local_us);
  report->TimingDetail("query_clusters_us", reads.clusters_us);
  report->Count(reads.reads, reads.failed);
}

void ReportVisibility(const VisibilityProbe& probe, Report* report) {
  report->Metric("visible_p50_ms", probe.latency_ms().Median(), "ms");
  report->Metric("visible_p99_ms", probe.latency_ms().Quantile(0.99), "ms");
  report->TimingDetail("visible_ms", probe.latency_ms());
  report->Count(probe.attempted(), probe.failed());
}

bool SameClustering(const anc::Clustering& a, const anc::Clustering& b) {
  return a.num_clusters == b.num_clusters && a.labels == b.labels;
}

}  // namespace perfbench
