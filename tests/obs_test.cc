#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace anc::obs {
namespace {

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(JsonTest, RoundTripsDocument) {
  Json doc = Json::Object();
  doc.Set("flag", Json::Bool(true));
  doc.Set("count", Json::Number(42));
  doc.Set("name", Json::Str("anc \"quoted\"\n"));
  Json arr = Json::Array();
  arr.Append(Json::Number(1.5));
  arr.Append(Json());  // null
  doc.Set("values", std::move(arr));

  for (int indent : {0, 2}) {
    Json parsed;
    ASSERT_TRUE(Json::Parse(doc.Dump(indent), &parsed)) << indent;
    ASSERT_TRUE(parsed.is_object());
    EXPECT_TRUE(parsed.Find("flag")->boolean());
    EXPECT_EQ(parsed.Find("count")->number(), 42.0);
    EXPECT_EQ(parsed.Find("name")->str(), "anc \"quoted\"\n");
    const Json* values = parsed.Find("values");
    ASSERT_EQ(values->size(), 2u);
    EXPECT_EQ(values->at(0).number(), 1.5);
    EXPECT_TRUE(values->at(1).is_null());
  }
}

TEST(JsonTest, IntegersPrintExactly) {
  Json big = Json::Number(1234567890123.0);
  EXPECT_EQ(big.Dump(), "1234567890123");
}

TEST(JsonTest, RejectsMalformedInput) {
  Json out;
  EXPECT_FALSE(Json::Parse("{", &out));
  EXPECT_FALSE(Json::Parse("[1, 2,]", &out));
  EXPECT_FALSE(Json::Parse("{} trailing", &out));
  EXPECT_FALSE(Json::Parse("\"unterminated", &out));
}

TEST(JsonTest, NestingDepthCapped) {
  // Regression for a stack overflow found by fuzz/fuzz_json.cc: a few KB
  // of "[[[[..." used to recurse until the stack died. The parser now
  // rejects anything nested deeper than 128 levels and parses anything at
  // or below the cap.
  const auto nested_array = [](int depth) {
    std::string text(static_cast<size_t>(depth), '[');
    text.append(static_cast<size_t>(depth), ']');
    return text;
  };
  Json out;
  EXPECT_TRUE(Json::Parse(nested_array(128), &out));
  EXPECT_FALSE(Json::Parse(nested_array(129), &out));

  std::string object = "1";
  for (int i = 0; i < 129; ++i) {
    object = "{\"k\":" + object + "}";
  }
  EXPECT_FALSE(Json::Parse(object, &out));

  // Pathological inputs come back as a clean `false`, not a crash — even
  // unbalanced ones far past the cap.
  EXPECT_FALSE(Json::Parse(std::string(100000, '['), &out));

  // Width is not depth: a large flat array stays parseable.
  std::string wide = "[0";
  for (int i = 1; i < 10000; ++i) wide += ",1";
  wide += "]";
  ASSERT_TRUE(Json::Parse(wide, &out));
  EXPECT_EQ(out.size(), 10000u);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry registry;
  const CounterId c = registry.Counter("test.counter");
  registry.Add(c);
  registry.Add(c, 41);
  const StatsSnapshot snap = registry.Snapshot();
  if (kMetricsEnabled) {
    EXPECT_EQ(snap.counter("test.counter"), 42u);
  } else {
    EXPECT_EQ(snap.counter("test.counter"), 0u);
  }
  // Missing names read as zero in either build.
  EXPECT_EQ(snap.counter("no.such.counter"), 0u);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  const CounterId a = registry.Counter("same.name");
  const CounterId b = registry.Counter("same.name");
  EXPECT_EQ(a.slot, b.slot);
  registry.Add(a);
  registry.Add(b);
  const StatsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  if (kMetricsEnabled) EXPECT_EQ(snap.counters[0].value, 2u);
}

TEST(MetricsRegistryTest, GaugeLastWriteWins) {
  MetricsRegistry registry;
  const GaugeId g = registry.Gauge("test.gauge");
  registry.Set(g, 7);
  registry.Set(g, -3);
  const StatsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.gauge("test.gauge"), kMetricsEnabled ? -3 : 0);
}

TEST(MetricsRegistryTest, HistogramBucketsMatchPowerOfTwoLayout) {
  MetricsRegistry registry;
  const HistogramId h = registry.Histogram("test.hist");
  // Bucket 0: [0, 1). Bucket i: [2^(i-1), 2^i).
  registry.Record(h, 0.0);
  registry.Record(h, 0.99);   // bucket 0
  registry.Record(h, 1.0);    // bucket 1
  registry.Record(h, 2.0);    // bucket 2
  registry.Record(h, 3.0);    // bucket 2
  registry.Record(h, 1e30);   // clamps to last bucket
  const StatsSnapshot snap = registry.Snapshot();
  const auto* entry = snap.histogram("test.hist");
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->buckets.size(), kHistogramBucketCount);
  if (!kMetricsEnabled) {
    EXPECT_EQ(entry->count, 0u);
    return;
  }
  EXPECT_EQ(entry->count, 6u);
  EXPECT_EQ(entry->buckets[0], 2u);
  EXPECT_EQ(entry->buckets[1], 1u);
  EXPECT_EQ(entry->buckets[2], 2u);
  EXPECT_EQ(entry->buckets[kHistogramBucketCount - 1], 1u);
  EXPECT_DOUBLE_EQ(entry->sum, 0.0 + 0.99 + 1.0 + 2.0 + 3.0 + 1e30);
  EXPECT_GT(entry->Mean(), 0.0);
  // Quantiles report the upper bound of the bucket containing the rank:
  // rank 3 of 6 is reached at bucket 1 ([1,2)), rank 4.5 inside bucket 2.
  EXPECT_DOUBLE_EQ(entry->ApproxQuantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(entry->ApproxQuantile(0.75), 4.0);
}

TEST(MetricsRegistryTest, HistogramEdgeValuesLandInEdgeBuckets) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics disabled at compile time";
  MetricsRegistry registry;
  const HistogramId h = registry.Histogram("edge.hist");
  // Zero and negative durations (a clock stepping backwards mid-span) both
  // clamp into bucket 0; values past any finite bound land in the overflow
  // bucket, including those past the uint64 conversion range.
  registry.Record(h, 0.0);
  registry.Record(h, -123.5);
  registry.Record(h, 1e300);
  registry.Record(h, 9.3e18);
  const StatsSnapshot snap = registry.Snapshot();
  const auto* entry = snap.histogram("edge.hist");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 4u);
  EXPECT_EQ(entry->buckets[0], 2u);
  EXPECT_EQ(entry->buckets[kHistogramBucketCount - 1], 2u);
  // The overflow bucket has no finite upper bound, so tail quantiles report
  // +inf rather than inventing a number.
  EXPECT_TRUE(std::isinf(entry->ApproxQuantile(1.0)));
}

TEST(MetricsRegistryTest, ResetZeroesValuesKeepsNames) {
  MetricsRegistry registry;
  const CounterId c = registry.Counter("test.counter");
  const HistogramId h = registry.Histogram("test.hist");
  registry.Add(c, 5);
  registry.Record(h, 3.0);
  registry.Reset();
  const StatsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("test.counter"), 0u);
  ASSERT_NE(snap.histogram("test.hist"), nullptr);
  EXPECT_EQ(snap.histogram("test.hist")->count, 0u);
  // Handles stay valid after Reset.
  registry.Add(c, 2);
  if (kMetricsEnabled) {
    EXPECT_EQ(registry.Snapshot().counter("test.counter"), 2u);
  }
}

TEST(MetricsRegistryTest, MergesThreadShards) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics disabled at compile time";
  MetricsRegistry registry;
  const CounterId c = registry.Counter("test.parallel");
  const HistogramId h = registry.Histogram("test.parallel_hist");
  constexpr size_t kTasks = 64;
  constexpr uint64_t kPerTask = 1000;
  ThreadPool pool(4);
  pool.ParallelFor(kTasks, [&](size_t i) {
    for (uint64_t j = 0; j < kPerTask; ++j) registry.Add(c);
    registry.Record(h, static_cast<double>(i));
  });
  const StatsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("test.parallel"), kTasks * kPerTask);
  EXPECT_EQ(snap.histogram("test.parallel_hist")->count, kTasks);
}

TEST(MetricsRegistryTest, ShardValuesSurviveThreadExit) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics disabled at compile time";
  MetricsRegistry registry;
  const CounterId c = registry.Counter("test.exited");
  {
    std::thread worker([&] { registry.Add(c, 11); });
    worker.join();
  }
  EXPECT_EQ(registry.Snapshot().counter("test.exited"), 11u);
}

TEST(MetricsRegistryTest, PerRegistryIsolation) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics disabled at compile time";
  MetricsRegistry a;
  MetricsRegistry b;
  const CounterId ca = a.Counter("shared.name");
  const CounterId cb = b.Counter("shared.name");
  a.Add(ca, 3);
  b.Add(cb, 5);
  EXPECT_EQ(a.Snapshot().counter("shared.name"), 3u);
  EXPECT_EQ(b.Snapshot().counter("shared.name"), 5u);
}

TEST(MetricsRegistryTest, InvalidHandlesAreSilentNoOps) {
  MetricsRegistry registry;
  registry.Add(CounterId{}, 7);
  registry.Set(GaugeId{}, 7);
  registry.Record(HistogramId{}, 7.0);
  const StatsSnapshot snap = registry.Snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(ScopedTimerTest, RecordsElapsedMicros) {
  MetricsRegistry registry;
  const HistogramId h = registry.Histogram("test.timer_us");
  { ScopedTimer timer(&registry, h); }
  { ScopedTimer timer(&registry, h); }
  const StatsSnapshot snap = registry.Snapshot();
  const auto* entry = snap.histogram("test.timer_us");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, kMetricsEnabled ? 2u : 0u);
  // Null registry must be safe (the disabled-pointer pattern).
  { ScopedTimer timer(nullptr, h); }
}

// ---------------------------------------------------------------------------
// StatsSnapshot JSON
// ---------------------------------------------------------------------------

TEST(StatsSnapshotTest, JsonRoundTrip) {
  MetricsRegistry registry;
  registry.Add(registry.Counter("rt.counter"), 42);
  registry.Set(registry.Gauge("rt.gauge"), -17);
  const HistogramId h = registry.Histogram("rt.hist");
  registry.Record(h, 0.5);
  registry.Record(h, 1000.0);
  const StatsSnapshot snap = registry.Snapshot();

  StatsSnapshot parsed;
  ASSERT_TRUE(StatsSnapshot::FromJson(snap.ToJson(), &parsed));
  ASSERT_EQ(parsed.counters.size(), snap.counters.size());
  EXPECT_EQ(parsed.counter("rt.counter"), snap.counter("rt.counter"));
  EXPECT_EQ(parsed.gauge("rt.gauge"), snap.gauge("rt.gauge"));
  const auto* orig = snap.histogram("rt.hist");
  const auto* back = parsed.histogram("rt.hist");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->count, orig->count);
  EXPECT_DOUBLE_EQ(back->sum, orig->sum);
  EXPECT_EQ(back->buckets, orig->buckets);
}

TEST(StatsSnapshotTest, FromJsonRejectsWrongShape) {
  StatsSnapshot out;
  EXPECT_FALSE(StatsSnapshot::FromJson("[]", &out));
  EXPECT_FALSE(StatsSnapshot::FromJson("{\"counters\": []}", &out));
  // Histogram bucket array of the wrong length.
  EXPECT_FALSE(StatsSnapshot::FromJson(
      "{\"counters\":{},\"gauges\":{},\"histograms\":"
      "{\"h\":{\"count\":1,\"sum\":2,\"buckets\":[1,2,3]}}}",
      &out));
}

TEST(StatsSnapshotTest, BucketUpperBounds) {
  EXPECT_DOUBLE_EQ(HistogramBucketUpperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(HistogramBucketUpperBound(1), 2.0);
  EXPECT_DOUBLE_EQ(HistogramBucketUpperBound(5), 32.0);
  EXPECT_TRUE(std::isinf(HistogramBucketUpperBound(kHistogramBucketCount - 1)));
}

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

TEST(TraceSinkTest, EmitsNestedJsonlSpans) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics disabled at compile time";
  std::ostringstream out;
  TraceSink sink(&out);
  ASSERT_TRUE(sink.ok());

  MetricsRegistry registry;
  const HistogramId outer_h = registry.Histogram("outer_us");
  const HistogramId inner_h = registry.Histogram("inner_us");
  registry.SetTraceSink(&sink);
  {
    ScopedTimer outer(&registry, outer_h, "outer");
    ScopedTimer inner(&registry, inner_h, "inner");
  }
  registry.SetTraceSink(nullptr);
  {
    ScopedTimer silent(&registry, outer_h, "silent");
  }

  std::vector<Json> events;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    Json event;
    ASSERT_TRUE(Json::Parse(line, &event)) << line;
    events.push_back(std::move(event));
  }
  // Spans are emitted on completion: inner first, then outer; nothing after
  // the sink was detached.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].Find("name")->str(), "inner");
  EXPECT_EQ(events[0].Find("depth")->number(), 1.0);
  EXPECT_EQ(events[1].Find("name")->str(), "outer");
  EXPECT_EQ(events[1].Find("depth")->number(), 0.0);
  EXPECT_LE(events[1].Find("ts_us")->number(),
            events[0].Find("ts_us")->number());
  EXPECT_GE(events[1].Find("dur_us")->number(),
            events[0].Find("dur_us")->number());
}

std::vector<Json> ParseJsonl(const std::string& text) {
  std::vector<Json> events;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    Json event;
    EXPECT_TRUE(Json::Parse(line, &event)) << line;
    events.push_back(std::move(event));
  }
  return events;
}

TEST(TraceContextTest, NewTraceMintsDistinctActiveIds) {
  const TraceContext a = TraceContext::NewTrace();
  const TraceContext b = TraceContext::NewTrace();
  EXPECT_TRUE(a.active());
  EXPECT_TRUE(b.active());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_FALSE(TraceContext{}.active());
}

TEST(TraceSinkTest, DepthIsTrackedPerSink) {
  std::ostringstream out_a;
  std::ostringstream out_b;
  TraceSink a(&out_a);
  TraceSink b(&out_b);
  // A span on sink b opened inside a span on sink a is top-level *for b*:
  // each sink keeps its own per-thread nesting.
  {
    TraceSpan outer(&a, "a.outer");
    TraceSpan cross(&b, "b.top");
    TraceSpan inner(&a, "a.inner");
  }
  const std::vector<Json> from_a = ParseJsonl(out_a.str());
  const std::vector<Json> from_b = ParseJsonl(out_b.str());
  ASSERT_EQ(from_a.size(), 2u);
  ASSERT_EQ(from_b.size(), 1u);
  EXPECT_EQ(from_a[0].Find("name")->str(), "a.inner");
  EXPECT_EQ(from_a[0].Find("depth")->number(), 1.0);
  EXPECT_EQ(from_a[1].Find("name")->str(), "a.outer");
  EXPECT_EQ(from_a[1].Find("depth")->number(), 0.0);
  EXPECT_EQ(from_b[0].Find("name")->str(), "b.top");
  EXPECT_EQ(from_b[0].Find("depth")->number(), 0.0);
}

TEST(TraceSpanTest, EmitsAndOmitsCorrelationFields) {
  std::ostringstream out;
  TraceSink sink(&out);
  const TraceContext trace = TraceContext::NewTrace();
  { TraceSpan span(&sink, "tagged", trace, /*shard=*/3, /*seq=*/41); }
  { TraceSpan span(&sink, "untagged"); }
  const std::vector<Json> events = ParseJsonl(out.str());
  ASSERT_EQ(events.size(), 2u);
  ASSERT_NE(events[0].Find("trace"), nullptr);
  EXPECT_EQ(events[0].Find("trace")->number(),
            static_cast<double>(trace.trace_id));
  EXPECT_EQ(events[0].Find("shard")->number(), 3.0);
  EXPECT_EQ(events[0].Find("seq")->number(), 41.0);
  // Inactive context / unset shard / zero seq: the fields are absent, not
  // zero-valued.
  EXPECT_EQ(events[1].Find("trace"), nullptr);
  EXPECT_EQ(events[1].Find("shard"), nullptr);
  EXPECT_EQ(events[1].Find("seq"), nullptr);
}

TEST(TraceSinkTest, SinkWithoutStreamIsNotOkAndDropsSpans) {
  TraceSink null_stream(static_cast<std::ostream*>(nullptr));
  EXPECT_FALSE(null_stream.ok());
  null_stream.EmitSpan("dropped", 0.0, 1.0, 0);
  { TraceSpan span(&null_stream, "dropped.too"); }

  TraceSink unopened("/nonexistent/dir/trace.jsonl");
  EXPECT_FALSE(unopened.ok());
  unopened.EmitSpan("dropped", 0.0, 1.0, 0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(ExporterTest, RenderPrometheusEmitsExpositionFormat) {
  StatsSnapshot snap;
  snap.counters.push_back({"anc.serve.accepted", 42});
  snap.gauges.push_back({"anc.serve.queue_depth", -1});
  StatsSnapshot::HistogramEntry h;
  h.name = "anc.apply_us";
  h.count = 3;
  h.sum = 4.5;
  h.buckets.assign(kHistogramBucketCount, 0);
  h.buckets[0] = 2;
  h.buckets[2] = 1;
  snap.histograms.push_back(h);

  const std::string text = RenderPrometheus(snap);
  EXPECT_NE(text.find("# TYPE anc_serve_accepted counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("anc_serve_accepted 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE anc_serve_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("anc_serve_queue_depth -1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE anc_apply_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("anc_apply_us_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  // Cumulative buckets: the +Inf bucket equals the total count.
  EXPECT_NE(text.find("anc_apply_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("anc_apply_us_sum 4.5\n"), std::string::npos);
  EXPECT_NE(text.find("anc_apply_us_count 3\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ShardHealthMonitor
// ---------------------------------------------------------------------------

ClusterHealthSample HealthyCluster() {
  ClusterHealthSample sample;
  sample.num_shards = 4;
  sample.num_edges = 1000;
  sample.cut_edges = 150;
  sample.cut_ratio = 0.15;
  sample.balance = 1.05;
  for (uint32_t s = 0; s < 4; ++s) {
    ShardHealthSample shard;
    shard.shard = s;
    shard.accepted = 10000;
    shard.queue_depth = 4;
    shard.queue_oldest_age_s = 0.001;
    shard.applied_seq = 9996;
    shard.durable_seq = 9990;
    shard.durable_enabled = true;
    shard.view_age_s = 0.01;
    sample.shards.push_back(shard);
  }
  return sample;
}

TEST(ShardHealthMonitorTest, HealthyClusterReadsHealthy) {
  const ShardHealthMonitor monitor;
  const HealthReport report = monitor.Assess(HealthyCluster());
  EXPECT_EQ(report.overall, HealthState::kHealthy);
  EXPECT_EQ(report.cluster_state, HealthState::kHealthy);
  EXPECT_TRUE(report.cluster_reasons.empty());
  ASSERT_EQ(report.shards.size(), 4u);
  for (const ShardScorecard& card : report.shards) {
    EXPECT_EQ(card.state, HealthState::kHealthy);
    EXPECT_TRUE(card.reasons.empty());
  }
}

TEST(ShardHealthMonitorTest, HashLikeCutRatioTripsCluster) {
  const ShardHealthMonitor monitor;
  ClusterHealthSample sample = HealthyCluster();
  // A hash partitioner on a community graph cuts ~ (k-1)/k of the edges.
  sample.cut_edges = 750;
  sample.cut_ratio = 0.75;
  const HealthReport report = monitor.Assess(sample);
  EXPECT_EQ(report.cluster_state, HealthState::kCritical);
  EXPECT_EQ(report.overall, HealthState::kCritical);
  ASSERT_FALSE(report.cluster_reasons.empty());
  EXPECT_NE(report.cluster_reasons[0].find("cut_ratio"), std::string::npos);
}

TEST(ShardHealthMonitorTest, PerShardChecksTripIndependently) {
  const ShardHealthMonitor monitor;
  ClusterHealthSample sample = HealthyCluster();
  sample.shards[1].queue_depth = 5000;       // degraded (>= 1024)
  sample.shards[2].applied_seq = 100000;
  sample.shards[2].durable_seq = 1000;       // critical durable lag
  const HealthReport report = monitor.Assess(sample);
  EXPECT_EQ(report.cluster_state, HealthState::kHealthy);
  EXPECT_EQ(report.shards[0].state, HealthState::kHealthy);
  EXPECT_EQ(report.shards[1].state, HealthState::kDegraded);
  EXPECT_EQ(report.shards[2].state, HealthState::kCritical);
  EXPECT_EQ(report.overall, HealthState::kCritical);
  // Disabling durability suppresses the lag check entirely.
  sample.shards[2].durable_enabled = false;
  EXPECT_EQ(monitor.Assess(sample).shards[2].state, HealthState::kHealthy);
}

TEST(ShardHealthMonitorTest, ReportSerializesToParsableJson) {
  const ShardHealthMonitor monitor;
  ClusterHealthSample sample = HealthyCluster();
  sample.cut_ratio = 0.30;  // one degraded reason to exercise the arrays
  const HealthReport report = monitor.Assess(sample);
  Json parsed;
  ASSERT_TRUE(Json::Parse(report.ToJson(), &parsed));
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.Find("overall")->str(), "degraded");
  ASSERT_NE(parsed.Find("shards"), nullptr);
  EXPECT_EQ(parsed.Find("shards")->size(), 4u);
  EXPECT_NE(report.ToString().find("degraded"), std::string::npos);
}

}  // namespace
}  // namespace anc::obs
