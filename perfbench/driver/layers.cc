// The traced run's layer measurements: router/serve counters, probes of
// the shard and net layers on a live server, and the single-threaded
// replays that split the writer's work into core, similarity, pyramid and
// store. Layers below serve run on the writer thread, where the benchmark
// cannot put spans, so the replays run the same calls in the open.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "net/client.h"
#include "pyramid/pyramid_index.h"
#include "serve/server.h"
#include "similarity/similarity_engine.h"
#include "store/store.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Activations replayed per traced run: enough for stable per-call
/// medians, few enough that the replays stay a fraction of the run.
constexpr size_t kReplayActivations = 50000;
constexpr size_t kProbeSubmits = 2000;
constexpr size_t kProbeBatches = 200;
/// The net read probe cycles over this many nodes, like the read mix.
constexpr size_t kNetProbePool = 48;

double PerAct(double total, size_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace

std::vector<anc::NodeId> PickNodes(const anc::Graph& graph, size_t count,
                                   uint64_t seed) {
  std::vector<anc::NodeId> nodes(graph.NumNodes());
  std::iota(nodes.begin(), nodes.end(), 0);
  anc::Rng rng(seed ^ 0x6e6f646573ULL);
  for (size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng.Uniform(i)]);
  }
  nodes.resize(std::min(count, nodes.size()));
  return nodes;
}

void ReportServeCounters(const anc::shard::ShardedServer& server,
                         Report* report) {
  double batch_sum = 0.0;
  double batch_count = 0.0;
  double epochs = 0.0;
  double applied = 0.0;
  size_t depth_max = 0;
  for (uint32_t s = 0; s < server.num_shards(); ++s) {
    const anc::obs::StatsSnapshot stats = server.ShardStats(s);
    if (const auto* batch = stats.histogram("anc.serve.batch_size")) {
      batch_sum += batch->sum;
      batch_count += static_cast<double>(batch->count);
    }
    epochs += static_cast<double>(stats.counter("anc.serve.epochs"));
    applied += static_cast<double>(stats.counter("anc.serve.applied"));
    depth_max = std::max(depth_max, server.shard(s).IngestHighWatermark());
  }
  const double accepted = static_cast<double>(server.accepted());
  report->Metric("shard.halo_ratio",
                 accepted > 0 ? server.halo_deliveries() / accepted : 0.0,
                 "ratio");
  report->Metric("serve.batch_mean",
                 batch_count > 0 ? batch_sum / batch_count : 0.0, "count");
  report->Metric("serve.epochs_per_kact",
                 applied > 0 ? epochs * 1000.0 / applied : 0.0, "count");
  report->Metric("serve.queue_depth_max", static_cast<double>(depth_max),
                 "count");
}

void ProbeLayers(anc::shard::ShardedServer& server,
                 const std::vector<anc::NodeId>& nodes,
                 const anc::ActivationStream& edges, double time,
                 NetFrontEnd net, Tracer* tracer, Report* report) {
  const std::map<std::string, SpanStats> recorded =
      SummarizeSpans(tracer->Collect());
  SpanLog* log = tracer->NewLog();
  size_t answer_nodes = 0;

  // shard: one View() gather, then the same query merged across shards
  // and on the owner shard's own snapshot.
  for (const anc::NodeId v : nodes) {
    std::optional<anc::shard::ShardedView> view;
    {
      ScopedSpan span(log, "shard.view");
      view.emplace(server.View());
    }
    const uint32_t level = view->DefaultLevel();
    {
      ScopedSpan span(log, "shard.merged_local");
      answer_nodes += view->LocalCluster(v, level).size();
    }
    const uint32_t owner = view->router().NodeOwner(v);
    {
      ScopedSpan span(log, "shard.owner_local");
      answer_nodes += view->shard(owner).LocalCluster(v, level).size();
    }
  }

  // net: round trips through a front-end over this server (a temporary
  // one with library defaults when the workload has none).
  std::unique_ptr<anc::net::ShardedBackend> own_backend;
  std::unique_ptr<anc::net::NetServer> own_net;
  if (net.server == nullptr) {
    own_backend = std::make_unique<anc::net::ShardedBackend>(&server);
    own_net = std::make_unique<anc::net::NetServer>(
        own_backend.get(), anc::net::NetServerOptions{});
    const anc::Status started = own_net->Start();
    if (!started.ok()) {
      report->Check("probe_net", false, started.ToString());
      return;
    }
    net = NetFrontEnd{own_net.get(), own_backend.get()};
  }
  auto connected = anc::net::Client::Connect("127.0.0.1", net.server->port());
  std::unique_ptr<anc::net::Client> client =
      connected.ok() ? std::move(*connected) : nullptr;
  bool net_ok = client != nullptr;
  for (const anc::NodeId v : nodes) {
    anc::net::QueryBody query;
    query.node = v;
    ScopedSpan span(log, "net.backend_local");
    net_ok = net.backend->LocalCluster(query).ok() && net_ok;
  }
  if (net_ok && recorded.count("net.local_rtt") == 0) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      ScopedSpan span(log, "net.local_rtt");
      net_ok = client->LocalCluster(nodes[i % kNetProbePool]).ok() && net_ok;
    }
  }
  if (net_ok && recorded.count("net.submit_rtt") == 0) {
    for (size_t b = 0; b < kProbeBatches; ++b) {
      std::vector<anc::Activation> batch;
      for (size_t i = 0; i < 64; ++i) {
        batch.push_back({edges[(b * 64 + i) % edges.size()].edge, time});
      }
      ScopedSpan span(log, "net.submit_rtt");
      net_ok = client->SubmitBatch(batch).ok() && net_ok;
    }
  }
  if (own_net != nullptr) {
    const double hits = static_cast<double>(own_net->cache().hits());
    const double misses = static_cast<double>(own_net->cache().misses());
    report->Metric("net.cache_hit_ratio",
                   hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    client.reset();
    own_net->Stop();
  }
  report->Check("probe_net", net_ok, "net layer probe round trips");

  if (recorded.count("shard.submit") == 0) {
    bool submitted = true;
    for (size_t i = 0; i < kProbeSubmits; ++i) {
      ScopedSpan span(log, "shard.submit");
      submitted = server.Submit({edges[i % edges.size()].edge, time}).ok() &&
                  submitted;
    }
    report->Check("probe_submit", submitted, "direct Submit probe");
  }
  report->Detail("probe_answer_nodes",
                 anc::obs::Json::Number(static_cast<double>(answer_nodes)));
}

void ReplayLayers(const anc::Graph& graph, const anc::ActivationStream& accepted,
                  size_t store_batch, const std::string& store_dir,
                  Tracer* tracer, Report* report) {
  SpanLog* log = tracer->NewLog();
  const anc::ActivationStream replay(
      accepted.begin(),
      accepted.begin() +
          static_cast<long>(std::min(accepted.size(), kReplayActivations)));
  if (replay.empty()) {
    report->Check("replay", false, "no accepted activations to replay");
    return;
  }
  const anc::AncConfig config = BenchConfig();
  const size_t publish_every =
      anc::serve::ServeOptions{}.snapshot_every_activations;
  uint64_t sink = 0;  // consumes exported state so no export is elided

  std::unique_ptr<anc::AncIndex> index;
  {
    ScopedSpan span(log, "core.build");
    index = std::make_unique<anc::AncIndex>(graph, config);
  }

  // store: the replayed activations as WAL batches on a fresh store whose
  // Open-time checkpoint is the untouched index, then recovery of them all.
  std::error_code ec;
  fs::remove_all(store_dir, ec);
  auto opened = anc::store::DurableStore::Open(store_dir, *index, {});
  if (!opened.ok()) {
    report->Check("store_replay", false, opened.status().ToString());
    return;
  }
  std::unique_ptr<anc::store::DurableStore> store = std::move(*opened);
  bool store_ok = true;
  {
    ScopedSpan root(log, "replay.store");
    for (size_t first = 0; first < replay.size(); first += store_batch) {
      const std::vector<anc::Activation> batch(
          replay.begin() + static_cast<long>(first),
          replay.begin() +
              static_cast<long>(std::min(first + store_batch, replay.size())));
      {
        ScopedSpan span(log, "store.append");
        store_ok = store->Append(batch, first + 1).ok() && store_ok;
      }
      ScopedSpan span(log, "store.sync");
      store_ok = store->Sync().ok() && store_ok;
    }
  }
  report->Metric("store.wal_bytes_per_act",
                 PerAct(static_cast<double>(store->Stats().wal_bytes),
                        replay.size()),
                 "B");
  {
    ScopedSpan span(log, "store.recover");
    const auto recovered = anc::store::Recover(store_dir);
    store_ok = recovered.ok() && recovered->watermark.seq == replay.size() &&
               store_ok;
  }

  // core: Apply per activation plus ExportClusterState at the serve
  // publish cadence, as the serve writer runs them.
  const size_t touched_before = index->total_touched_nodes();
  bool applied = true;
  {
    ScopedSpan root(log, "replay.core");
    for (size_t k = 0; k < replay.size(); ++k) {
      {
        ScopedSpan span(log, "core.apply");
        applied = index->Apply(replay[k]).ok() && applied;
      }
      if ((k + 1) % publish_every == 0) {
        ScopedSpan span(log, "core.export");
        sink += index->ExportClusterState().vote_counts.back()[k % graph.NumEdges()];
      }
    }
  }
  const size_t core_touched = index->total_touched_nodes() - touched_before;
  report->Metric("core.touched_per_apply", PerAct(core_touched, replay.size()),
                 "count");
  for (const anc::NodeId v : PickNodes(graph, 500, replay.size())) {
    ScopedSpan span(log, "core.local");
    sink += index->LocalCluster(v, index->DefaultLevel()).size();
  }
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(log, "core.clusters");
    sink += index->Clusters().num_clusters;
  }
  {
    ScopedSpan span(log, "store.checkpoint");
    store_ok = store->WriteCheckpoint(*index, {replay.size(), replay.back().time})
                   .ok() &&
               store_ok;
  }
  store.reset();
  fs::remove_all(store_dir, ec);
  report->Check("store_replay", store_ok,
                std::to_string(replay.size()) + " activations in batches of " +
                    std::to_string(store_batch));

  // similarity + pyramid, wired the way AncIndex wires them (HookRescale),
  // recording into one registry as the facade does.
  anc::obs::MetricsRegistry registry;
  anc::SimilarityEngine engine(graph, config.similarity, &registry);
  engine.InitializeStatic(config.rep);
  std::vector<double> weights(graph.NumEdges());
  for (anc::EdgeId e = 0; e < weights.size(); ++e) weights[e] = engine.Weight(e);
  anc::PyramidIndex pyramid(graph, std::move(weights), config.pyramid,
                            &registry);
  size_t layer_touched = 0;
  uint64_t rescales = 0;
  engine.SetRescaleCallback(
      [&](double factor, const std::vector<anc::EdgeId>& clamped) {
        ScopedSpan span(log, "pyramid.rescale");
        ++rescales;
        pyramid.ScaleAll(1.0 / factor);
        for (const anc::EdgeId e : clamped) {
          layer_touched += pyramid.UpdateEdgeWeight(e, engine.Weight(e));
        }
      });
  {
    ScopedSpan root(log, "replay.layers");
    for (size_t k = 0; k < replay.size(); ++k) {
      double weight = 0.0;
      {
        ScopedSpan span(log, "similarity.apply");
        applied = engine.ApplyActivation(replay[k].edge, replay[k].time, &weight)
                      .ok() &&
                  applied;
      }
      {
        ScopedSpan span(log, "pyramid.update");
        layer_touched += pyramid.UpdateEdgeWeight(replay[k].edge, weight);
      }
      if ((k + 1) % publish_every == 0) {
        ScopedSpan span(log, "core.export");
        sink += pyramid.ExportVoteCounts().back()[k % graph.NumEdges()];
      }
    }
  }
  report->Metric("similarity.rescales", static_cast<double>(rescales), "count");
  report->Metric("pyramid.touched_per_update",
                 PerAct(layer_touched, replay.size()), "count");
  report->Check(
      "layer_split_same_program",
      applied && layer_touched == core_touched &&
          pyramid.ExportVoteCounts() == index->index().ExportVoteCounts(),
      "engine+pyramid votes vs AncIndex votes after " +
          std::to_string(replay.size()) + " activations");

  // Coverage: the replay's direct children (similarity, pyramid, export;
  // rescales nest inside similarity) against its wall time.
  const std::vector<SpanRecord>& spans = log->spans();
  const auto root = std::find_if(spans.rbegin(), spans.rend(), [](const SpanRecord& s) {
    return std::strcmp(s.name, "replay.layers") == 0;
  });
  double children_ns = 0.0;
  for (const SpanRecord& span : spans) {
    if (span.parent == root->id) children_ns += span.end_ns - span.start_ns;
  }
  const double coverage =
      children_ns / static_cast<double>(root->end_ns - root->start_ns);
  report->Metric("replay.coverage", coverage, "ratio");
  report->Check("layer_coverage", coverage >= 0.95,
                "similarity + pyramid + export cover " +
                    std::to_string(coverage * 100.0) + "% of the replay");
  report->Detail("replay_activations",
                 anc::obs::Json::Number(static_cast<double>(replay.size())));
  report->Detail("replay_sink", anc::obs::Json::Number(static_cast<double>(sink)));
}

void ReportSpanMetrics(const Tracer& tracer, Report* report) {
  struct SpanMetric {
    const char* span;
    const char* metric;
    const char* unit;
    double scale_from_us;
  };
  static constexpr SpanMetric kSpanMetrics[] = {
      {"shard.submit", "shard.submit_us", "us", 1.0},
      {"shard.view", "shard.view_us", "us", 1.0},
      {"shard.merged_local", "shard.merged_local_us", "us", 1.0},
      {"shard.owner_local", "shard.owner_local_us", "us", 1.0},
      {"serve.flush", "serve.flush_ms", "ms", 1e-3},
      {"core.build", "core.build_s", "s", 1e-6},
      {"core.apply", "core.apply_us", "us", 1.0},
      {"core.export", "core.export_us", "us", 1.0},
      {"core.local", "core.local_us", "us", 1.0},
      {"core.clusters", "core.clusters_us", "us", 1.0},
      {"similarity.apply", "similarity.apply_us", "us", 1.0},
      {"pyramid.update", "pyramid.update_us", "us", 1.0},
      {"net.local_rtt", "net.local_rtt_us", "us", 1.0},
      {"net.backend_local", "net.backend_local_us", "us", 1.0},
      {"net.submit_rtt", "net.submit_rtt_us", "us", 1.0},
      {"store.append", "store.append_us", "us", 1.0},
      {"store.sync", "store.sync_us", "us", 1.0},
      {"store.checkpoint", "store.checkpoint_ms", "ms", 1e-3},
      {"store.recover", "store.recover_ms", "ms", 1e-3},
  };
  const std::map<std::string, SpanStats> stats = SummarizeSpans(tracer.Collect());
  for (const SpanMetric& m : kSpanMetrics) {
    const auto it = stats.find(m.span);
    report->Metric(m.metric,
                   it == stats.end() ? 0.0
                                     : it->second.dur_us.Median() * m.scale_from_us,
                   m.unit);
  }
  anc::obs::Json spans = anc::obs::Json::Object();
  for (const auto& [name, s] : stats) {
    anc::obs::Json entry = anc::obs::Json::Object();
    entry.Set("count", anc::obs::Json::Number(static_cast<double>(s.dur_us.size())));
    entry.Set("p50_us", anc::obs::Json::Number(s.dur_us.Median()));
    entry.Set("total_ms", anc::obs::Json::Number(s.total_us / 1e3));
    entry.Set("self_ms", anc::obs::Json::Number(s.self_us / 1e3));
    spans.Set(name, std::move(entry));
  }
  report->Detail("spans", std::move(spans));
}

}  // namespace perfbench
