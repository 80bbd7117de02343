// anc_cli: an interactive driver for the ANC index — load or generate a
// relation network, stream activations, query clusters, watch nodes, and
// persist the index, all from a small command language on stdin.
//
//   $ ./build/examples/anc_cli
//   > gen-ba 1000 3
//   > init 5
//   > activate 17 42 1.5
//   > clusters
//   > local 17
//   > watch 17
//   > save /tmp/my.idx
//
// Commands (lines starting with '#' are comments):
//   load-graph <path>       load a SNAP edge list
//   gen-ba <n> <deg>        generate a Barabasi-Albert graph
//   init [rep]              build the index (default rep 5)
//   activate <u> <v> <t>    one activation on edge (u, v) at time t
//   activate-file <path>    stream "u v t" lines
//   clusters [level]        all clusters (power clustering)
//   local <v> [level]       local cluster of node v
//   zoom-in | zoom-out      move the cluster granularity cursor
//   watch <v> | unwatch <v> manage the watch list
//   changes                 drain vote changes on watched nodes
//   dist <u> <v>            approximate distance / attraction strength
//   stats                   index statistics
//   save <path>             persist the index
//   load <path>             restore a persisted index (graph included)
//   quit
//
// Serving (docs/sharding.md) — one ShardedServer over k >= 1 shards (k = 1
// is the unsharded server); concurrent ingest + snapshot queries:
//   start <k> [hash|ldg|fennel|hdrf] [dir [tier_budget]]
//                           partition the graph and start k shard engines;
//                           with a directory, every shard logs durably under
//                           <dir>/shard-<i> (WAL + checkpoints), and with a
//                           tier budget (bytes, 0 = spill only at
//                           checkpoints) each shard also tiers its per-edge
//                           columns to cold segments under
//                           <dir>/shard-<i>/tier (docs/storage_tiers.md)
//   submit <u> <v> <t>      route one activation (prints its global ticket)
//   submit-file <path>      route "u v t" lines (bad lines are skipped and
//                           counted)
//   flush                   await the watermark covering everything accepted
//   flush-durable           additionally await every shard's covering fsync
//   checkpoint              rotate a checkpoint on every shard
//   view-clusters [level]   merged clusters from the published snapshots
//   view-local <v> [level]  merged local cluster of node v
//   status                  router line (partition, halo traffic, queues)
//                           plus one watermark / store / tier line per shard
//   health                  per-shard health scorecards (cut ratio, queue
//                           depth/staleness, durable lag) with degraded /
//                           critical verdicts
//   recover <dir> [tier_budget]
//                           rebuild every shard from its own checkpoint +
//                           WAL (docs/durability.md) and resume durable
//                           serving on <dir>
//   stop                    drain every shard, publish the final views and
//                           stop (also stops net-serve)
// While a server runs, the graph cannot be replaced (load-graph / gen-ba /
// load are refused until stop).
//
// Rebalancing (docs/sharding.md "Rebalancing & live migration") — every
// start / recover attaches a Rebalancer that taps routed submissions into
// the activity tracker:
//   rebalance-stats         drift monitor (observed cut EWMA vs static
//                           scorecard, ingest skew, windows, trigger
//                           state) and migration counters
//   rebalance-now           close the window, plan from the current
//                           activity EWMAs and execute live migrations
//                           immediately, ignoring the drift trigger
//                           (requires durable shards: start ... dir)
//   migrate <v> <shard>     hand vertex v's ownership to <shard> via the
//                           live WAL-tail handoff (requires durable
//                           shards; exactness needs whole-community moves)
//
// Observability (docs/observability.md) — tracing, telemetry, health:
//   trace-open <path>       attach a JSONL trace sink to the index (and the
//                           server, when running): spans for every
//                           apply / query / ingest stage, correlated by
//                           trace id; validate with examples/trace_check
//   trace-close             detach and close the trace sink
//   telemetry [prom|json] [path]
//                           render the current metric snapshot as
//                           Prometheus text exposition (default) or JSON,
//                           to stdout or to <path>
//
// Networking (docs/networking.md) — RPC serving, remote clients:
//   net-serve [port]        expose the running server over TCP (start <k>
//                           first; port 0 = ephemeral, the bound port is
//                           printed)
//   net-stop                stop the RPC front-end
//   connect <host> <port> [tenant]
//                           open a client connection to a NetServer
//   disconnect              close it
//   remote-submit <u> <v> <t>  submit one activation over RPC (needs a
//                           local graph to resolve the edge id)
//   remote-flush            await the remote published watermark
//   remote-clusters [level] clusters from the remote snapshot
//   remote-local <v> [level]   local cluster over RPC
//   remote-zoom <v>         per-level cluster sizes of v over RPC
//   remote-watermark        remote watermark / epoch (and cache-hit flag)
//   remote-stats | remote-health | remote-metrics
//                           remote introspection (JSON / JSON / Prometheus)

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "activation/stream_io.h"
#include "core/anc.h"
#include "core/serialization.h"
#include "datasets/synthetic.h"
#include "graph/io.h"
#include "net/backend.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/exporter.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "rebalance/rebalancer.h"
#include "shard/health.h"
#include "shard/partitioner.h"
#include "shard/sharded_server.h"
#include "store/store.h"
#include "tier/tiered_store.h"
#include "util/rng.h"

using namespace anc;

namespace {

struct Session {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<AncIndex> index;
  // Declared before the server so it outlives the spans the server emits
  // while stopping.
  std::unique_ptr<obs::TraceSink> trace;
  std::string trace_path;
  std::unique_ptr<shard::ShardedServer> server;
  // Declared after the server, destroyed before it (they hold a pointer).
  std::unique_ptr<rebalance::Rebalancer> rebalancer;
  std::unique_ptr<net::Backend> net_backend;
  std::unique_ptr<net::NetServer> net_server;
  std::unique_ptr<net::Client> remote;
  uint32_t level = 1;

  bool RequireGraph() const {
    if (graph == nullptr) std::printf("error: no graph loaded\n");
    return graph != nullptr;
  }
  bool RequireIndex() const {
    if (index == nullptr) std::printf("error: index not built (run init)\n");
    return index != nullptr;
  }
  bool RequireServer() const {
    if (server == nullptr) std::printf("error: not serving (run start)\n");
    return server != nullptr;
  }
  bool RequireRemote() const {
    if (remote == nullptr) std::printf("error: not connected (connect)\n");
    return remote != nullptr;
  }
  /// A running server borrows the session graph: never swap it out from
  /// under the shard engines.
  bool RequireStopped() const {
    if (server != nullptr) {
      std::printf("error: a server is running; run stop first\n");
    }
    return server == nullptr;
  }
  /// The graph edge ids resolve against: the server's while serving (a
  /// recovered server owns its graph), else the loaded one.
  const Graph* EdgeGraph() const {
    return server != nullptr ? &server->graph() : graph.get();
  }
  /// Attaches the rebalancer and the trace sink to a freshly started
  /// server.
  void Adopt(std::unique_ptr<shard::ShardedServer> started) {
    server = std::move(started);
    rebalancer = std::make_unique<rebalance::Rebalancer>(server.get());
    if (trace != nullptr) server->SetTraceSink(trace.get());
  }
};

/// Parses the optional `[dir [tier_budget]]` tail shared by start and
/// recover into durable (and tiered) shard options.
bool ParseStorageArgs(std::istringstream& args,
                      shard::ShardedOptions* options) {
  if (!(args >> options->store_dir)) return true;
  options->serve.durability = serve::DurabilityPolicy::kGroupCommit;
  tier::TierOptions tier_options;
  if (!(args >> tier_options.tier_budget_bytes)) return args.eof();
  options->tier = tier_options;
  return true;
}

std::string DescribeStorage(const shard::ShardedOptions& options) {
  if (options.store_dir.empty()) return "durability none";
  std::string out = "durability " + options.store_dir;
  if (options.tier.has_value()) {
    out += ", tier budget " + std::to_string(options.tier->tier_budget_bytes) +
           " bytes/shard";
  }
  return out;
}

void PrintMembers(const std::vector<NodeId>& members) {
  for (size_t i = 0; i < std::min<size_t>(20, members.size()); ++i) {
    std::printf(" %u", members[i]);
  }
  if (members.size() > 20) std::printf(" ...");
  std::printf("\n");
}

void PrintClusters(const Clustering& c, const Graph& g) {
  std::printf("%u clusters over %u nodes\n", c.num_clusters, g.NumNodes());
  // Print up to 10 clusters, up to 12 members each.
  uint32_t shown = 0;
  for (uint32_t cluster = 0; cluster < c.num_clusters && shown < 10;
       ++cluster, ++shown) {
    std::printf("  [%u]", cluster);
    uint32_t members = 0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (c.labels[v] != cluster) continue;
      if (members < 12) {
        std::printf(" %u", v);
      } else if (members == 12) {
        std::printf(" ...");
      }
      ++members;
    }
    std::printf("  (%u members)\n", members);
  }
  if (c.num_clusters > 10) {
    std::printf("  ... and %u more clusters\n", c.num_clusters - 10);
  }
}

bool HandleLine(Session& session, const std::string& line) {
  std::istringstream args(line);
  std::string command;
  if (!(args >> command) || command[0] == '#') return true;

  if (command == "quit" || command == "exit") return false;

  if (command == "load-graph") {
    if (!session.RequireStopped()) return true;
    std::string path;
    args >> path;
    Result<Graph> loaded = LoadEdgeList(path);
    if (!loaded.ok()) {
      std::printf("error: %s\n", loaded.status().ToString().c_str());
      return true;
    }
    session.graph = std::make_unique<Graph>(std::move(loaded.value()));
    session.index.reset();
    std::printf("graph: %u nodes, %u edges\n", session.graph->NumNodes(),
                session.graph->NumEdges());
  } else if (command == "gen-ba") {
    if (!session.RequireStopped()) return true;
    uint32_t n = 0;
    uint32_t deg = 0;
    args >> n >> deg;
    if (n < 3 || deg < 1 || deg >= n) {
      std::printf("usage: gen-ba <n>=3..> <deg 1..n-1>\n");
      return true;
    }
    Rng rng(7);
    session.graph = std::make_unique<Graph>(BarabasiAlbert(n, deg, rng));
    session.index.reset();
    std::printf("graph: %u nodes, %u edges\n", session.graph->NumNodes(),
                session.graph->NumEdges());
  } else if (command == "init") {
    if (!session.RequireGraph()) return true;
    uint32_t rep = 5;
    args >> rep;
    AncConfig config;
    config.rep = rep;
    config.similarity.epsilon = SuggestEpsilon(*session.graph);
    session.index = std::make_unique<AncIndex>(*session.graph, config);
    session.level = session.index->DefaultLevel();
    if (session.trace != nullptr) {
      session.index->SetTraceSink(session.trace.get());
    }
    std::printf("index ready: %u pyramids x %u levels, epsilon=%.3f, rep=%u\n",
                config.pyramid.num_pyramids, session.index->num_levels(),
                config.similarity.epsilon, rep);
  } else if (command == "activate") {
    if (!session.RequireIndex()) return true;
    NodeId u = 0;
    NodeId v = 0;
    double t = 0.0;
    args >> u >> v >> t;
    auto e = session.graph->FindEdge(u, v);
    if (!e.has_value()) {
      std::printf("error: (%u, %u) is not an edge\n", u, v);
      return true;
    }
    Status s = session.index->Apply({*e, t});
    std::printf(s.ok() ? "ok\n" : "error: %s\n", s.ToString().c_str());
  } else if (command == "activate-file") {
    if (!session.RequireIndex()) return true;
    std::string path;
    args >> path;
    std::ifstream in(path);
    if (!in) {
      std::printf("error: cannot open %s\n", path.c_str());
      return true;
    }
    size_t applied = 0;
    NodeId u = 0;
    NodeId v = 0;
    double t = 0.0;
    while (in >> u >> v >> t) {
      auto e = session.graph->FindEdge(u, v);
      if (!e.has_value()) continue;
      if (!session.index->Apply({*e, t}).ok()) break;
      ++applied;
    }
    std::printf("applied %zu activations\n", applied);
  } else if (command == "clusters") {
    if (!session.RequireIndex()) return true;
    uint32_t level = session.level;
    args >> level;
    PrintClusters(session.index->Clusters(level), *session.graph);
  } else if (command == "local") {
    if (!session.RequireIndex()) return true;
    NodeId v = 0;
    uint32_t level = session.level;
    args >> v >> level;
    if (v >= session.graph->NumNodes()) {
      std::printf("error: node out of range\n");
      return true;
    }
    std::vector<NodeId> members = session.index->LocalCluster(v, level);
    std::printf("cluster of %u at level %u (%zu members):", v, level,
                members.size());
    PrintMembers(members);
  } else if (command == "zoom-in") {
    if (!session.RequireIndex()) return true;
    if (session.level < session.index->num_levels()) ++session.level;
    std::printf("level %u\n", session.level);
  } else if (command == "zoom-out") {
    if (!session.RequireIndex()) return true;
    if (session.level > 1) --session.level;
    std::printf("level %u\n", session.level);
  } else if (command == "watch" || command == "unwatch") {
    if (!session.RequireIndex()) return true;
    NodeId v = 0;
    args >> v;
    if (v >= session.graph->NumNodes()) {
      std::printf("error: node out of range\n");
      return true;
    }
    if (command == "watch") {
      session.index->Watch(v);
    } else {
      session.index->Unwatch(v);
    }
    std::printf("ok\n");
  } else if (command == "changes") {
    if (!session.RequireIndex()) return true;
    auto changes = session.index->DrainVoteChanges();
    std::printf("%zu vote changes\n", changes.size());
    for (const auto& change : changes) {
      const auto& [u, v] = session.graph->Endpoints(change.edge);
      std::printf("  level %u: edge (%u, %u) now %s\n", change.level, u, v,
                  change.now_passing ? "in-cluster" : "out-of-cluster");
    }
  } else if (command == "dist") {
    if (!session.RequireIndex()) return true;
    NodeId u = 0;
    NodeId v = 0;
    args >> u >> v;
    std::printf("approx distance %.4g, attraction strength %.4g\n",
                session.index->index().ApproxDistance(u, v),
                session.index->index().AttractionStrength(u, v));
  } else if (command == "stats") {
    if (!session.RequireIndex()) return true;
    std::printf(
        "nodes=%u edges=%u levels=%u pyramids=%u level-cursor=%u "
        "memory=%.1fMB touched-nodes=%zu\n",
        session.graph->NumNodes(), session.graph->NumEdges(),
        session.index->num_levels(),
        session.index->config().pyramid.num_pyramids, session.level,
        session.index->MemoryBytes() / (1024.0 * 1024.0),
        session.index->total_touched_nodes());
  } else if (command == "save") {
    if (!session.RequireIndex()) return true;
    std::string path;
    args >> path;
    Status s = SaveIndex(*session.index, path);
    std::printf(s.ok() ? "saved %s\n" : "error: %s\n",
                s.ok() ? path.c_str() : s.ToString().c_str());
  } else if (command == "load") {
    if (!session.RequireStopped()) return true;
    std::string path;
    args >> path;
    Result<LoadedIndex> loaded = LoadIndex(path);
    if (!loaded.ok()) {
      std::printf("error: %s\n", loaded.status().ToString().c_str());
      return true;
    }
    session.graph = std::move(loaded.value().graph);
    session.index = std::move(loaded.value().index);
    session.level = session.index->DefaultLevel();
    std::printf("restored: %u nodes, %u edges\n", session.graph->NumNodes(),
                session.graph->NumEdges());
  } else if (command == "start") {
    if (!session.RequireGraph()) return true;
    if (session.server != nullptr) {
      std::printf("error: already serving (stop first)\n");
      return true;
    }
    constexpr const char* kUsage =
        "usage: start <k> [hash|ldg|fennel|hdrf] [dir [tier_budget]]\n";
    uint32_t num_shards = 0;
    if (!(args >> num_shards) || num_shards == 0) {
      std::printf("%s", kUsage);
      return true;
    }
    shard::ShardedOptions options;
    options.partition.num_shards = num_shards;
    std::string kind_name;
    if (args >> kind_name) {
      Result<shard::PartitionerKind> kind =
          shard::ParsePartitionerKind(kind_name);
      if (!kind.ok()) {
        std::printf("%s", kUsage);
        return true;
      }
      options.partition.kind = kind.value();
    }
    options.partition.ldg_passes = 3;  // restreamed LDG: tighter cuts
    options.serve.ingest.clamp_out_of_order = true;
    if (!ParseStorageArgs(args, &options)) {
      std::printf("%s", kUsage);
      return true;
    }
    AncConfig config;
    config.mode = AncMode::kOnline;
    config.similarity.epsilon = SuggestEpsilon(*session.graph);
    Result<std::unique_ptr<shard::ShardedServer>> created =
        shard::ShardedServer::Create(*session.graph, config, options);
    Status s = created.ok() ? created.value()->Start() : created.status();
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      return true;
    }
    session.Adopt(std::move(created.value()));
    std::printf("serving %u shard(s): %s | %s\n", num_shards,
                session.server->partition_stats().ToString().c_str(),
                DescribeStorage(options).c_str());
  } else if (command == "stop") {
    if (!session.RequireServer()) return true;
    if (session.net_server != nullptr) {
      session.net_server->Stop();
      session.net_server.reset();
      session.net_backend.reset();
      std::printf("rpc: stopped\n");
    }
    session.rebalancer.reset();  // before the server it watches
    shard::ShardedServer& server = *session.server;
    server.Stop();
    const serve::Watermark wm = server.watermark();
    std::printf("stopped %u shard(s) at watermark seq=%llu time=%.3f "
                "(%llu halo deliveries) | store=%s\n",
                server.num_shards(), static_cast<unsigned long long>(wm.seq),
                wm.time,
                static_cast<unsigned long long>(server.halo_deliveries()),
                server.store_status().ToString().c_str());
    session.server.reset();
  } else if (command == "submit") {
    if (!session.RequireServer()) return true;
    NodeId u = 0;
    NodeId v = 0;
    double t = 0.0;
    args >> u >> v >> t;
    auto e = session.server->graph().FindEdge(u, v);
    if (!e.has_value()) {
      std::printf("error: (%u, %u) is not an edge\n", u, v);
      return true;
    }
    Result<uint64_t> ticket = session.server->Submit({*e, t});
    if (!ticket.ok()) {
      std::printf("error: %s\n", ticket.status().ToString().c_str());
      return true;
    }
    session.rebalancer->Observe({*e, t});
    std::printf("ticket %llu\n", static_cast<unsigned long long>(*ticket));
  } else if (command == "submit-file") {
    if (!session.RequireServer()) return true;
    std::string path;
    args >> path;
    StreamLoadOptions load;
    load.skip_bad_lines = true;
    StreamLoadReport load_report;
    Result<ActivationStream> stream = LoadActivationStream(
        session.server->graph(), path, load, &load_report);
    if (!stream.ok()) {
      std::printf("error: %s\n", stream.status().ToString().c_str());
      return true;
    }
    session.server->shard(0).RecordLoadReport(load_report);
    uint64_t last_seq = 0;
    Status s = session.server->SubmitStream(stream.value(), &last_seq);
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      return true;
    }
    for (const Activation& activation : stream.value()) {
      session.rebalancer->Observe(activation);
    }
    std::printf("submitted %zu activations through ticket %llu "
                "(%zu lines skipped)\n",
                stream.value().size(),
                static_cast<unsigned long long>(last_seq),
                load_report.skipped);
    if (load_report.skipped > 0) {
      std::printf("  first skip: %s\n", load_report.first_error.c_str());
    }
  } else if (command == "flush") {
    if (!session.RequireServer()) return true;
    Status s = session.server->Flush();
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      return true;
    }
    const serve::Watermark wm = session.server->watermark();
    std::printf("flushed: watermark seq=%llu time=%.3f\n",
                static_cast<unsigned long long>(wm.seq), wm.time);
  } else if (command == "flush-durable") {
    if (!session.RequireServer()) return true;
    if (!session.server->durable()) {
      std::printf("error: serving without durability (start <k> <kind> "
                  "<dir>)\n");
      return true;
    }
    Status s = session.server->FlushDurable();
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      return true;
    }
    const serve::Watermark durable = session.server->durable_watermark();
    std::printf("durable: seq=%llu time=%.3f\n",
                static_cast<unsigned long long>(durable.seq), durable.time);
  } else if (command == "checkpoint") {
    if (!session.RequireServer()) return true;
    if (!session.server->durable()) {
      std::printf("error: serving without durability\n");
      return true;
    }
    Status s = session.server->RequestCheckpointAll();
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      return true;
    }
    std::printf("checkpoint rotated on %u shard(s)\n",
                session.server->num_shards());
  } else if (command == "view-clusters") {
    if (!session.RequireServer()) return true;
    uint32_t level = 0;
    Result<Clustering> c = (args >> level) ? session.server->Clusters(level)
                                           : session.server->Clusters();
    if (!c.ok()) {
      std::printf("error: %s\n", c.status().ToString().c_str());
      return true;
    }
    std::printf("snapshot at watermark seq %llu:\n",
                static_cast<unsigned long long>(
                    session.server->watermark().seq));
    PrintClusters(c.value(), session.server->graph());
  } else if (command == "view-local") {
    if (!session.RequireServer()) return true;
    NodeId v = 0;
    uint32_t level = 0;
    args >> v;
    if (!(args >> level)) level = session.server->View().DefaultLevel();
    Result<std::vector<NodeId>> members = session.server->LocalCluster(v, level);
    if (!members.ok()) {
      std::printf("error: %s\n", members.status().ToString().c_str());
      return true;
    }
    std::printf("snapshot cluster of %u at level %u (%zu members):", v, level,
                members.value().size());
    PrintMembers(members.value());
  } else if (command == "status") {
    if (!session.RequireServer()) return true;
    const shard::ShardedServer& server = *session.server;
    std::printf(
        "%s | accepted=%llu rejected=%llu halo=%llu (%llu partial) | "
        "queued=%zu | writer=%s store=%s\n",
        server.partition_stats().ToString().c_str(),
        static_cast<unsigned long long>(server.accepted()),
        static_cast<unsigned long long>(server.rejected()),
        static_cast<unsigned long long>(server.halo_deliveries()),
        static_cast<unsigned long long>(server.halo_partial()),
        server.IngestDepth(), server.writer_status().ToString().c_str(),
        server.store_status().ToString().c_str());
    for (uint32_t s = 0; s < server.num_shards(); ++s) {
      const auto& engine = server.shard(s);
      const serve::Watermark wm = engine.watermark();
      std::printf("  shard %u: accepted=%llu watermark seq=%llu time=%.3f "
                  "epoch=%llu depth=%zu",
                  s, static_cast<unsigned long long>(engine.accepted()),
                  static_cast<unsigned long long>(wm.seq), wm.time,
                  static_cast<unsigned long long>(engine.View()->epoch()),
                  engine.IngestDepth());
      if (const store::DurableStore* store = server.shard_store(s)) {
        const store::StoreStats stats = store->Stats();
        std::printf(" | store generation=%llu durable seq=%llu wal=%llu "
                    "segments/%llu bytes",
                    static_cast<unsigned long long>(stats.generation),
                    static_cast<unsigned long long>(stats.durable.seq),
                    static_cast<unsigned long long>(stats.wal_segments),
                    static_cast<unsigned long long>(stats.wal_bytes));
      }
      if (const tier::TieredStore* tier = server.shard_tier(s)) {
        const tier::TierStats stats = tier->Stats();
        std::printf(" | tier resident=%llu/%llu cold=%llu bytes, %llu "
                    "segments, %llu spills, %llu compactions",
                    static_cast<unsigned long long>(stats.resident_bytes),
                    static_cast<unsigned long long>(stats.budget_bytes),
                    static_cast<unsigned long long>(stats.cold_bytes),
                    static_cast<unsigned long long>(stats.segments),
                    static_cast<unsigned long long>(stats.spills),
                    static_cast<unsigned long long>(stats.compactions));
      }
      std::printf("\n");
    }
  } else if (command == "health") {
    if (!session.RequireServer()) return true;
    const obs::HealthReport report = shard::AssessHealth(*session.server);
    std::printf("%s\n", report.ToString().c_str());
  } else if (command == "recover") {
    if (session.server != nullptr) {
      std::printf("error: already serving (stop first)\n");
      return true;
    }
    shard::ShardedOptions options;
    options.serve.ingest.clamp_out_of_order = true;
    if (!ParseStorageArgs(args, &options) || options.store_dir.empty()) {
      std::printf("usage: recover <dir> [tier_budget]\n");
      return true;
    }
    Result<std::unique_ptr<shard::ShardedServer>> recovered =
        shard::ShardedServer::RecoverAll(options.store_dir, options);
    Status s = recovered.ok() ? recovered.value()->Start() : recovered.status();
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      return true;
    }
    session.Adopt(std::move(recovered.value()));
    std::printf("recovered %u shard(s): %s | %s\n",
                session.server->num_shards(),
                session.server->partition_stats().ToString().c_str(),
                DescribeStorage(options).c_str());
    for (const shard::ShardRecoveryInfo& info :
         session.server->recovery_info()) {
      std::printf("  shard %u: watermark seq=%llu time=%.3f | generation "
                  "%llu, checkpoint seq %llu + %llu replayed records "
                  "(%llu activations)%s\n",
                  info.shard,
                  static_cast<unsigned long long>(info.watermark.seq),
                  info.watermark.time,
                  static_cast<unsigned long long>(info.generation),
                  static_cast<unsigned long long>(info.checkpoint_seq),
                  static_cast<unsigned long long>(info.replayed_records),
                  static_cast<unsigned long long>(info.replayed_activations),
                  info.truncated_tail ? " | torn tail truncated" : "");
    }
  } else if (command == "rebalance-stats") {
    if (!session.RequireServer()) return true;
    const rebalance::Rebalancer& reb = *session.rebalancer;
    const rebalance::CutMonitor& monitor = reb.monitor();
    std::printf(
        "observed cut=%.3f static cut=%.3f skew=%.2f | windows=%llu "
        "trigger=%s | observed=%llu activations, %llu rotations | "
        "migrations=%llu | epoch=%llu\n",
        monitor.observed_cut_ratio(),
        session.server->partition_stats().cut_ratio, monitor.ingest_skew(),
        static_cast<unsigned long long>(monitor.windows()),
        monitor.ShouldRebalance() ? "ARMED" : "idle",
        static_cast<unsigned long long>(reb.tracker().observed()),
        static_cast<unsigned long long>(reb.tracker().rotations()),
        static_cast<unsigned long long>(reb.migrations()),
        static_cast<unsigned long long>(session.server->assignment_epoch()));
  } else if (command == "rebalance-now") {
    if (!session.RequireServer()) return true;
    const rebalance::RebalanceOutcome outcome =
        session.rebalancer->RebalanceNow();
    if (!outcome.status.ok()) {
      std::printf("error: %s\n", outcome.status.ToString().c_str());
      return true;
    }
    if (outcome.planned_moves == 0) {
      std::printf("nothing to do: the stream still matches the partition\n");
      return true;
    }
    std::printf("planned %llu moves, executed %llu migrations (%llu "
                "vertices) | now %s\n",
                static_cast<unsigned long long>(outcome.planned_moves),
                static_cast<unsigned long long>(outcome.migrations),
                static_cast<unsigned long long>(outcome.migrated_vertices),
                session.server->partition_stats().ToString().c_str());
  } else if (command == "migrate") {
    if (!session.RequireServer()) return true;
    NodeId v = 0;
    uint32_t to = 0;
    if (!(args >> v >> to)) {
      std::printf("usage: migrate <vertex> <shard>\n");
      return true;
    }
    if (v >= session.server->graph().NumNodes()) {
      std::printf("error: node out of range\n");
      return true;
    }
    Status s = session.rebalancer->Migrate({v}, to);
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      return true;
    }
    std::printf("vertex %u now owned by shard %u (epoch %llu)\n", v, to,
                static_cast<unsigned long long>(
                    session.server->assignment_epoch()));
  } else if (command == "trace-open") {
    std::string path;
    if (!(args >> path)) {
      std::printf("usage: trace-open <path>\n");
      return true;
    }
    if (session.trace != nullptr) {
      std::printf("error: trace already open at %s (trace-close first)\n",
                  session.trace_path.c_str());
      return true;
    }
    auto sink = std::make_unique<obs::TraceSink>(path);
    if (!sink->ok()) {
      std::printf("error: cannot open %s\n", path.c_str());
      return true;
    }
    session.trace = std::move(sink);
    session.trace_path = path;
    if (session.index != nullptr) {
      session.index->SetTraceSink(session.trace.get());
    }
    if (session.server != nullptr) {
      session.server->SetTraceSink(session.trace.get());
    }
    std::printf("tracing to %s (JSONL; check with trace_check)\n",
                path.c_str());
  } else if (command == "trace-close") {
    if (session.trace == nullptr) {
      std::printf("error: no trace open\n");
      return true;
    }
    if (session.index != nullptr) session.index->SetTraceSink(nullptr);
    if (session.server != nullptr) session.server->SetTraceSink(nullptr);
    session.trace.reset();
    std::printf("trace closed: %s\n", session.trace_path.c_str());
    session.trace_path.clear();
  } else if (command == "telemetry") {
    obs::StatsSnapshot snapshot;
    if (session.server != nullptr) {
      snapshot = session.server->Stats();
    } else if (session.index != nullptr) {
      snapshot = session.index->Stats();
    } else {
      std::printf("error: nothing to report (run init first)\n");
      return true;
    }
    std::string format = "prom";
    std::string path;
    args >> format >> path;
    std::string rendered;
    if (format == "prom") {
      rendered = obs::RenderPrometheus(snapshot);
    } else if (format == "json") {
      rendered = snapshot.ToJson(2) + "\n";
    } else {
      std::printf("usage: telemetry [prom|json] [path]\n");
      return true;
    }
    if (path.empty()) {
      std::fputs(rendered.c_str(), stdout);
    } else {
      std::ofstream out(path, std::ios::trunc);
      if (!out) {
        std::printf("error: cannot write %s\n", path.c_str());
        return true;
      }
      out << rendered;
      std::printf("wrote %zu bytes of %s to %s\n", rendered.size(),
                  format.c_str(), path.c_str());
    }
  } else if (command == "net-serve") {
    if (session.net_server != nullptr) {
      std::printf("error: already serving RPC on port %u (net-stop first)\n",
                  session.net_server->port());
      return true;
    }
    if (!session.RequireServer()) return true;
    net::NetServerOptions options;
    unsigned port = 0;
    if (args >> port) options.port = static_cast<uint16_t>(port);
    session.net_backend =
        std::make_unique<net::ShardedBackend>(session.server.get());
    session.net_server = std::make_unique<net::NetServer>(
        session.net_backend.get(), options);
    Status s = session.net_server->Start();
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      session.net_server.reset();
      session.net_backend.reset();
      return true;
    }
    std::printf("rpc: serving %u shard(s) on 127.0.0.1:%u\n",
                session.server->num_shards(), session.net_server->port());
  } else if (command == "net-stop") {
    if (session.net_server == nullptr) {
      std::printf("error: no RPC front-end running\n");
      return true;
    }
    session.net_server->Stop();
    session.net_server.reset();
    session.net_backend.reset();
    std::printf("rpc: stopped\n");
  } else if (command == "connect") {
    std::string host;
    unsigned port = 0;
    if (!(args >> host >> port) || port == 0 || port > 65535) {
      std::printf("usage: connect <host> <port> [tenant]\n");
      return true;
    }
    net::Client::Options options;
    args >> options.tenant_id;
    auto client =
        net::Client::Connect(host, static_cast<uint16_t>(port), options);
    if (!client.ok()) {
      std::printf("error: %s\n", client.status().ToString().c_str());
      return true;
    }
    session.remote = std::move(client.value());
    auto mark = session.remote->Ping();
    if (!mark.ok()) {
      std::printf("error: %s\n", mark.status().ToString().c_str());
      session.remote.reset();
      return true;
    }
    std::printf("connected: watermark seq=%llu epoch=%llu\n",
                static_cast<unsigned long long>(mark->seq),
                static_cast<unsigned long long>(mark->epoch));
  } else if (command == "disconnect") {
    if (!session.RequireRemote()) return true;
    session.remote.reset();
    std::printf("disconnected\n");
  } else if (command == "remote-submit") {
    if (!session.RequireRemote()) return true;
    const Graph* graph = session.EdgeGraph();
    if (graph == nullptr) {
      std::printf("error: no graph loaded\n");
      return true;
    }
    NodeId u = 0;
    NodeId v = 0;
    double t = 0.0;
    args >> u >> v >> t;
    auto e = graph->FindEdge(u, v);
    if (!e.has_value()) {
      std::printf("error: (%u, %u) is not an edge\n", u, v);
      return true;
    }
    auto ack = session.remote->Submit({*e, t});
    if (!ack.ok()) {
      std::printf("error: %s\n", ack.status().ToString().c_str());
      return true;
    }
    std::printf("ticket %llu\n",
                static_cast<unsigned long long>(ack->last_seq));
  } else if (command == "remote-flush") {
    if (!session.RequireRemote()) return true;
    auto mark = session.remote->Flush();
    if (!mark.ok()) {
      std::printf("error: %s\n", mark.status().ToString().c_str());
      return true;
    }
    std::printf("watermark seq=%llu time=%.3f epoch=%llu\n",
                static_cast<unsigned long long>(mark->seq), mark->time,
                static_cast<unsigned long long>(mark->epoch));
  } else if (command == "remote-clusters") {
    if (!session.RequireRemote()) return true;
    uint32_t level = 0;
    args >> level;
    auto clusters = session.remote->Clusters(level);
    if (!clusters.ok()) {
      std::printf("error: %s\n", clusters.status().ToString().c_str());
      return true;
    }
    std::printf("%u clusters at level %u (epoch %llu%s)\n",
                clusters->num_clusters, clusters->level,
                static_cast<unsigned long long>(clusters->epoch),
                (session.remote->last_flags() & net::kFlagCacheHit) != 0
                    ? ", cached"
                    : "");
  } else if (command == "remote-local") {
    if (!session.RequireRemote()) return true;
    NodeId v = 0;
    uint32_t level = 0;
    args >> v >> level;
    auto members = session.remote->LocalCluster(v, level);
    if (!members.ok()) {
      std::printf("error: %s\n", members.status().ToString().c_str());
      return true;
    }
    std::printf("level %u:", members->level);
    size_t shown = 0;
    for (NodeId member : members->members) {
      if (shown++ == 20) {
        std::printf(" ...");
        break;
      }
      std::printf(" %u", member);
    }
    std::printf("  (%zu members%s)\n", members->members.size(),
                (session.remote->last_flags() & net::kFlagCacheHit) != 0
                    ? ", cached"
                    : "");
  } else if (command == "remote-zoom") {
    if (!session.RequireRemote()) return true;
    NodeId v = 0;
    args >> v;
    auto zoom = session.remote->Zoom(v);
    if (!zoom.ok()) {
      std::printf("error: %s\n", zoom.status().ToString().c_str());
      return true;
    }
    for (size_t level = 0; level < zoom->cluster_sizes.size(); ++level) {
      std::printf("  level %zu: %u members%s\n", level + 1,
                  zoom->cluster_sizes[level],
                  level + 1 == zoom->default_level ? "  (default)" : "");
    }
  } else if (command == "remote-watermark") {
    if (!session.RequireRemote()) return true;
    auto mark = session.remote->Watermark();
    if (!mark.ok()) {
      std::printf("error: %s\n", mark.status().ToString().c_str());
      return true;
    }
    std::printf(
        "seq=%llu time=%.3f durable_seq=%llu epoch=%llu\n",
        static_cast<unsigned long long>(mark->seq), mark->time,
        static_cast<unsigned long long>(mark->durable_seq),
        static_cast<unsigned long long>(mark->epoch));
  } else if (command == "remote-stats" || command == "remote-health" ||
             command == "remote-metrics") {
    if (!session.RequireRemote()) return true;
    Result<std::string> text =
        command == "remote-stats"    ? session.remote->StatsJson()
        : command == "remote-health" ? session.remote->HealthJson()
                                     : session.remote->Metrics();
    if (!text.ok()) {
      std::printf("error: %s\n", text.status().ToString().c_str());
      return true;
    }
    std::fputs(text->c_str(), stdout);
    if (text->empty() || text->back() != '\n') std::printf("\n");
  } else {
    std::printf("unknown command: %s\n", command.c_str());
  }
  return true;
}

}  // namespace

int main() {
  std::printf("anc_cli — type commands, 'quit' to exit\n");
  Session session;
  std::string line;
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    if (!HandleLine(session, line)) break;
  }
  return 0;
}
