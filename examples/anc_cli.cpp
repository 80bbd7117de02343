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
// Serve mode (docs/serving.md) — concurrent ingest + snapshot queries:
//   serve-start [capacity] [block|drop|reject] [none|async|group]
//                           start the serving engine; a durability policy
//                           other than none requires a wal-open store
//   submit <u> <v> <t>      enqueue one activation (prints its ticket)
//   submit-file <path>      enqueue "u v t" lines through the ingest queue
//                           (bad lines are skipped and counted)
//   flush                   await the watermark covering everything accepted
//   flush-durable           additionally await the covering fsync
//   view-clusters [level]   clusters from the current published snapshot
//   view-local <v> [level]  local cluster from the snapshot
//   serve-stats             watermark / epoch / queue depth / loss counters
//   serve-stop              drain, publish the final view, stop the writer
// While serving, the index belongs to the writer thread: activate / init /
// save / load are refused until serve-stop.
//
// Durability (docs/durability.md) — WAL + checkpoint rotation + recovery:
//   wal-open <dir>          open (or create) a durable store on the index;
//                           refused while serving
//   checkpoint              rotate a checkpoint (through the writer while
//                           serving, directly when quiesced)
//   store-stats             generation / marks / segments / sync counters
//   wal-close               sync and close the store (refused while serving)
//   recover <dir>           rebuild graph + index from checkpoint + WAL
//                           (page references load through the cold
//                           segments under <dir>/tier); wal-open /
//                           tier-open the same dir to continue (tier-open
//                           sweeps the tier dir)
//
// Tiered storage (docs/storage_tiers.md) — larger-than-RAM operation:
//   tier-open <dir> [budget]
//                           wal-open plus a hot/cold tier under <dir>/tier:
//                           per-edge columns spill to mmap'd cold segments
//                           until the resident delta fits <budget> bytes
//                           (0 = spill only at checkpoints), and
//                           checkpoints reference sealed segments instead
//                           of rewriting every page
//   tier-stats              budget / resident / cold bytes, page + segment
//                           counts, spill / promotion / compaction totals
//   tier-compact            merge every live cold segment into one
//   tier-verify             CRC-audit every live segment + the manifest
//   wal-close               also detaches the tier (cold pages promoted
//                           back to RAM first)
//
// Sharding (docs/sharding.md) — partitioned ingest over N writer shards:
//   shard-start <k> [hash|ldg|fennel|hdrf] [dir]
//                           partition the graph and start k AncServer
//                           shards (per-shard WAL under <dir>/shard-<i>
//                           when a directory is given)
//   shard-submit <u> <v> <t>  route one activation (prints global ticket)
//   shard-submit-file <path>  route "u v t" lines through the router
//   shard-flush             drain every shard, publish merged views
//   shard-clusters [level]  scatter-gather merged clusters
//   shard-stats             partition / balance / halo traffic and the
//                           per-shard watermark vector
//   shard-recover <dir>     rebuild every shard from its own checkpoint +
//                           WAL and resume durable serving
//   shard-stop              drain and stop all shards
// While sharded serving is active, the single-index and single-server
// commands are refused (and vice versa).
//
// Rebalancing (docs/sharding.md "Rebalancing & live migration") — every
// shard-start / shard-recover attaches a Rebalancer that taps routed
// submissions into the activity tracker:
//   rebalance-stats         drift monitor (observed cut EWMA vs static
//                           scorecard, ingest skew, windows, trigger
//                           state) and migration counters
//   rebalance-now           close the window, plan from the current
//                           activity EWMAs and execute live migrations
//                           immediately, ignoring the drift trigger
//                           (requires durable shards: shard-start ... dir)
//   migrate <v> <shard>     hand vertex v's ownership to <shard> via the
//                           live WAL-tail handoff (requires durable
//                           shards; exactness needs whole-community moves)
//
// Observability (docs/observability.md) — tracing, telemetry, health:
//   trace-open <path>       attach a JSONL trace sink to the index (and the
//                           sharded server, when running): spans for every
//                           apply / query / ingest stage, correlated by
//                           trace id; validate with examples/trace_check
//   trace-close             detach and close the trace sink
//   telemetry [prom|json] [path]
//                           render the current metric snapshot as
//                           Prometheus text exposition (default) or JSON,
//                           to stdout or to <path>
//   shard-health            per-shard health scorecards (cut ratio, queue
//                           depth/staleness, durable lag) with degraded /
//                           critical verdicts
//
// Networking (docs/networking.md) — RPC serving, remote clients:
//   net-serve [port]        expose the running shard engine over TCP
//                           (shard-start <k> first, shard-start 1 for one
//                           shard; port 0 = ephemeral, the bound port is
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

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

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
#include "serve/server.h"
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
  // Declared between index and store so teardown runs store → tier →
  // index: the tier detaches its columns while the index is still alive.
  std::unique_ptr<tier::TieredStore> tier;
  std::unique_ptr<store::DurableStore> store;
  std::unique_ptr<serve::AncServer> server;
  std::unique_ptr<shard::ShardedServer> sharded;
  // Declared after sharded, destroyed before it (holds a server pointer).
  std::unique_ptr<rebalance::Rebalancer> rebalancer;
  std::unique_ptr<net::Backend> net_backend;
  std::unique_ptr<net::NetServer> net_server;
  std::unique_ptr<net::Client> remote;
  std::unique_ptr<obs::TraceSink> trace;
  std::string trace_path;
  uint32_t level = 1;
  /// Highest activation time the index already covers — recover sets it so
  /// a follow-up wal-open checkpoints the store at the right mark.
  double covered_time = 0.0;

  bool RequireGraph() const {
    if (graph == nullptr) std::printf("error: no graph loaded\n");
    return graph != nullptr;
  }
  bool RequireIndex() const {
    if (index == nullptr) std::printf("error: index not built (run init)\n");
    return index != nullptr;
  }
  bool RequireServer() const {
    if (server == nullptr) std::printf("error: not serving (serve-start)\n");
    return server != nullptr;
  }
  bool RequireStore() const {
    if (store == nullptr) std::printf("error: no store (run wal-open)\n");
    return store != nullptr;
  }
  bool RequireTier() const {
    if (tier == nullptr) std::printf("error: no tier (run tier-open)\n");
    return tier != nullptr;
  }
  bool RequireRemote() const {
    if (remote == nullptr) std::printf("error: not connected (connect)\n");
    return remote != nullptr;
  }
  bool RequireSharded() const {
    if (sharded == nullptr) {
      std::printf("error: not sharded-serving (shard-start)\n");
    }
    return sharded != nullptr;
  }
  /// Commands that touch the index or the store directly are illegal while
  /// the serve writer (or the sharded writers) own them.
  bool RequireQuiesced() const {
    if (server != nullptr) {
      std::printf("error: index is being served; run serve-stop first\n");
      return false;
    }
    if (sharded != nullptr) {
      std::printf("error: sharded serving is active; run shard-stop first\n");
      return false;
    }
    return true;
  }
};

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
    // The serve/shard writers borrow the current graph — never swap it out
    // from under them.
    if (!session.RequireQuiesced()) return true;
    std::string path;
    args >> path;
    Result<Graph> loaded = LoadEdgeList(path);
    if (!loaded.ok()) {
      std::printf("error: %s\n", loaded.status().ToString().c_str());
      return true;
    }
    session.graph = std::make_unique<Graph>(std::move(loaded.value()));
    session.index.reset();
    session.store.reset();
    std::printf("graph: %u nodes, %u edges\n", session.graph->NumNodes(),
                session.graph->NumEdges());
  } else if (command == "gen-ba") {
    if (!session.RequireQuiesced()) return true;
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
    session.store.reset();
    std::printf("graph: %u nodes, %u edges\n", session.graph->NumNodes(),
                session.graph->NumEdges());
  } else if (command == "init") {
    if (!session.RequireGraph() || !session.RequireQuiesced()) return true;
    uint32_t rep = 5;
    args >> rep;
    AncConfig config;
    config.rep = rep;
    config.similarity.epsilon = SuggestEpsilon(*session.graph);
    session.index = std::make_unique<AncIndex>(*session.graph, config);
    session.store.reset();  // a store checkpoints one specific index
    session.covered_time = 0.0;
    session.level = session.index->DefaultLevel();
    if (session.trace != nullptr) {
      session.index->SetTraceSink(session.trace.get());
    }
    std::printf("index ready: %u pyramids x %u levels, epsilon=%.3f, rep=%u\n",
                config.pyramid.num_pyramids, session.index->num_levels(),
                config.similarity.epsilon, rep);
  } else if (command == "activate") {
    if (!session.RequireIndex() || !session.RequireQuiesced()) return true;
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
    if (!session.RequireIndex() || !session.RequireQuiesced()) return true;
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
    if (!session.RequireIndex() || !session.RequireQuiesced()) return true;
    uint32_t level = session.level;
    args >> level;
    PrintClusters(session.index->Clusters(level), *session.graph);
  } else if (command == "local") {
    if (!session.RequireIndex() || !session.RequireQuiesced()) return true;
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
    for (size_t i = 0; i < std::min<size_t>(20, members.size()); ++i) {
      std::printf(" %u", members[i]);
    }
    if (members.size() > 20) std::printf(" ...");
    std::printf("\n");
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
    if (!session.RequireIndex() || !session.RequireQuiesced()) return true;
    std::string path;
    args >> path;
    Status s = SaveIndex(*session.index, path);
    std::printf(s.ok() ? "saved %s\n" : "error: %s\n",
                s.ok() ? path.c_str() : s.ToString().c_str());
  } else if (command == "load") {
    if (!session.RequireQuiesced()) return true;
    std::string path;
    args >> path;
    Result<LoadedIndex> loaded = LoadIndex(path);
    if (!loaded.ok()) {
      std::printf("error: %s\n", loaded.status().ToString().c_str());
      return true;
    }
    session.graph = std::move(loaded.value().graph);
    session.index = std::move(loaded.value().index);
    session.store.reset();
    session.covered_time = 0.0;
    session.level = session.index->DefaultLevel();
    std::printf("restored: %u nodes, %u edges\n", session.graph->NumNodes(),
                session.graph->NumEdges());
  } else if (command == "serve-start") {
    if (!session.RequireIndex()) return true;
    if (session.server != nullptr) {
      std::printf("error: already serving\n");
      return true;
    }
    if (session.sharded != nullptr) {
      std::printf("error: sharded serving is active; run shard-stop first\n");
      return true;
    }
    serve::ServeOptions options;
    size_t capacity = 0;
    std::string policy;
    std::string durability;
    if (args >> capacity && capacity > 0) options.ingest.capacity = capacity;
    if (args >> policy) {
      if (policy == "drop") {
        options.ingest.policy = serve::BackpressurePolicy::kDropOldest;
      } else if (policy == "reject") {
        options.ingest.policy = serve::BackpressurePolicy::kReject;
      } else if (policy != "block") {
        std::printf(
            "usage: serve-start [capacity] [block|drop|reject] "
            "[none|async|group]\n");
        return true;
      }
    }
    if (args >> durability && durability != "none") {
      if (durability == "async") {
        options.durability = serve::DurabilityPolicy::kAsync;
      } else if (durability == "group") {
        options.durability = serve::DurabilityPolicy::kGroupCommit;
      } else {
        std::printf(
            "usage: serve-start [capacity] [block|drop|reject] "
            "[none|async|group]\n");
        return true;
      }
      if (!session.RequireStore()) return true;
      options.store = session.store.get();
      // The writer drives tier maintenance (spill/compaction install) at
      // its quiescent points and completes checkpoint installs.
      options.tier = session.tier.get();
    }
    session.server =
        std::make_unique<serve::AncServer>(session.index.get(), options);
    Status s = session.server->Start();
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      session.server.reset();
      return true;
    }
    std::printf(
        "serving: ingest capacity %zu, policy %s, durability %s, epoch %llu\n",
        options.ingest.capacity, policy.empty() ? "block" : policy.c_str(),
        durability.empty() ? "none" : durability.c_str(),
        static_cast<unsigned long long>(session.server->View()->epoch()));
  } else if (command == "serve-stop") {
    if (!session.RequireServer()) return true;
    session.server->Stop();
    const serve::Watermark wm = session.server->watermark();
    session.covered_time = wm.time;
    std::printf("stopped at watermark seq=%llu time=%.3f (%llu dropped)\n",
                static_cast<unsigned long long>(wm.seq), wm.time,
                static_cast<unsigned long long>(session.server->dropped()));
    if (session.store != nullptr) {
      const serve::Watermark durable = session.server->durable_watermark();
      std::printf("durable seq=%llu time=%.3f store=%s\n",
                  static_cast<unsigned long long>(durable.seq), durable.time,
                  session.server->store_status().ok()
                      ? "ok"
                      : session.server->store_status().ToString().c_str());
    }
    session.server.reset();
  } else if (command == "submit") {
    if (!session.RequireServer()) return true;
    NodeId u = 0;
    NodeId v = 0;
    double t = 0.0;
    args >> u >> v >> t;
    auto e = session.graph->FindEdge(u, v);
    if (!e.has_value()) {
      std::printf("error: (%u, %u) is not an edge\n", u, v);
      return true;
    }
    Result<uint64_t> ticket = session.server->Submit({*e, t});
    if (ticket.ok()) {
      std::printf("ticket %llu\n", static_cast<unsigned long long>(*ticket));
    } else {
      std::printf("error: %s\n", ticket.status().ToString().c_str());
    }
  } else if (command == "submit-file") {
    if (!session.RequireServer()) return true;
    std::string path;
    args >> path;
    StreamLoadOptions load;
    load.skip_bad_lines = true;
    StreamLoadReport load_report;
    Result<ActivationStream> stream =
        LoadActivationStream(*session.graph, path, load, &load_report);
    if (!stream.ok()) {
      std::printf("error: %s\n", stream.status().ToString().c_str());
      return true;
    }
    session.server->RecordLoadReport(load_report);
    size_t submitted = 0;
    size_t bounced = 0;
    for (const Activation& activation : stream.value()) {
      if (session.server->Submit(activation).ok()) {
        ++submitted;
      } else {
        ++bounced;
      }
    }
    std::printf("submitted %zu activations (%zu bounced, %zu lines skipped)\n",
                submitted, bounced, load_report.skipped);
    if (load_report.skipped > 0) {
      std::printf("  first skip: %s\n", load_report.first_error.c_str());
    }
  } else if (command == "flush-durable") {
    if (!session.RequireServer()) return true;
    if (session.store == nullptr) {
      std::printf("error: serving without durability (wal-open + serve-start "
                  "... async|group)\n");
      return true;
    }
    Status s = session.server->FlushDurable();
    if (s.ok()) {
      const serve::Watermark durable = session.server->durable_watermark();
      std::printf("durable: seq=%llu time=%.3f\n",
                  static_cast<unsigned long long>(durable.seq), durable.time);
    } else {
      std::printf("error: %s\n", s.ToString().c_str());
    }
  } else if (command == "flush") {
    if (!session.RequireServer()) return true;
    Status s = session.server->Flush();
    if (s.ok()) {
      const serve::Watermark wm = session.server->watermark();
      std::printf("flushed: watermark seq=%llu time=%.3f\n",
                  static_cast<unsigned long long>(wm.seq), wm.time);
    } else {
      std::printf("error: %s\n", s.ToString().c_str());
    }
  } else if (command == "view-clusters") {
    if (!session.RequireServer()) return true;
    uint32_t level = session.server->View()->DefaultLevel();
    args >> level;
    Result<Clustering> c = session.server->Clusters(level);
    if (!c.ok()) {
      std::printf("error: %s\n", c.status().ToString().c_str());
      return true;
    }
    std::printf("snapshot epoch %llu (watermark seq %llu):\n",
                static_cast<unsigned long long>(session.server->View()->epoch()),
                static_cast<unsigned long long>(
                    session.server->View()->watermark().seq));
    PrintClusters(c.value(), *session.graph);
  } else if (command == "view-local") {
    if (!session.RequireServer()) return true;
    NodeId v = 0;
    uint32_t level = session.server->View()->DefaultLevel();
    args >> v >> level;
    Result<std::vector<NodeId>> members = session.server->LocalCluster(v, level);
    if (!members.ok()) {
      std::printf("error: %s\n", members.status().ToString().c_str());
      return true;
    }
    std::printf("snapshot cluster of %u at level %u (%zu members):", v, level,
                members.value().size());
    for (size_t i = 0; i < std::min<size_t>(20, members.value().size()); ++i) {
      std::printf(" %u", members.value()[i]);
    }
    if (members.value().size() > 20) std::printf(" ...");
    std::printf("\n");
  } else if (command == "serve-stats") {
    if (!session.RequireServer()) return true;
    const serve::Watermark wm = session.server->watermark();
    std::shared_ptr<const serve::ClusterView> view = session.server->View();
    std::printf(
        "watermark seq=%llu time=%.3f | epoch=%llu age=%.3fs | "
        "queue depth=%zu | accepted=%llu dropped=%llu rejected=%llu | "
        "writer=%s\n",
        static_cast<unsigned long long>(wm.seq), wm.time,
        static_cast<unsigned long long>(view->epoch()), view->AgeSeconds(),
        session.server->IngestDepth(),
        static_cast<unsigned long long>(session.server->accepted()),
        static_cast<unsigned long long>(session.server->dropped()),
        static_cast<unsigned long long>(session.server->rejected()),
        session.server->writer_status().ok()
            ? "ok"
            : session.server->writer_status().ToString().c_str());
    if (session.store != nullptr) {
      const serve::Watermark durable = session.server->durable_watermark();
      std::printf("durable seq=%llu time=%.3f store=%s\n",
                  static_cast<unsigned long long>(durable.seq), durable.time,
                  session.server->store_status().ok()
                      ? "ok"
                      : session.server->store_status().ToString().c_str());
    }
  } else if (command == "wal-open") {
    if (!session.RequireIndex() || !session.RequireQuiesced()) return true;
    if (session.store != nullptr) {
      std::printf("error: store already open at %s (wal-close first)\n",
                  session.store->dir().c_str());
      return true;
    }
    std::string dir;
    if (!(args >> dir)) {
      std::printf("usage: wal-open <dir>\n");
      return true;
    }
    store::StoreOptions options;
    options.flush_interval_s = 0.05;  // async policy stays durable by itself
    Result<std::unique_ptr<store::DurableStore>> opened =
        store::DurableStore::Open(dir, *session.index,
                                  store::Mark{0, session.covered_time},
                                  options, &session.index->metrics());
    if (!opened.ok()) {
      std::printf("error: %s\n", opened.status().ToString().c_str());
      return true;
    }
    session.store = std::move(opened.value());
    std::printf("store open: %s generation %llu (checkpoint written)\n",
                dir.c_str(),
                static_cast<unsigned long long>(session.store->generation()));
  } else if (command == "tier-open") {
    if (!session.RequireIndex() || !session.RequireQuiesced()) return true;
    if (session.store != nullptr) {
      std::printf("error: store already open at %s (wal-close first)\n",
                  session.store->dir().c_str());
      return true;
    }
    std::string dir;
    if (!(args >> dir)) {
      std::printf("usage: tier-open <dir> [budget_bytes]\n");
      return true;
    }
    tier::TierOptions tier_options;
    args >> tier_options.tier_budget_bytes;
    Result<std::unique_ptr<tier::TieredStore>> tier_opened =
        tier::TieredStore::Open(dir, tier_options, &session.index->metrics());
    if (!tier_opened.ok()) {
      std::printf("error: %s\n", tier_opened.status().ToString().c_str());
      return true;
    }
    session.tier = std::move(tier_opened.value());
    session.index->AttachTier(session.tier.get());

    store::StoreOptions options;
    options.flush_interval_s = 0.05;
    options.checkpoint_writer = session.tier->CheckpointWriter();
    Result<std::unique_ptr<store::DurableStore>> opened =
        store::DurableStore::Open(dir, *session.index,
                                  store::Mark{0, session.covered_time},
                                  options, &session.index->metrics());
    if (!opened.ok()) {
      std::printf("error: %s\n", opened.status().ToString().c_str());
      session.tier->DetachAll();
      session.tier.reset();
      return true;
    }
    session.store = std::move(opened.value());
    session.tier->OnCheckpointInstalled();  // Open's base head is durable
    std::printf(
        "tiered store open: %s generation %llu, budget %llu bytes "
        "(tier under %s)\n",
        dir.c_str(),
        static_cast<unsigned long long>(session.store->generation()),
        static_cast<unsigned long long>(tier_options.tier_budget_bytes),
        session.tier->dir().c_str());
  } else if (command == "wal-close") {
    if (!session.RequireStore() || !session.RequireQuiesced()) return true;
    Status s = session.store->Sync();
    session.store.reset();
    if (session.tier != nullptr) {
      session.tier->DetachAll();
      session.tier.reset();
      std::printf("tier detached (cold pages promoted back to RAM)\n");
    }
    std::printf(s.ok() ? "store closed\n" : "store closed (last sync: %s)\n",
                s.ToString().c_str());
  } else if (command == "checkpoint") {
    if (session.server != nullptr) {
      // The writer owns index + store: rotate through its quiescent points.
      if (session.store == nullptr) {
        std::printf("error: serving without durability\n");
        return true;
      }
      Status s = session.server->RequestCheckpoint();
      std::printf(s.ok() ? "checkpoint rotated (via writer)\n"
                         : "error: %s\n",
                  s.ToString().c_str());
      return true;
    }
    if (!session.RequireIndex() || !session.RequireStore()) return true;
    Status s = session.store->WriteCheckpoint(*session.index,
                                              session.store->appended());
    if (s.ok()) {
      if (session.tier != nullptr) session.tier->OnCheckpointInstalled();
      std::printf("checkpoint rotated: generation %llu\n",
                  static_cast<unsigned long long>(session.store->generation()));
    } else {
      std::printf("error: %s\n", s.ToString().c_str());
    }
  } else if (command == "store-stats") {
    if (!session.RequireStore()) return true;
    const store::StoreStats stats = session.store->Stats();
    std::printf(
        "dir=%s generation=%llu | appended seq=%llu durable seq=%llu | "
        "wal: %llu segments, %llu bytes | records=%llu syncs=%llu "
        "checkpoints=%llu | checkpoint=%s\n",
        session.store->dir().c_str(),
        static_cast<unsigned long long>(stats.generation),
        static_cast<unsigned long long>(stats.appended.seq),
        static_cast<unsigned long long>(stats.durable.seq),
        static_cast<unsigned long long>(stats.wal_segments),
        static_cast<unsigned long long>(stats.wal_bytes),
        static_cast<unsigned long long>(stats.records),
        static_cast<unsigned long long>(stats.syncs),
        static_cast<unsigned long long>(stats.checkpoints),
        stats.checkpoint_file.c_str());
  } else if (command == "tier-stats") {
    if (!session.RequireTier()) return true;
    const tier::TierStats stats = session.tier->Stats();
    std::printf(
        "tier=%s budget=%llu resident=%llu cold=%llu bytes | "
        "columns=%llu pages=%llu/%llu resident | segments=%llu | "
        "spills=%llu (%llu pages, %llu bytes) promotions=%llu (%llu bytes) "
        "| compactions=%llu segments_deleted=%llu\n",
        session.tier->dir().c_str(),
        static_cast<unsigned long long>(stats.budget_bytes),
        static_cast<unsigned long long>(stats.resident_bytes),
        static_cast<unsigned long long>(stats.cold_bytes),
        static_cast<unsigned long long>(stats.columns),
        static_cast<unsigned long long>(stats.pages_resident),
        static_cast<unsigned long long>(stats.pages_total),
        static_cast<unsigned long long>(stats.segments),
        static_cast<unsigned long long>(stats.spills),
        static_cast<unsigned long long>(stats.spilled_pages),
        static_cast<unsigned long long>(stats.spilled_bytes),
        static_cast<unsigned long long>(stats.promotions),
        static_cast<unsigned long long>(stats.promoted_bytes),
        static_cast<unsigned long long>(stats.compactions),
        static_cast<unsigned long long>(stats.segments_deleted));
  } else if (command == "tier-compact") {
    // CompactNow runs on the caller's thread at a quiescent point; while
    // serving, the writer owns those points (Maintain compacts in the
    // background there).
    if (!session.RequireTier() || !session.RequireQuiesced()) return true;
    Status s = session.tier->CompactNow();
    if (s.ok()) {
      const tier::TierStats stats = session.tier->Stats();
      std::printf("compacted: %llu live segments, %llu cold bytes\n",
                  static_cast<unsigned long long>(stats.segments),
                  static_cast<unsigned long long>(stats.cold_bytes));
    } else {
      std::printf("error: %s\n", s.ToString().c_str());
    }
  } else if (command == "tier-verify") {
    if (!session.RequireTier()) return true;
    Status s = session.tier->VerifySegments();
    std::printf(s.ok() ? "tier verified: every live segment CRC-clean\n"
                       : "error: %s\n",
                s.ToString().c_str());
  } else if (command == "recover") {
    if (!session.RequireQuiesced()) return true;
    std::string dir;
    if (!(args >> dir)) {
      std::printf("usage: recover <dir>\n");
      return true;
    }
    // Page references load through the cold segments under <dir>/tier;
    // tier-open on the same dir later sweeps what a crash left there.
    Result<store::RecoveredStore> recovered = store::Recover(dir);
    if (!recovered.ok()) {
      std::printf("error: %s\n", recovered.status().ToString().c_str());
      return true;
    }
    store::RecoveredStore& r = recovered.value();
    if (session.tier != nullptr) {
      session.tier->DetachAll();  // before the old index it feeds goes away
      session.tier.reset();
    }
    session.graph = std::move(r.graph);
    session.index = std::move(r.index);
    session.store.reset();
    session.covered_time = r.watermark.time;
    session.level = session.index->DefaultLevel();
    std::printf(
        "recovered: %u nodes, %u edges | generation %llu, checkpoint seq "
        "%llu + %llu replayed records (%llu activations, %llu skipped)%s\n"
        "run 'wal-open %s' to continue durably\n",
        session.graph->NumNodes(), session.graph->NumEdges(),
        static_cast<unsigned long long>(r.generation),
        static_cast<unsigned long long>(r.checkpoint_seq),
        static_cast<unsigned long long>(r.replayed_records),
        static_cast<unsigned long long>(r.replayed_activations),
        static_cast<unsigned long long>(r.skipped_applies),
        r.truncated_tail ? " | torn tail truncated" : "", dir.c_str());
  } else if (command == "shard-start") {
    if (!session.RequireGraph() || !session.RequireQuiesced()) return true;
    uint32_t num_shards = 0;
    std::string kind_name;
    std::string dir;
    if (!(args >> num_shards) || num_shards == 0) {
      std::printf("usage: shard-start <k> [hash|ldg|fennel|hdrf] [dir]\n");
      return true;
    }
    shard::ShardedOptions options;
    options.partition.num_shards = num_shards;
    if (args >> kind_name) {
      Result<shard::PartitionerKind> kind =
          shard::ParsePartitionerKind(kind_name);
      if (!kind.ok()) {
        std::printf("usage: shard-start <k> [hash|ldg|fennel|hdrf] [dir]\n");
        return true;
      }
      options.partition.kind = kind.value();
    }
    options.partition.ldg_passes = 3;  // restreamed LDG: tighter cuts
    options.serve.ingest.clamp_out_of_order = true;
    if (args >> dir) {
      options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
      options.store_dir = dir;
    }
    AncConfig config;
    config.mode = AncMode::kOnline;
    config.similarity.epsilon = SuggestEpsilon(*session.graph);
    Result<std::unique_ptr<shard::ShardedServer>> created =
        shard::ShardedServer::Create(*session.graph, config, options);
    if (!created.ok()) {
      std::printf("error: %s\n", created.status().ToString().c_str());
      return true;
    }
    Status s = created.value()->Start();
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      return true;
    }
    session.sharded = std::move(created.value());
    session.rebalancer =
        std::make_unique<rebalance::Rebalancer>(session.sharded.get());
    if (session.trace != nullptr) {
      session.sharded->SetTraceSink(session.trace.get());
    }
    std::printf("sharded serving: %s | durability %s\n",
                session.sharded->partition_stats().ToString().c_str(),
                dir.empty() ? "none" : dir.c_str());
  } else if (command == "shard-submit") {
    if (!session.RequireSharded()) return true;
    NodeId u = 0;
    NodeId v = 0;
    double t = 0.0;
    args >> u >> v >> t;
    auto e = session.sharded->graph().FindEdge(u, v);
    if (!e.has_value()) {
      std::printf("error: (%u, %u) is not an edge\n", u, v);
      return true;
    }
    Result<uint64_t> ticket = session.sharded->Submit({*e, t});
    if (ticket.ok()) {
      if (session.rebalancer != nullptr) session.rebalancer->Observe({*e, t});
      std::printf("ticket %llu\n", static_cast<unsigned long long>(*ticket));
    } else {
      std::printf("error: %s\n", ticket.status().ToString().c_str());
    }
  } else if (command == "shard-submit-file") {
    if (!session.RequireSharded()) return true;
    std::string path;
    args >> path;
    StreamLoadOptions load;
    load.skip_bad_lines = true;
    StreamLoadReport load_report;
    Result<ActivationStream> stream = LoadActivationStream(
        session.sharded->graph(), path, load, &load_report);
    if (!stream.ok()) {
      std::printf("error: %s\n", stream.status().ToString().c_str());
      return true;
    }
    uint64_t last_seq = 0;
    Status s = session.sharded->SubmitStream(stream.value(), &last_seq);
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      return true;
    }
    if (session.rebalancer != nullptr) {
      for (const Activation& activation : stream.value()) {
        session.rebalancer->Observe(activation);
      }
    }
    std::printf("submitted %zu activations through ticket %llu "
                "(%zu lines skipped)\n",
                stream.value().size(),
                static_cast<unsigned long long>(last_seq),
                load_report.skipped);
  } else if (command == "shard-flush") {
    if (!session.RequireSharded()) return true;
    Status s = session.sharded->Flush();
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      return true;
    }
    std::printf("flushed: %llu accepted visible in every shard's view\n",
                static_cast<unsigned long long>(session.sharded->accepted()));
  } else if (command == "shard-clusters") {
    if (!session.RequireSharded()) return true;
    uint32_t level = 0;
    Result<Clustering> c = (args >> level)
                               ? session.sharded->Clusters(level)
                               : session.sharded->Clusters();
    if (!c.ok()) {
      std::printf("error: %s\n", c.status().ToString().c_str());
      return true;
    }
    PrintClusters(c.value(), session.sharded->graph());
  } else if (command == "shard-stats") {
    if (!session.RequireSharded()) return true;
    shard::ShardedServer& sharded = *session.sharded;
    std::printf(
        "%s | accepted=%llu rejected=%llu halo=%llu (%llu partial) | "
        "queued=%zu | writer=%s store=%s\n",
        sharded.partition_stats().ToString().c_str(),
        static_cast<unsigned long long>(sharded.accepted()),
        static_cast<unsigned long long>(sharded.rejected()),
        static_cast<unsigned long long>(sharded.halo_deliveries()),
        static_cast<unsigned long long>(sharded.halo_partial()),
        sharded.IngestDepth(),
        sharded.writer_status().ok()
            ? "ok"
            : sharded.writer_status().ToString().c_str(),
        sharded.store_status().ok()
            ? "ok"
            : sharded.store_status().ToString().c_str());
    for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
      const serve::AncServer& shard_server = sharded.shard(s);
      const serve::Watermark wm = shard_server.watermark();
      std::printf("  shard %u: accepted=%llu watermark seq=%llu time=%.3f "
                  "epoch=%llu depth=%zu\n",
                  s,
                  static_cast<unsigned long long>(shard_server.accepted()),
                  static_cast<unsigned long long>(wm.seq), wm.time,
                  static_cast<unsigned long long>(shard_server.View()->epoch()),
                  shard_server.IngestDepth());
    }
  } else if (command == "shard-recover") {
    if (!session.RequireQuiesced()) return true;
    std::string dir;
    if (!(args >> dir)) {
      std::printf("usage: shard-recover <dir>\n");
      return true;
    }
    shard::ShardedOptions options;
    options.serve.ingest.clamp_out_of_order = true;
    options.serve.durability = serve::DurabilityPolicy::kGroupCommit;
    options.store_dir = dir;
    Result<std::unique_ptr<shard::ShardedServer>> recovered =
        shard::ShardedServer::RecoverAll(dir, options);
    if (!recovered.ok()) {
      std::printf("error: %s\n", recovered.status().ToString().c_str());
      return true;
    }
    Status s = recovered.value()->Start();
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      return true;
    }
    session.sharded = std::move(recovered.value());
    session.rebalancer =
        std::make_unique<rebalance::Rebalancer>(session.sharded.get());
    if (session.trace != nullptr) {
      session.sharded->SetTraceSink(session.trace.get());
    }
    std::printf("recovered %u shards: %s\n", session.sharded->num_shards(),
                session.sharded->partition_stats().ToString().c_str());
    for (const shard::ShardRecoveryInfo& info :
         session.sharded->recovery_info()) {
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
  } else if (command == "shard-stop") {
    if (!session.RequireSharded()) return true;
    session.rebalancer.reset();  // before the server it watches
    session.sharded->Stop();
    std::printf("stopped %u shards at %llu accepted (%llu halo deliveries, "
                "store=%s)\n",
                session.sharded->num_shards(),
                static_cast<unsigned long long>(session.sharded->accepted()),
                static_cast<unsigned long long>(
                    session.sharded->halo_deliveries()),
                session.sharded->store_status().ok()
                    ? "ok"
                    : session.sharded->store_status().ToString().c_str());
    session.sharded.reset();
  } else if (command == "rebalance-stats") {
    if (!session.RequireSharded()) return true;
    const rebalance::Rebalancer& reb = *session.rebalancer;
    const rebalance::CutMonitor& monitor = reb.monitor();
    std::printf(
        "observed cut=%.3f static cut=%.3f skew=%.2f | windows=%llu "
        "trigger=%s | observed=%llu activations, %llu rotations | "
        "migrations=%llu | epoch=%llu\n",
        monitor.observed_cut_ratio(),
        session.sharded->partition_stats().cut_ratio, monitor.ingest_skew(),
        static_cast<unsigned long long>(monitor.windows()),
        monitor.ShouldRebalance() ? "ARMED" : "idle",
        static_cast<unsigned long long>(reb.tracker().observed()),
        static_cast<unsigned long long>(reb.tracker().rotations()),
        static_cast<unsigned long long>(reb.migrations()),
        static_cast<unsigned long long>(session.sharded->assignment_epoch()));
  } else if (command == "rebalance-now") {
    if (!session.RequireSharded()) return true;
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
                session.sharded->partition_stats().ToString().c_str());
  } else if (command == "migrate") {
    if (!session.RequireSharded()) return true;
    NodeId v = 0;
    uint32_t to = 0;
    if (!(args >> v >> to)) {
      std::printf("usage: migrate <vertex> <shard>\n");
      return true;
    }
    if (v >= session.sharded->graph().NumNodes()) {
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
                    session.sharded->assignment_epoch()));
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
    if (session.sharded != nullptr) {
      session.sharded->SetTraceSink(session.trace.get());
    }
    std::printf("tracing to %s (JSONL; check with trace_check)\n",
                path.c_str());
  } else if (command == "trace-close") {
    if (session.trace == nullptr) {
      std::printf("error: no trace open\n");
      return true;
    }
    if (session.index != nullptr) session.index->SetTraceSink(nullptr);
    if (session.sharded != nullptr) session.sharded->SetTraceSink(nullptr);
    session.trace.reset();
    std::printf("trace closed: %s\n", session.trace_path.c_str());
    session.trace_path.clear();
  } else if (command == "telemetry") {
    obs::StatsSnapshot snapshot;
    if (session.sharded != nullptr) {
      snapshot = session.sharded->Stats();
    } else if (session.server != nullptr) {
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
  } else if (command == "shard-health") {
    if (!session.RequireSharded()) return true;
    const obs::HealthReport report = shard::AssessHealth(*session.sharded);
    std::printf("%s\n", report.ToString().c_str());
  } else if (command == "net-serve") {
    if (session.net_server != nullptr) {
      std::printf("error: already serving RPC on port %u (net-stop first)\n",
                  session.net_server->port());
      return true;
    }
    if (session.sharded == nullptr) {
      std::printf(
          "error: net-serve fronts the shard engine (shard-start <k> first; "
          "shard-start 1 for a single shard)\n");
      return true;
    }
    net::NetServerOptions options;
    unsigned port = 0;
    if (args >> port) options.port = static_cast<uint16_t>(port);
    session.net_backend =
        std::make_unique<net::ShardedBackend>(session.sharded.get());
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
                session.sharded->num_shards(), session.net_server->port());
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
    if (!session.RequireRemote() || !session.RequireGraph()) return true;
    NodeId u = 0;
    NodeId v = 0;
    double t = 0.0;
    args >> u >> v >> t;
    auto e = session.graph->FindEdge(u, v);
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
