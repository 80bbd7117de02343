// Networked-serving QPS benchmark (docs/networking.md): a loopback
// end-to-end sweep over the src/net/ front-end. The leader is a one-shard
// ShardedServer behind a ShardedBackend. Four rows:
//
//   cache_off    leader NetServer, query cache disabled
//   cache_on     same workload with the epoch-keyed cache (hit rate
//                exported as bench.cache_hit_x10000)
//   leader_s1    read scale-out baseline: every read hits the leader
//   replicas_s3  leader + 2 WAL-shipping followers, reads round-robin
//                through a ReplicaSetClient (bench.scaleout_x100 is the
//                QPS ratio over leader_s1)
//
// Each row drives the same read mix (LocalCluster over a node pool,
// Clusters, Zoom) from ANC_NET_THREADS client threads over real TCP
// connections, after one ingest+flush so every answer pins a published
// snapshot. Rows land in bench_net_qps_stats.json (StatsJsonExporter,
// $ANC_STATS_DIR) with the server's anc.net.* counters attached, which
// scripts/bench_smoke.sh snapshots as BENCH_net.json.
//
// ANC_NET_SMOKE=1 trims the per-thread query count so the smoke run
// finishes in seconds.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "net/backend.h"
#include "net/client.h"
#include "net/replica.h"
#include "net/server.h"
#include "shard/sharded_server.h"
#include "util/rng.h"
#include "util/timer.h"

namespace anc::bench {
namespace {

AncConfig NetConfig() {
  AncConfig config;
  config.mode = AncMode::kOnline;
  return config;
}

GroundTruthGraph MakeGraph() {
  PlantedPartitionParams pp;
  pp.num_communities = 16;
  pp.min_size = 40;
  pp.max_size = 60;
  Rng rng(2026);
  return PlantedPartition(pp, rng);
}

std::vector<Activation> MakeStream(const Graph& g, size_t count) {
  Rng rng(7);
  std::vector<Activation> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(Activation{static_cast<EdgeId>(rng.Next() % g.NumEdges()),
                             static_cast<double>(i + 1)});
  }
  return out;
}

/// A started one-shard ShardedServer: the leader engine of every row.
std::unique_ptr<shard::ShardedServer> StartLeader(const Graph& graph) {
  shard::ShardedOptions options;
  options.partition.num_shards = 1;
  auto server = shard::ShardedServer::Create(graph, NetConfig(), options);
  ANC_CHECK(server.ok(), "server create");
  ANC_CHECK(server.value()->Start().ok(), "server start");
  return std::move(server).value();
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

/// One client thread's share of the read mix. `read` issues query i and
/// returns false on error (the run aborts rather than reporting a lie).
template <typename Fn>
double DriveReads(size_t num_threads, size_t queries_per_thread,
                  const Fn& make_reader) {
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  Timer timer;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      auto read = make_reader(t);
      for (size_t i = 0; i < queries_per_thread && !failed; ++i) {
        if (!read(i)) {
          failed = true;
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed = timer.ElapsedSeconds();
  ANC_CHECK(!failed, "bench_net_qps: a read failed mid-run");
  return elapsed;
}

struct RowResult {
  double qps = 0.0;
  double elapsed = 0.0;
  double hit_rate = 0.0;  ///< cache hits / (hits + misses), 0 when off
};

void AddRun(StatsJsonExporter& exporter, const std::string& label,
            obs::StatsSnapshot stats, const RowResult& row, double scaleout) {
  stats.gauges.push_back(
      {"bench.qps", static_cast<int64_t>(row.qps + 0.5)});
  stats.gauges.push_back(
      {"bench.cache_hit_x10000",
       static_cast<int64_t>(row.hit_rate * 10000.0 + 0.5)});
  stats.gauges.push_back(
      {"bench.scaleout_x100", static_cast<int64_t>(scaleout * 100.0 + 0.5)});
  exporter.Add(label, std::move(stats), row.elapsed);
}

int Main() {
  const bool smoke = std::getenv("ANC_NET_SMOKE") != nullptr;
  const size_t num_threads = EnvSize("ANC_NET_THREADS", 4);
  const size_t queries_per_thread =
      EnvSize("ANC_NET_QUERIES", smoke ? 400 : 4000);
  const size_t stream_len = smoke ? 2000 : 20000;

  GroundTruthGraph data = MakeGraph();
  const std::vector<Activation> stream = MakeStream(data.graph, stream_len);
  std::printf("graph: n=%u m=%u, stream: %zu, %zu threads x %zu queries%s\n",
              data.graph.NumNodes(), data.graph.NumEdges(), stream.size(),
              num_threads, queries_per_thread, smoke ? " (smoke)" : "");

  // Node pool the LocalCluster/Zoom mix cycles over: big enough to be a
  // workload, small enough that the cache-on row can actually hit.
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < data.graph.NumNodes() && pool.size() < 48; v += 13) {
    pool.push_back(v);
  }

  StatsJsonExporter exporter("bench_net_qps");
  PrintHeader("networked serving QPS (loopback)");
  PrintRow({"row", "qps", "hit_rate", "scaleout"});

  // The per-Client read mix: 1/16 Clusters, 1/8 Zoom, rest LocalCluster.
  const auto mix = [&pool](net::Client& client, size_t i) {
    if (i % 16 == 0) return client.Clusters().ok();
    if (i % 8 == 0) return client.Zoom(pool[i % pool.size()]).ok();
    return client.LocalCluster(pool[i % pool.size()]).ok();
  };

  const size_t total = num_threads * queries_per_thread;
  double leader_only_qps = 0.0;

  // --- Rows 1+2: cache off vs on, leader only -----------------------------
  for (const bool cache_on : {false, true}) {
    std::unique_ptr<shard::ShardedServer> server = StartLeader(data.graph);
    net::ShardedBackend backend(server.get());
    net::NetServerOptions options;
    options.num_workers = num_threads;
    if (!cache_on) options.cache.byte_budget = 0;
    net::NetServer net_server(&backend, options);
    ANC_CHECK(net_server.Start().ok(), "net server start");

    {
      auto feeder = net::Client::Connect("127.0.0.1", net_server.port());
      ANC_CHECK(feeder.ok(), "feeder connect");
      ANC_CHECK((*feeder)->SubmitBatch(stream).ok(), "submit");
      ANC_CHECK((*feeder)->Flush().ok(), "flush");
    }

    RowResult row;
    row.elapsed = DriveReads(num_threads, queries_per_thread, [&](size_t) {
      auto client = net::Client::Connect("127.0.0.1", net_server.port());
      ANC_CHECK(client.ok(), "client connect");
      return [&mix, client = std::shared_ptr<net::Client>(
                        std::move(*client))](size_t i) {
        return mix(*client, i);
      };
    });
    row.qps = static_cast<double>(total) / row.elapsed;
    const uint64_t hits = net_server.cache().hits();
    const uint64_t misses = net_server.cache().misses();
    if (hits + misses > 0) {
      row.hit_rate = static_cast<double>(hits) /
                     static_cast<double>(hits + misses);
    }
    const std::string label = cache_on ? "cache_on" : "cache_off";
    PrintRow({label, FormatSci(row.qps), FormatDouble(row.hit_rate, 3), "-"});
    AddRun(exporter, label, net_server.metrics().Snapshot(), row, 0.0);

    net_server.Stop();
    server->Stop();
  }

  // --- Rows 3+4: leader-only vs leader + 2 followers (caches off, so the
  // ratio measures backend read capacity, not cache luck) ------------------
  {
    std::unique_ptr<shard::ShardedServer> server = StartLeader(data.graph);
    net::ShardedBackend backend(server.get());
    net::NetServerOptions options;
    options.num_workers = num_threads;
    options.cache.byte_budget = 0;
    net::NetServer leader(&backend, options);
    ANC_CHECK(leader.Start().ok(), "leader start");

    uint64_t last_seq = 0;
    {
      auto feeder = net::Client::Connect("127.0.0.1", leader.port());
      ANC_CHECK(feeder.ok(), "feeder connect");
      auto ack = (*feeder)->SubmitBatch(stream);
      ANC_CHECK(ack.ok(), "submit");
      last_seq = ack->last_seq;
      ANC_CHECK((*feeder)->Flush().ok(), "flush");
    }

    // leader_s1: every read on the leader.
    RowResult solo;
    solo.elapsed = DriveReads(num_threads, queries_per_thread, [&](size_t) {
      auto client = net::Client::Connect("127.0.0.1", leader.port());
      ANC_CHECK(client.ok(), "client connect");
      return [&mix, client = std::shared_ptr<net::Client>(
                        std::move(*client))](size_t i) {
        return mix(*client, i);
      };
    });
    solo.qps = static_cast<double>(total) / solo.elapsed;
    leader_only_qps = solo.qps;
    PrintRow({"leader_s1", FormatSci(solo.qps), "-", "1.00"});
    AddRun(exporter, "leader_s1", leader.metrics().Snapshot(), solo, 1.0);

    // replicas_s3: two followers fed by WAL shipping, reads fan out.
    std::vector<std::unique_ptr<net::Follower>> followers;
    std::vector<std::unique_ptr<net::FollowerBackend>> follower_backends;
    std::vector<std::unique_ptr<net::NetServer>> follower_nets;
    std::vector<std::unique_ptr<net::ReplicationPuller>> pullers;
    std::vector<std::pair<std::string, uint16_t>> endpoints;
    for (int f = 0; f < 2; ++f) {
      auto follower = net::Follower::Create(data.graph, NetConfig());
      ANC_CHECK(follower.ok(), "follower create");
      followers.push_back(std::move(*follower));
      follower_backends.push_back(
          std::make_unique<net::FollowerBackend>(followers.back().get()));
      follower_nets.push_back(std::make_unique<net::NetServer>(
          follower_backends.back().get(), options));
      ANC_CHECK(follower_nets.back()->Start().ok(), "follower net start");
      auto conn = net::Client::Connect("127.0.0.1", leader.port());
      ANC_CHECK(conn.ok(), "puller connect");
      pullers.push_back(std::make_unique<net::ReplicationPuller>(
          followers.back().get(), std::move(*conn)));
      pullers.back()->Start();
      endpoints.emplace_back("127.0.0.1", follower_nets.back()->port());
    }
    for (const auto& follower : followers) {
      ANC_CHECK(
          follower->AwaitApplied(last_seq, std::chrono::seconds(60)).ok(),
          "follower catch-up");
    }

    RowResult fanout;
    std::atomic<uint64_t> follower_reads{0};
    std::atomic<uint64_t> fallbacks{0};
    fanout.elapsed = DriveReads(num_threads, queries_per_thread, [&](size_t) {
      auto client = net::ReplicaSetClient::Connect("127.0.0.1", leader.port(),
                                                   endpoints);
      ANC_CHECK(client.ok(), "replica set connect");
      std::shared_ptr<net::ReplicaSetClient> rsc(std::move(*client));
      return [&pool, rsc, &follower_reads, &fallbacks](size_t i) {
        bool ok;
        if (i % 16 == 0) {
          ok = rsc->Clusters().ok();
        } else if (i % 8 == 0) {
          ok = rsc->Zoom(pool[i % pool.size()]).ok();
        } else {
          ok = rsc->LocalCluster(pool[i % pool.size()]).ok();
        }
        follower_reads.store(rsc->follower_reads());
        fallbacks.store(rsc->leader_fallbacks());
        return ok;
      };
    });
    fanout.qps = static_cast<double>(total) / fanout.elapsed;
    const double scaleout = fanout.qps / leader_only_qps;
    PrintRow({"replicas_s3", FormatSci(fanout.qps), "-",
              FormatDouble(scaleout, 2)});
    obs::StatsSnapshot stats = leader.metrics().Snapshot();
    stats.gauges.push_back(
        {"bench.follower_reads",
         static_cast<int64_t>(follower_reads.load())});
    stats.gauges.push_back(
        {"bench.leader_fallbacks", static_cast<int64_t>(fallbacks.load())});
    AddRun(exporter, "replicas_s3", std::move(stats), fanout, scaleout);

    for (auto& puller : pullers) puller->Stop();
    for (auto& net_server : follower_nets) net_server->Stop();
    leader.Stop();
    server->Stop();
  }

  const std::string path = exporter.Flush();
  if (!path.empty()) std::printf("stats: %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace anc::bench

int main() { return anc::bench::Main(); }
