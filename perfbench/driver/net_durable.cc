// net_durable: the network front-end and the durable store. A k=1
// ShardedServer at kGroupCommit sits behind net::NetServer on loopback.
// One client sends fixed-size SubmitBatch at a fixed rate and follows each
// batch with FlushDurable; two clients run the read mix of bench_net_qps
// (LocalCluster / Zoom / Clusters over a node pool) through the default
// query cache; a probe times submit -> visible. The run ends with Stop and
// ShardedServer::RecoverAll on the store directory. The protocol codec,
// TCP round trips, the epoch-keyed cache, WAL append, fsync, checkpoint and
// recovery do the work; apply does little.
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "net/client.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kCommunities = 64;  // the serve_mixed graph
constexpr size_t kBatch = 64;
/// Offered load: kBatch * kBatchesPerSecond activations per second.
constexpr double kBatchesPerSecond = 100.0;
constexpr uint32_t kReaders = 2;
constexpr size_t kPoolSize = 48;
constexpr uint64_t kPoolSeed = 48;
/// Below this share of the batches due by the deadline, the writer fell
/// behind its schedule (see serve_mixed.cc).
constexpr double kMinOfferedShare = 0.99;
constexpr auto kAwait = std::chrono::seconds(60);

/// One reader's share of bench_net_qps's mix: 1/16 Clusters, 1/16 Zoom,
/// the rest LocalCluster, cycling over the node pool.
ReadResult DriveNetReads(uint16_t port, const std::vector<anc::NodeId>& pool,
                         size_t offset, Clock::time_point deadline,
                         SpanLog* log) {
  ReadResult out;
  auto client = anc::net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    out.failed = out.reads = 1;
    return out;
  }
  anc::net::Client& c = **client;
  const Clock::time_point start = Clock::now();
  for (size_t i = 1; Clock::now() < deadline; ++i) {
    const anc::NodeId node = pool[(i + offset) % pool.size()];
    const Clock::time_point t0 = Clock::now();
    bool ok;
    if (i % 16 == 0) {
      ScopedSpan span(log, "net.clusters");
      ok = c.Clusters().ok();
      out.clusters_us.Add(UsBetween(t0, Clock::now()));
    } else if (i % 8 == 0) {
      ScopedSpan span(log, "net.zoom");
      ok = c.Zoom(node).ok();
    } else {
      ScopedSpan span(log, "net.local_rtt");
      ok = c.LocalCluster(node).ok();
      out.local_us.Add(UsBetween(t0, Clock::now()));
    }
    ++out.reads;
    if (!ok) ++out.failed;
  }
  out.elapsed_s = SecondsBetween(start, Clock::now());
  return out;
}

}  // namespace

void RunNetDurable(const Args& args, Tracer* tracer, Report* report) {
  // Writer, probe and readers; the writer and each reader own a connection.
  CheckLoadBudget(/*threads=*/2 + kReaders, /*connections=*/1 + kReaders,
                  report);
  const double offered_aps = kBatch * kBatchesPerSecond;
  const Inputs in = MakeInputs(
      kCommunities,
      static_cast<size_t>(offered_aps * args.seconds * 1.05) + kBatch,
      args.seed);
  const anc::Graph& graph = in.data.graph;
  const anc::ActivationStream& stream = in.stream;
  const size_t num_batches = stream.size() / kBatch;
  const auto batch = [&stream](size_t b) {
    return std::vector<anc::Activation>(
        stream.begin() + static_cast<long>(b * kBatch),
        stream.begin() + static_cast<long>((b + 1) * kBatch));
  };
  report->Detail("offered_aps", anc::obs::Json::Number(offered_aps));
  report->Detail("batch", anc::obs::Json::Number(kBatch));
  SpanLog* log = tracer->NewLog();
  // The pool is part of the workload, like the graph: redrawn per seed, 48
  // nodes' cluster sizes would move the read metrics more than the bounds.
  const std::vector<anc::NodeId> pool = PickNodes(graph, kPoolSize, kPoolSeed);

  const std::string store_dir = args.work_dir + "/net_durable-store";
  anc::shard::ShardedOptions options;
  options.partition.num_shards = 1;
  options.serve.durability = anc::serve::DurabilityPolicy::kGroupCommit;
  options.store_dir = store_dir;
  std::unique_ptr<anc::shard::ShardedServer> server;
  std::unique_ptr<anc::net::ShardedBackend> backend;
  std::unique_ptr<anc::net::NetServer> net;
  std::unique_ptr<anc::net::Client> writer;
  Clock::time_point start;
  anc::net::SubmitAck first_ack;
  const auto teardown = [&] {
    writer.reset();
    if (net != nullptr) net->Stop();
    net.reset();
    backend.reset();
    if (server != nullptr) server->Stop();
    server.reset();
    std::error_code ec;
    fs::remove_all(store_dir, ec);
  };
  const bool set_up = TimeSetups(
      teardown,
      [&]() -> anc::Status {
        auto created =
            anc::shard::ShardedServer::Create(graph, BenchConfig(), options);
        ANC_RETURN_NOT_OK(created.status());
        server = std::move(*created);
        ANC_RETURN_NOT_OK(server->Start());
        backend = std::make_unique<anc::net::ShardedBackend>(server.get());
        net = std::make_unique<anc::net::NetServer>(
            backend.get(), anc::net::NetServerOptions{});
        ANC_RETURN_NOT_OK(net->Start());
        auto client = anc::net::Client::Connect("127.0.0.1", net->port());
        ANC_RETURN_NOT_OK(client.status());
        writer = std::move(*client);
        start = Clock::now();
        auto ack = writer->SubmitBatch(batch(0));
        ANC_RETURN_NOT_OK(ack.status());
        first_ack = *ack;
        return first_ack.accepted == kBatch
                   ? anc::Status::OK()
                   : anc::Status::Unavailable("first batch partly refused");
      },
      log, report);
  if (!set_up) {
    teardown();
    return;
  }
  anc::shard::ShardedServer& srv = *server;

  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<ReadResult> per_reader(kReaders);
  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      per_reader[r] = DriveNetReads(net->port(), pool, r * kPoolSize / kReaders,
                                    deadline, tracer->NewLog());
    });
  }
  VisibilityProbe probe(
      [&srv](uint64_t ticket) { return srv.AwaitSeq(ticket, kAwait); },
      /*one_in_flight=*/true, tracer->NewLog());

  // Batch b is due at start + b / rate; durability is timed from there.
  Samples durable_ms;
  Samples late_ms;
  uint64_t attempted = kBatch;
  uint64_t refused = 0;
  size_t b = 0;
  anc::Status flushed;
  {
    ScopedSpan run(log, "net_durable.write");
    probe.Sample(first_ack.last_seq, start);
    Clock::time_point due_at = start;
    while (true) {
      {
        ScopedSpan flush(log, "net.flush_durable");
        ++attempted;
        if (writer->FlushDurable().ok()) {
          durable_ms.Add(MsBetween(due_at, Clock::now()));
        } else {
          ++refused;
        }
      }
      ++b;
      due_at = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(b / kBatchesPerSecond));
      // The wall clock ends the run too: a writer slowed by fsync sends
      // fewer batches by the deadline, and the schedule check sees it.
      if (due_at >= deadline || b >= num_batches || Clock::now() >= deadline) {
        break;
      }
      std::this_thread::sleep_until(due_at);
      late_ms.Add(MsBetween(due_at, Clock::now()));
      auto ack = [&] {
        ScopedSpan submit(log, "net.submit_rtt");
        return writer->SubmitBatch(batch(b));
      }();
      attempted += kBatch;
      if (!ack.ok()) {
        refused += kBatch;
        continue;
      }
      refused += kBatch - ack->accepted;
      probe.Sample(ack->last_seq, due_at);
    }
    ScopedSpan flush(log, "serve.flush");
    flushed = srv.Flush(kAwait);
  }
  const Clock::time_point write_end = Clock::now();
  probe.Finish();
  for (std::thread& reader : readers) reader.join();
  report->Count(attempted, refused);
  report->Check("flush", flushed.ok(), flushed.ToString());

  const uint64_t accepted = srv.accepted();
  report->Metric("ingest_aps",
                 static_cast<double>(accepted) /
                     SecondsBetween(start, write_end),
                 "1/s");
  ReportVisibility(probe, report);
  report->Metric("durable_p50_ms", durable_ms.Median(), "ms");
  report->Metric("durable_p99_ms", durable_ms.Quantile(0.99), "ms");
  report->TimingDetail("durable_ms", durable_ms);
  ReadResult reads;
  reads.elapsed_s = SecondsBetween(start, deadline);
  for (const ReadResult& r : per_reader) {
    reads.local_us.Append(r.local_us);
    reads.clusters_us.Append(r.clusters_us);
    reads.reads += r.reads;
    reads.failed += r.failed;
  }
  ReportReads(reads, report);
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  ReportServeCounters(srv, report);
  const double hits = static_cast<double>(net->cache().hits());
  const double misses = static_cast<double>(net->cache().misses());
  report->Metric("net.cache_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report->Metric("gen.late_p99_ms", late_ms.Quantile(0.99), "ms");
  report->TimingDetail("gen.late_ms", late_ms);
  const double offered_share =
      static_cast<double>(b) / (kBatchesPerSecond * args.seconds);
  report->Check("generator_on_schedule", offered_share >= kMinOfferedShare,
                "sent " + std::to_string(offered_share * 100.0) +
                    "% of the schedule");

  const anc::ActivationStream prefix(
      stream.begin(), stream.begin() + static_cast<long>(accepted));
  if (tracer->enabled()) {
    // Probe submissions go through the durable path too, so the recovery
    // check below still compares like with like.
    ProbeLayers(srv, PickNodes(graph, 2000, args.seed), prefix,
                prefix.back().time, NetFrontEnd{net.get(), backend.get()},
                tracer, report);
  }

  // Answer check: the recovered server answers byte-identically to the
  // live server's final state.
  const anc::Status settled = srv.FlushDurable(kAwait);
  const auto live_clusters = srv.Clusters();
  std::vector<std::vector<anc::NodeId>> live_local;
  for (anc::NodeId v : pool) {
    auto members = srv.LocalCluster(v);
    live_local.push_back(members.ok() ? *members : std::vector<anc::NodeId>{});
  }
  writer.reset();
  net->Stop();
  srv.Stop();

  const Clock::time_point t0 = Clock::now();
  auto recovered = anc::shard::ShardedServer::RecoverAll(
      store_dir, anc::shard::ShardedOptions{});
  bool same = settled.ok() && live_clusters.ok() && recovered.ok() &&
              (*recovered)->Start().ok() &&
              (*recovered)->LocalCluster(pool[0]).ok();
  report->Metric("recover_s", SecondsBetween(t0, Clock::now()), "s");
  if (same) {
    anc::shard::ShardedServer& rec = **recovered;
    const auto rec_clusters = rec.Clusters();
    same = rec_clusters.ok() && SameClustering(*rec_clusters, *live_clusters);
    for (size_t i = 0; same && i < pool.size(); ++i) {
      const auto members = rec.LocalCluster(pool[i]);
      same = members.ok() && *members == live_local[i];
    }
    rec.Stop();
  }
  report->Check("recovered_byte_identical", same,
                recovered.ok() ? "recovered " + std::to_string(accepted) +
                                     " accepted activations"
                               : recovered.status().ToString());

  if (tracer->enabled()) {
    ReplayLayers(graph, prefix, kBatch, args.work_dir + "/replay-store",
                 tracer, report);
  }
  teardown();
}

}  // namespace perfbench
