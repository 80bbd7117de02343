// serve_mixed: the read path under a steady write load. An open-loop
// producer submits at a fixed rate, about a fifth of what this graph
// ingests at k=1, into a k=2 LDG ShardedServer, while a closed-loop
// in-process reader queries it and a probe times submit -> visible. View
// gather, the per-edge vote-owner merge, the Section V-B queries, publish
// cadence and halo routing do the work; a write-path change that costs
// readers or freshness shows here.
#include <memory>
#include <string>
#include <thread>

#include "metrics/quality.h"
#include "metrics/structural.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kCommunities = 64;  // n ~ 3.2k, m ~ 2.8e4
constexpr uint32_t kShards = 2;
/// Offered load, activations per second (absolute; recorded in the result).
constexpr double kOfferedAps = 20000.0;
/// Every this many activations, one ticket goes to the visibility probe.
constexpr uint64_t kProbeEvery = 100;
/// One reader: with the producer, the probe and the two shard writers the
/// process then fits the cores, so tail latencies measure the server rather
/// than the scheduler.
constexpr uint32_t kReaders = 1;
/// The generator wakes at most this often and sends everything due.
constexpr auto kTick = std::chrono::milliseconds(1);
/// A run whose generator sent less than this share of the activations due
/// by the deadline fell behind its schedule: it did not offer the load its
/// latencies claim to describe. Transient lateness is not failure; it is
/// already charged to the latencies, which count from the schedule.
constexpr double kMinOfferedShare = 0.99;
constexpr auto kAwait = std::chrono::seconds(60);

}  // namespace

void RunServeMixed(const Args& args, Tracer* tracer, Report* report) {
  // Producer, probe and readers.
  CheckLoadBudget(/*threads=*/2 + kReaders, /*connections=*/0, report);
  const Inputs in = MakeInputs(
      kCommunities, static_cast<size_t>(kOfferedAps * args.seconds * 1.05) + 1,
      args.seed);
  const anc::Graph& graph = in.data.graph;
  const anc::ActivationStream& stream = in.stream;
  report->Detail("offered_aps", anc::obs::Json::Number(kOfferedAps));
  SpanLog* log = tracer->NewLog();

  anc::shard::ShardedOptions options;
  options.partition.num_shards = kShards;
  options.partition.kind = anc::shard::PartitionerKind::kLdg;
  std::unique_ptr<anc::shard::ShardedServer> server;
  Clock::time_point start;
  const bool set_up = TimeSetups(
      [&] {
        if (server != nullptr) server->Stop();
        server.reset();
      },
      [&]() -> anc::Status {
        auto created =
            anc::shard::ShardedServer::Create(graph, BenchConfig(), options);
        ANC_RETURN_NOT_OK(created.status());
        server = std::move(*created);
        ANC_RETURN_NOT_OK(server->Start());
        start = Clock::now();
        return server->Submit(stream[0]).status();
      },
      log, report);
  if (!set_up) return;
  anc::shard::ShardedServer& srv = *server;

  // Activation i is due at start + i / rate; latencies count from there.
  const auto due = [start](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / kOfferedAps));
  };
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));

  ReadResult reads;
  std::thread readers([&] {
    reads = RunInProcessReaders(srv, kReaders, args.seconds, args.seed, tracer);
  });
  VisibilityProbe probe(
      [&srv](uint64_t ticket) { return srv.AwaitSeq(ticket, kAwait); },
      /*one_in_flight=*/true, tracer->NewLog());
  Samples late_ms;
  uint64_t submitted = 1;
  uint64_t refused = 0;
  size_t next = 1;
  anc::Status flushed;
  {
    ScopedSpan run(log, "serve_mixed.write");
    while (next < stream.size()) {
      const Clock::time_point now = Clock::now();
      if (now >= deadline) break;
      for (; next < stream.size() && due(next) <= now; ++next) {
        const Clock::time_point due_at = due(next);
        anc::Result<uint64_t> ticket = [&] {
          ScopedSpan submit(log, "shard.submit");
          return srv.Submit(stream[next]);
        }();
        late_ms.Add(MsBetween(due_at, Clock::now()));
        ++submitted;
        if (!ticket.ok()) {
          ++refused;
        } else if (next % kProbeEvery == 0) {
          probe.Sample(*ticket, due_at);
        }
      }
      std::this_thread::sleep_until(std::min(deadline, now + kTick));
    }
    ScopedSpan flush(log, "serve.flush");
    flushed = srv.Flush(kAwait);
  }
  const Clock::time_point write_end = Clock::now();
  probe.Finish();
  readers.join();
  report->Count(submitted, refused);
  report->Check("flush", flushed.ok(), flushed.ToString());

  const uint64_t accepted = srv.accepted();
  report->Metric("ingest_aps",
                 static_cast<double>(accepted) /
                     SecondsBetween(start, write_end),
                 "1/s");
  ReportVisibility(probe, report);
  ReportReads(reads, report);
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  ReportServeCounters(srv, report);
  report->Metric("gen.late_p99_ms", late_ms.Quantile(0.99), "ms");
  report->TimingDetail("gen.late_ms", late_ms);
  const double offered_share =
      static_cast<double>(next) / (kOfferedAps * args.seconds);
  report->Check("generator_on_schedule", offered_share >= kMinOfferedShare,
                "sent " + std::to_string(offered_share * 100.0) +
                    "% of the schedule");

  // Answer check: cut edges make merged answers approximate, so they must
  // stay within docs/sharding.md's cross-shard quality tolerance of one
  // unsharded index fed the accepted stream.
  const anc::ActivationStream prefix(stream.begin(),
                                     stream.begin() + static_cast<long>(accepted));
  {
    anc::AncIndex oracle(graph, BenchConfig());
    bool applied = refused == 0;
    for (const anc::Activation& a : prefix) applied = applied && oracle.Apply(a).ok();
    const auto merged = srv.Clusters();
    bool within = applied && merged.ok() && srv.writer_status().ok();
    std::string detail = "apply or query failed";
    if (within) {
      const anc::Clustering exact = oracle.Clusters();
      const double nmi_oracle = anc::Nmi(*merged, exact);
      const double q_merged = anc::Modularity(graph, *merged);
      const double q_oracle = anc::Modularity(graph, exact);
      const double nmi_truth = anc::Nmi(*merged, in.data.truth);
      const double nmi_truth_oracle = anc::Nmi(exact, in.data.truth);
      within = nmi_oracle >= 0.55 && q_merged >= q_oracle - 0.10 &&
               nmi_truth >= nmi_truth_oracle - 0.15;
      detail = "nmi_vs_oracle=" + std::to_string(nmi_oracle) +
               " modularity=" + std::to_string(q_merged) + " vs " +
               std::to_string(q_oracle) + " nmi_vs_truth=" +
               std::to_string(nmi_truth) + " vs " +
               std::to_string(nmi_truth_oracle);
    }
    report->Check("merged_within_tolerance", within, detail);
  }

  if (tracer->enabled()) {
    ProbeLayers(srv, PickNodes(graph, 2000, args.seed), prefix,
                prefix.back().time, NetFrontEnd{}, tracer, report);
    ReplayLayers(graph, prefix, /*store_batch=*/64,
                 args.work_dir + "/replay-store", tracer, report);
  }
  srv.Stop();
}

}  // namespace perfbench
