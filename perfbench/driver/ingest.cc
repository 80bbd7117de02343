// ingest: the write path alone. One producer pushes a pre-generated
// community-biased stream into a k=1 ShardedServer as fast as kBlock
// backpressure allows (closed loop), with no durability and no readers, so
// similarity, pyramid repair and publish do almost all the work. Before the
// write phase, two closed-loop readers query the freshly built index with
// no write traffic: the read metrics' no-contention baseline, on a state
// that depends on the graph alone.
#include <memory>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kCommunities = 256;  // n ~ 12.6k, m ~ 109k, 14 levels
/// The write phase submits a fixed count: kWriteShare of --seconds at
/// kNominalAps, at or below today's ingest rate. A count, not a deadline, so
/// the answer check and the traced replays do the same work on every run.
constexpr double kWriteShare = 0.8;
constexpr double kNominalAps = 2.5e4;
constexpr uint32_t kReaders = 2;
constexpr auto kProbeInterval = std::chrono::milliseconds(5);
constexpr auto kAwait = std::chrono::seconds(60);

}  // namespace

void RunIngest(const Args& args, Tracer* tracer, Report* report) {
  CheckLoadBudget(/*threads=*/kReaders, /*connections=*/0, report);
  const double write_s = args.seconds * kWriteShare;
  const Inputs in = MakeInputs(
      kCommunities, static_cast<size_t>(write_s * kNominalAps), args.seed);
  const anc::Graph& graph = in.data.graph;
  const anc::ActivationStream& stream = in.stream;
  SpanLog* log = tracer->NewLog();

  anc::shard::ShardedOptions options;
  options.partition.num_shards = 1;
  std::unique_ptr<anc::shard::ShardedServer> server;
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
        return server->Submit(stream[0]).status();
      },
      log, report);
  if (!set_up) return;

  anc::shard::ShardedServer& srv = *server;
  ReportReads(RunInProcessReaders(srv, kReaders, args.seconds - write_s,
                                  args.seed, tracer),
              report);

  // k=1 routes every activation to shard 0 without halo copies, so a global
  // ticket is that shard's ticket: awaiting it on the shard waits for
  // publication without flushing the router's staging, which would change
  // the batching this workload measures.
  VisibilityProbe probe(
      [&srv](uint64_t ticket) { return srv.shard(0).AwaitSeq(ticket, kAwait); },
      /*one_in_flight=*/false, tracer->NewLog());
  const size_t count = static_cast<size_t>(write_s * kNominalAps);
  uint64_t submitted = 1;
  uint64_t refused = 0;
  size_t next = 1;
  const Clock::time_point write_start = Clock::now();
  Clock::time_point next_sample = write_start;
  // A closed loop's schedule is "send when the previous call returned", so
  // the generator's lateness is the gap between a return and the next send
  // (sampled every 64 submissions, where the loop reads the clock anyway).
  Samples late_ms;
  Clock::time_point returned;
  anc::Status flushed;
  {
    ScopedSpan run(log, "ingest.write");
    for (; next < count; ++next) {
      bool sample = false;
      Clock::time_point now;
      if ((next & 63) == 0) {
        now = Clock::now();
        if (next >= 64) late_ms.Add(MsBetween(returned, now));
        if (now >= next_sample) {
          sample = true;
          next_sample = now + kProbeInterval;
        }
      }
      anc::Result<uint64_t> ticket = [&] {
        ScopedSpan submit(log, "shard.submit");
        return srv.Submit(stream[next]);
      }();
      if ((next & 63) == 63) returned = Clock::now();
      ++submitted;
      if (!ticket.ok()) {
        ++refused;
      } else if (sample) {
        probe.Sample(*ticket, now);
      }
    }
    ScopedSpan flush(log, "serve.flush");
    flushed = srv.Flush(kAwait);
  }
  const Clock::time_point write_end = Clock::now();
  probe.Finish();
  report->Count(submitted, refused);
  report->Check("flush", flushed.ok(), flushed.ToString());

  const uint64_t accepted = srv.accepted();
  // The setup's first submission is not part of the write phase.
  report->Metric("ingest_aps",
                 static_cast<double>(accepted - 1) /
                     SecondsBetween(write_start, write_end),
                 "1/s");
  ReportVisibility(probe, report);
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  ReportServeCounters(srv, report);
  report->Metric("gen.late_p99_ms", late_ms.Quantile(0.99), "ms");

  // Answer check: the served clustering is byte-identical to one unsharded
  // index fed the accepted stream.
  const anc::ActivationStream prefix(stream.begin(),
                                     stream.begin() + static_cast<long>(accepted));
  {
    anc::AncIndex oracle(graph, BenchConfig());
    bool applied = refused == 0;
    for (const anc::Activation& a : prefix) applied = applied && oracle.Apply(a).ok();
    const auto served = srv.Clusters();
    report->Check("ingest_byte_identical",
                  applied && served.ok() &&
                      SameClustering(*served, oracle.Clusters()) &&
                      srv.writer_status().ok(),
                  std::to_string(accepted) + " accepted activations, " +
                      std::to_string(refused) + " refused");
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
