// The three workloads of the serving-stack benchmark and the traced run's
// layer measurements. perfbench/METRICS.md says why each workload exists
// and which layer each metric belongs to.
#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench.h"
#include "net/backend.h"
#include "net/server.h"

namespace perfbench {

/// One producer, k=1, closed loop as fast as kBlock backpressure allows;
/// then closed-loop readers over the final state.
void RunIngest(const Args& args, Tracer* tracer, Report* report);

/// Open-loop producer at a fixed rate into k=2 LDG, concurrent in-process
/// readers and a visibility probe.
void RunServeMixed(const Args& args, Tracer* tracer, Report* report);

/// k=1 at kGroupCommit behind net::NetServer on loopback: one client
/// submits fixed-size batches at a fixed rate, each followed by
/// FlushDurable; two clients run the read mix; then RecoverAll.
void RunNetDurable(const Args& args, Tracer* tracer, Report* report);

// --- Traced-run layer measurements (layers.cc) ------------------------------

/// Router/serve counters of a server at the end of its measured phase:
/// shard.halo_ratio, serve.batch_mean, serve.epochs_per_kact,
/// serve.queue_depth_max.
void ReportServeCounters(const anc::shard::ShardedServer& server,
                         Report* report);

/// Probes the shard and net layers of a live server with calls the
/// workload itself did not make: one View() gather, the merged and the
/// owner-shard LocalCluster per node, and — unless the workload already
/// recorded them — net round trips over a NetServer fronting the server
/// and direct Submit calls. `net` may be null; a temporary front-end is
/// then started. Probe submissions carry `time`, so they never regress
/// the stream clock.
struct NetFrontEnd {
  anc::net::NetServer* server = nullptr;
  anc::net::ShardedBackend* backend = nullptr;
};
void ProbeLayers(anc::shard::ShardedServer& server,
                 const std::vector<anc::NodeId>& nodes,
                 const anc::ActivationStream& edges, double time,
                 NetFrontEnd net, Tracer* tracer, Report* report);

/// The single-threaded baselines of the traced run, over the first
/// activations of `accepted`:
///  - core: a private AncIndex, Apply per activation plus
///    ExportClusterState at the serve publish cadence;
///  - similarity + pyramid: a standalone SimilarityEngine + PyramidIndex
///    wired the way AncIndex wires them, whose votes must equal the core
///    replay's (the layer split measures the same program), and whose
///    layer spans must cover >= 95% of its wall time;
///  - store: the same activations in `store_batch`-sized batches appended
///    and synced on a standalone DurableStore in `store_dir`, recovered
///    with store::Recover, then checkpointed.
void ReplayLayers(const anc::Graph& graph, const anc::ActivationStream& accepted,
                  size_t store_batch, const std::string& store_dir,
                  Tracer* tracer, Report* report);

/// Per-layer metrics derived from the recorded spans (median durations).
void ReportSpanMetrics(const Tracer& tracer, Report* report);

/// Nodes for the per-node probes and read mixes, drawn from `seed`.
std::vector<anc::NodeId> PickNodes(const anc::Graph& graph, size_t count,
                                   uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
