// Reproduces Fig. 8: UPDATE (incremental, Algorithms 1-3) vs RECONSTRUCT
// (rebuild all partitions) with activation batch sizes 2^0 .. 2^10.
//
// Paper shape: UPDATE grows linearly with batch size and is up to six
// orders of magnitude faster than RECONSTRUCT for single activations
// (locality, Lemmas 11-12). The gap here is bounded by the synthetic graph
// sizes (the paper's largest ratio, 197296x, is on 34M-edge LJ).
//
// Every timed update changes its edge's weight: an activation that leaves
// the weight as the index holds it would time a no-op UPDATE, so it is
// applied to the similarity layer and left out of the batch. Each cell is
// the median of kRepeats fresh batches, and "touched" is the median number
// of partition nodes a batch's repair touched (summed over partitions).

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "activation/stream_generators.h"
#include "bench/bench_common.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "similarity/similarity_engine.h"
#include "util/rng.h"
#include "util/timer.h"

namespace anc::bench {
namespace {

constexpr int kRepeats = 5;

/// Draws activations until `batch` of them change the weight `index` holds
/// for their edge (counting earlier updates of the same batch). Gives up
/// after a bounded number of draws; the caller reports a short batch.
std::vector<std::pair<EdgeId, double>> WeightChangingBatch(
    const Graph& g, SimilarityEngine& engine, const PyramidIndex& index,
    uint32_t batch, Rng& rng, double* t) {
  std::vector<std::pair<EdgeId, double>> updates;
  updates.reserve(batch);
  std::unordered_map<EdgeId, double> pending;
  const uint64_t max_draws = 1000 + 64 * static_cast<uint64_t>(batch);
  for (uint64_t draw = 0; draw < max_draws && updates.size() < batch;
       ++draw) {
    *t += 0.01;
    const EdgeId e = static_cast<EdgeId>(rng.Uniform(g.NumEdges()));
    double w = 0.0;
    ANC_CHECK(engine.ApplyActivation(e, *t, &w).ok(), "activation");
    const auto it = pending.find(e);
    const double held = it != pending.end() ? it->second : index.WeightOf(e);
    if (w == held) continue;
    pending[e] = w;
    updates.emplace_back(e, w);
  }
  return updates;
}

void RunDataset(const SyntheticDataset& data, StatsJsonExporter& stats) {
  const Graph& g = data.graph;
  Rng rng(17);

  // Shared similarity state drives realistic weight updates. The registry
  // is shared by the engine and the UPDATE index so the exported stats
  // cover the full incremental path (reconstruct_index stays unmetered —
  // the baseline's cost is its wall clock).
  obs::MetricsRegistry metrics;
  SimilarityParams sim_params;
  sim_params.lambda = 0.1;
  SimilarityEngine engine(g, sim_params, &metrics);
  engine.InitializeStatic(2);
  std::vector<double> weights(g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) weights[e] = engine.Weight(e);

  PyramidParams params;
  params.num_pyramids = 4;
  params.seed = 3;
  PyramidIndex update_index(g, weights, params, &metrics);
  PyramidIndex reconstruct_index(g, weights, params);
  metrics.Reset();  // per-dataset deltas: exclude S0 / construction

  std::printf("--- %s (n=%u, m=%u) ---\n", data.name.c_str(), g.NumNodes(),
              g.NumEdges());
  PrintRow({"batch", "touched", "UPDATE(s)", "RECONST(s)", "speedup"});

  double t = 0.0;
  for (uint32_t log_batch = 0; log_batch <= 10; ++log_batch) {
    const uint32_t batch = 1u << log_batch;
    std::vector<double> update_times;
    std::vector<double> reconstruct_times;
    std::vector<size_t> touched;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      const std::vector<std::pair<EdgeId, double>> updates =
          WeightChangingBatch(g, engine, update_index, batch, rng, &t);
      if (updates.size() < batch) {
        std::fprintf(stderr, "%s batch %u: only %zu weight-changing updates\n",
                     data.name.c_str(), batch, updates.size());
      }

      Timer ut;
      touched.push_back(update_index.UpdateEdgeWeights(updates));
      update_times.push_back(ut.ElapsedSeconds());

      std::vector<double> final_weights(g.NumEdges());
      for (EdgeId e = 0; e < g.NumEdges(); ++e) {
        final_weights[e] = engine.Weight(e);
      }
      Timer rt;
      reconstruct_index.Reconstruct(std::move(final_weights));
      reconstruct_times.push_back(rt.ElapsedSeconds());
    }
    const double update_time = Median(update_times);
    const double reconstruct_time = Median(reconstruct_times);
    PrintRow({std::to_string(batch), std::to_string(Median(touched)),
              FormatSci(update_time), FormatSci(reconstruct_time),
              FormatDouble(reconstruct_time / update_time, 1)});
  }
  stats.Add(data.name + "/update_path", metrics.Snapshot());
  std::printf("\n");
}

void Run() {
  PrintHeader("Fig. 8: Update Time, UPDATE vs RECONSTRUCT");
  std::vector<SyntheticDataset> suite =
      ScalingSuite(/*num_sizes=*/3, /*base_nodes=*/4000, /*edges_per_node=*/4,
                   /*seed=*/29);
  StatsJsonExporter stats("bench_fig8_update_vs_reconstruct");
  for (const SyntheticDataset& data : suite) RunDataset(data, stats);
  std::printf(
      "expected shape: UPDATE linear in batch size; speedup largest at "
      "batch=1 and growing with graph size; cells are medians of %d "
      "batches of weight-changing updates\n",
      kRepeats);
}

}  // namespace
}  // namespace anc::bench

int main() {
  anc::bench::Run();
  return 0;
}
