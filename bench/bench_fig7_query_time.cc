// Reproduces Fig. 7: cluster extraction (DirectedCluster / power
// clustering) time at granularity levels 4-8 across graphs.
//
// Paper shape: extraction time grows linearly with edge count and is
// essentially level-independent (Lemma 8: O(m log n) regardless of level).
//
// Each cell is the median of at least kMinRepeats extractions, repeated
// until each level's add up to kMinCellSeconds. The levels of one graph
// take turns, one extraction each, after one untimed warm-up each: the
// smallest graph's sweep takes about 0.1 ms, and timing one level's
// repeats as a block let the box's drift alone move a level by 2x.
//
// The bench times PowerClustering over the live PyramidIndex, which runs
// the sweep on every call; the per-view answer slots of serve::ClusterView
// are not on this path, so no repeat is a cached copy.
//
// It exits non-zero unless the shape holds: the per-edge time of the
// largest graph is within kMaxPerEdgeRatio of the smallest graph's (a
// row's time is its median level), and at every size the slowest level is
// within kMaxLevelRatio of the fastest.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "datasets/synthetic.h"
#include "pyramid/clustering.h"
#include "pyramid/pyramid_index.h"
#include "util/timer.h"

namespace anc::bench {
namespace {

constexpr size_t kMinRepeats = 5;
constexpr double kMinCellSeconds = 0.02;
constexpr double kMaxPerEdgeRatio = 4.0;
constexpr double kMaxLevelRatio = 2.0;

bool Run() {
  PrintHeader("Fig. 7: Cluster Extraction Time (us, power clustering)");
  std::vector<SyntheticDataset> suite =
      ScalingSuite(/*num_sizes=*/5, /*base_nodes=*/2000, /*edges_per_node=*/5,
                   /*seed=*/9);

  PrintRow({"dataset", "m", "level4", "level5", "level6", "level7", "level8"});
  bool ok = true;
  std::vector<double> per_edge;  // one per row: median level time / m
  for (const SyntheticDataset& data : suite) {
    PyramidParams params;
    params.num_pyramids = 4;
    params.seed = 21;
    std::vector<double> weights(data.graph.NumEdges(), 1.0);
    PyramidIndex idx(data.graph, weights, params);
    ANC_CHECK(idx.num_levels() >= 8, "every graph has levels 4..8");

    // Levels take turns, one extraction each, so a slow phase of the box
    // lands on every level alike; each level gets one untimed warm-up.
    constexpr uint32_t kLevels = 5;  // levels 4..8
    std::vector<std::vector<double>> times(kLevels);
    std::vector<double> totals(kLevels, 0.0);
    for (uint32_t i = 0; i < kLevels; ++i) (void)PowerClustering(idx, i + 4);
    while (times[0].size() < kMinRepeats ||
           *std::min_element(totals.begin(), totals.end()) < kMinCellSeconds) {
      for (uint32_t i = 0; i < kLevels; ++i) {
        Timer t;
        Clustering c = PowerClustering(idx, i + 4);
        times[i].push_back(t.ElapsedSeconds());
        totals[i] += times[i].back();
        ANC_CHECK(c.NumAssigned() == data.graph.NumNodes(), "coverage");
      }
    }
    std::vector<std::string> cells = {data.name,
                                      std::to_string(data.graph.NumEdges())};
    std::vector<double> level_times;
    for (const std::vector<double>& level : times) {
      level_times.push_back(Median(level));
      cells.push_back(FormatDouble(level_times.back() * 1e6, 1));
    }
    PrintRow(cells);
    const auto [fastest, slowest] =
        std::minmax_element(level_times.begin(), level_times.end());
    if (*slowest > kMaxLevelRatio * *fastest) {
      std::printf("SHAPE MISS: %s: slowest level %.2fx the fastest (> %.1fx)\n",
                  data.name.c_str(), *slowest / *fastest, kMaxLevelRatio);
      ok = false;
    }
    per_edge.push_back(Median(level_times) / data.graph.NumEdges());
  }
  const double edge_ratio = per_edge.back() / per_edge.front();
  std::printf("\nper-edge time, largest vs smallest m: %.2fx (bound %.1fx)\n",
              edge_ratio, kMaxPerEdgeRatio);
  if (std::max(edge_ratio, 1.0 / edge_ratio) > kMaxPerEdgeRatio) {
    std::printf("SHAPE MISS: per-edge time is not linear in m\n");
    ok = false;
  }
  std::printf(
      "expected shape: rows grow linearly with m; columns (levels) "
      "roughly flat (Lemma 8); cells are medians of >= %zu extractions "
      "(>= %.0f ms each)\n",
      kMinRepeats, kMinCellSeconds * 1e3);
  return ok;
}

}  // namespace
}  // namespace anc::bench

int main() { return anc::bench::Run() ? 0 : 1; }
