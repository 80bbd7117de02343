#ifndef ANC_BENCH_BENCH_COMMON_H_
#define ANC_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/anc.h"
#include "graph/clustering_types.h"
#include "graph/graph.h"
#include "metrics/quality.h"
#include "metrics/structural.h"
#include "obs/stats.h"
#include "util/timer.h"

namespace anc::bench {

/// All five quality scores of Section VI-A for one clustering.
struct QualityRow {
  double modularity = 0.0;
  double conductance = 0.0;
  double nmi = 0.0;
  double purity = 0.0;
  double f1 = 0.0;
};

/// Scores `predicted` against `truth` on graph `g` (weights optional for
/// the structural metrics). Clusters smaller than `min_cluster_size` are
/// dropped as noise first (the paper drops clusters with < 3 nodes).
QualityRow Evaluate(const Graph& g, Clustering predicted,
                    const Clustering& truth,
                    const std::vector<double>& weights = {},
                    uint32_t min_cluster_size = 3);

/// The paper's granularity-selection rule, made robust: clusters with < 3
/// nodes are dropped as noise first (Section VI-A protocol); among the
/// levels whose post-filter cluster count lies within a factor of 3 of
/// `target`, the level with the highest (weighted) modularity wins —
/// a structural criterion, no ground-truth peeking. Falls back to the
/// count-closest level when no level lands in range.
Clustering BestLevelClustering(const AncIndex& anc, uint32_t target,
                               uint32_t* level_out = nullptr,
                               const std::vector<double>& weights = {});

/// Per-edge anchored activeness snapshot (weights for baselines that
/// cluster the weighted snapshot graph).
std::vector<double> ActivenessSnapshot(const AncIndex& anc);

/// Fixed-width table printing helpers shared by the bench mains.
void PrintHeader(const std::string& title);
void PrintRow(const std::vector<std::string>& cells, int width = 12);
std::string FormatDouble(double value, int precision = 4);
std::string FormatSci(double value);

/// Collects labeled StatsSnapshots over a bench run and writes them as one
/// JSON document `<bench_name>_stats.json` in $ANC_STATS_DIR (falling back
/// to the working directory) on Flush/destruction:
///
///   { "bench": "...", "runs": [
///       {"label": "...", "elapsed_seconds": ..., "stats": {counters,
///        gauges, histograms}},
///       ... ] }
///
/// Typical use: `exporter.Add(label, anc.Stats(), timer.ElapsedSeconds())`
/// after each configuration, so every row of a bench table has the full
/// per-stage metric breakdown next to it (docs/observability.md).
class StatsJsonExporter {
 public:
  explicit StatsJsonExporter(std::string bench_name);
  ~StatsJsonExporter();  // flushes if not already flushed

  StatsJsonExporter(const StatsJsonExporter&) = delete;
  StatsJsonExporter& operator=(const StatsJsonExporter&) = delete;

  void Add(std::string label, obs::StatsSnapshot stats,
           double elapsed_seconds = 0.0);

  /// Writes the document; returns the output path ("" on I/O failure).
  /// Idempotent: the second and later calls do nothing and return the
  /// first call's path.
  std::string Flush();

 private:
  struct Run {
    std::string label;
    obs::StatsSnapshot stats;
    double elapsed_seconds = 0.0;
  };
  std::string bench_name_;
  std::vector<Run> runs_;
  bool flushed_ = false;
  std::string path_;
};

}  // namespace anc::bench

#endif  // ANC_BENCH_BENCH_COMMON_H_
