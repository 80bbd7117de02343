#include "bench/bench_common.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "obs/json.h"

namespace anc::bench {

QualityRow Evaluate(const Graph& g, Clustering predicted,
                    const Clustering& truth,
                    const std::vector<double>& weights,
                    uint32_t min_cluster_size) {
  predicted.DropSmallClusters(min_cluster_size);
  QualityRow row;
  row.modularity = Modularity(g, predicted, weights);
  row.conductance = MeanConductance(g, predicted, weights);

  // Ground-truth metrics follow the standard protocol for partial
  // clusterings: unassigned (noise) nodes count as singleton clusters in
  // NMI / F1 (so a method cannot win by assigning almost nothing), and
  // score zero matched mass in Purity.
  Clustering with_singletons = predicted;
  uint32_t next = with_singletons.num_clusters;
  for (uint32_t& l : with_singletons.labels) {
    if (l == kNoise) l = next++;
  }
  with_singletons.num_clusters = next;
  row.nmi = Nmi(with_singletons, truth);
  row.f1 = F1Score(with_singletons, truth);

  const double matched =
      Purity(predicted, truth) * predicted.NumAssigned();
  row.purity = predicted.labels.empty()
                   ? 0.0
                   : matched / static_cast<double>(predicted.labels.size());
  return row;
}

Clustering BestLevelClustering(const AncIndex& anc, uint32_t target,
                               uint32_t* level_out,
                               const std::vector<double>& weights) {
  const uint32_t lo = std::max<uint32_t>(2, target / 3);
  const uint32_t hi = target * 3;

  Clustering best_in_range;
  double best_modularity = -2.0;
  uint32_t best_in_range_level = 0;

  Clustering closest;
  uint32_t closest_gap = UINT32_MAX;
  uint32_t closest_level = 1;

  for (uint32_t l = 1; l <= anc.num_levels(); ++l) {
    Clustering c = anc.Clusters(l);
    c.DropSmallClusters(3);
    const uint32_t count = c.num_clusters;
    const uint32_t gap = count > target ? count - target : target - count;
    if (gap < closest_gap) {
      closest_gap = gap;
      closest = c;
      closest_level = l;
    }
    if (count >= lo && count <= hi) {
      const double q = Modularity(anc.graph(), c, weights);
      if (q > best_modularity) {
        best_modularity = q;
        best_in_range = std::move(c);
        best_in_range_level = l;
      }
    }
  }
  if (best_in_range_level != 0) {
    if (level_out != nullptr) *level_out = best_in_range_level;
    return best_in_range;
  }
  if (level_out != nullptr) *level_out = closest_level;
  return closest;
}

std::vector<double> ActivenessSnapshot(const AncIndex& anc) {
  std::vector<double> weights(anc.graph().NumEdges());
  for (EdgeId e = 0; e < weights.size(); ++e) {
    weights[e] = anc.engine().activeness().Anchored(e);
  }
  return weights;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRow(const std::vector<std::string>& cells, int width) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string FormatSci(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3e", value);
  return buf;
}

StatsJsonExporter::StatsJsonExporter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

StatsJsonExporter::~StatsJsonExporter() { Flush(); }

void StatsJsonExporter::Add(std::string label, obs::StatsSnapshot stats,
                            double elapsed_seconds) {
  runs_.push_back({std::move(label), std::move(stats), elapsed_seconds});
}

std::string StatsJsonExporter::Flush() {
  if (flushed_) return path_;
  flushed_ = true;

  obs::Json doc = obs::Json::Object();
  doc.Set("bench", obs::Json::Str(bench_name_));
  obs::Json runs = obs::Json::Array();
  for (const Run& run : runs_) {
    obs::Json entry = obs::Json::Object();
    entry.Set("label", obs::Json::Str(run.label));
    entry.Set("elapsed_seconds", obs::Json::Number(run.elapsed_seconds));
    entry.Set("stats", run.stats.ToJsonValue());
    runs.Append(std::move(entry));
  }
  doc.Set("runs", std::move(runs));

  const char* dir = std::getenv("ANC_STATS_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0')
                         ? std::string(dir) + "/" + bench_name_ + "_stats.json"
                         : bench_name_ + "_stats.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[stats] cannot open %s for writing\n", path.c_str());
    return path_;
  }
  out << doc.Dump(2) << '\n';
  if (out.good()) {
    path_ = path;
    std::printf("[stats] wrote %s (%zu runs)\n", path.c_str(), runs_.size());
  }
  return path_;
}

}  // namespace anc::bench
