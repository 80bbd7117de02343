// Tiered-storage benchmark (docs/storage_tiers.md): drives the same
// append + apply + checkpoint loop the serve writer runs, sweeping RAM
// budget x graph size — for each graph, an in-RAM durable baseline, then
// the hot/cold tier at ~25% and ~10% of the measured column footprint.
// The 10% point is the ISSUE acceptance bar for larger-than-RAM
// operation: ingest must stay within 2x of the in-RAM baseline with the
// quiescent-point resident delta under budget. Reports ingest
// throughput, peak resident bytes, spill/promotion traffic and
// checkpoint cost; full anc.tier.* metrics go to
// bench_tier_spill_stats.json via StatsJsonExporter ($ANC_STATS_DIR).
//
// ANC_TIER_SMOKE=1 shrinks the workload for CI smoke runs
// (scripts/bench_smoke.sh).

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "activation/stream_generators.h"
#include "bench/bench_common.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "store/store.h"
#include "tier/tiered_store.h"
#include "util/rng.h"
#include "util/timer.h"

namespace anc::bench {
namespace {

/// Same batch shape as the serve writer (and bench_store_wal), so fsync
/// coalescing matches serving.
constexpr size_t kBatchSize = 32;
/// Maintain (demote back under budget) at a coarser cadence than the
/// batch: each spill seals a segment with two fsyncs, so per-batch
/// maintenance would pay segment-write cost for pages the very next batch
/// promotes right back. Between Maintains the resident delta may ride
/// above budget; the budget assertion below checks the quiescent points,
/// which is the contract (docs/storage_tiers.md "Demotion").
constexpr size_t kMaintainEveryBatches = 8;
constexpr size_t kCheckpointEveryBatches = 16;

struct RunResult {
  double elapsed_s = 0.0;
  double checkpoint_ms = 0.0;
  uint64_t activations = 0;
  uint64_t peak_resident = 0;
  tier::TierStats stats;
};

/// One full ingest pass: append + apply in writer-sized batches, tier
/// maintenance every kMaintainEveryBatches, a checkpoint rotation every
/// kCheckpointEveryBatches. `tier` may be null (the in-RAM baseline).
bool Drive(store::DurableStore* store, tier::TieredStore* tier,
           AncIndex* index, const ActivationStream& stream,
           RunResult* result) {
  double last_time = 0.0;
  double checkpoint_s = 0.0;
  size_t batch_index = 0;
  Timer timer;
  for (size_t start = 0; start < stream.size();
       start += kBatchSize, ++batch_index) {
    const size_t count = std::min(kBatchSize, stream.size() - start);
    const std::vector<Activation> batch(stream.begin() + start,
                                        stream.begin() + start + count);
    if (!store->Append(batch, start + 1).ok()) return false;
    for (const Activation& activation : batch) {
      if (!index->Apply(activation).ok()) return false;
      last_time = std::max(last_time, activation.time);
      ++result->activations;
    }
    if (tier != nullptr &&
        batch_index % kMaintainEveryBatches == kMaintainEveryBatches - 1) {
      if (!tier->Maintain().ok()) return false;
      result->peak_resident =
          std::max(result->peak_resident, tier->resident_bytes());
    }
    if (batch_index % kCheckpointEveryBatches ==
        kCheckpointEveryBatches - 1) {
      Timer checkpoint_timer;
      if (!store
               ->WriteCheckpoint(*index,
                                 store::Mark{result->activations, last_time})
               .ok()) {
        return false;
      }
      if (tier != nullptr) tier->OnCheckpointInstalled();
      checkpoint_s += checkpoint_timer.ElapsedSeconds();
    }
  }
  if (!store->Sync().ok()) return false;
  result->elapsed_s = timer.ElapsedSeconds();
  result->checkpoint_ms = checkpoint_s * 1e3;
  return true;
}

/// One tiered ingest pass at `budget` bytes. Returns false on any
/// failure (including the budget assertion at quiescent points).
bool RunTiered(const Graph& g, const AncConfig& anc_config,
               const ActivationStream& stream, const std::string& dir,
               uint64_t budget, const std::string& label,
               StatsJsonExporter* exporter, RunResult* result) {
  std::filesystem::remove_all(dir);
  AncIndex index(g, anc_config);
  tier::TierOptions options;
  options.tier_budget_bytes = budget;
  options.page_elems = 256;
  options.background_compaction = false;
  auto tier = tier::TieredStore::Open(dir, options, &index.metrics());
  if (!tier.ok()) return false;
  index.AttachTier(tier.value().get());

  store::StoreOptions store_options;
  store_options.checkpoint_writer = tier.value()->CheckpointWriter();
  auto opened = store::DurableStore::Open(dir, index, store::Mark{0, 0.0},
                                          store_options, &index.metrics());
  if (!opened.ok()) return false;
  tier.value()->OnCheckpointInstalled();

  if (!Drive(opened.value().get(), tier.value().get(), &index, stream,
             result)) {
    return false;
  }
  result->stats = tier.value()->Stats();
  PrintRow({label, std::to_string(result->activations),
            FormatSci(result->activations / result->elapsed_s),
            FormatDouble(static_cast<double>(result->peak_resident) /
                             (1024.0 * 1024.0),
                         3),
            FormatDouble(static_cast<double>(result->stats.cold_bytes) /
                             (1024.0 * 1024.0),
                         3),
            std::to_string(result->stats.spills),
            std::to_string(result->stats.promotions),
            std::to_string(result->stats.segments),
            FormatDouble(result->checkpoint_ms, 1)});
  exporter->Add(label, index.Stats(), result->elapsed_s);

  if (result->peak_resident > budget) {
    std::printf("FAIL: %s peak resident %llu exceeded budget %llu\n",
                label.c_str(),
                static_cast<unsigned long long>(result->peak_resident),
                static_cast<unsigned long long>(budget));
    return false;
  }
  if (!tier.value()->VerifySegments().ok()) {
    std::printf("FAIL: %s segment verification after the run\n",
                label.c_str());
    return false;
  }
  tier.value()->DetachAll();
  return true;
}

int Main() {
  const bool smoke = std::getenv("ANC_TIER_SMOKE") != nullptr;
  const std::vector<uint32_t> sizes =
      smoke ? std::vector<uint32_t>{400} : std::vector<uint32_t>{2000, 4000};
  const uint32_t rounds = smoke ? 40 : 120;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "anc_bench_tier").string();

  AncConfig anc_config;
  anc_config.mode = AncMode::kOnline;

  StatsJsonExporter exporter("bench_tier_spill");
  bool pass = true;

  for (const uint32_t nodes : sizes) {
    Rng rng(2026);
    Graph g = BarabasiAlbert(nodes, 3, rng);
    ActivationStream stream = UniformStream(g, rounds, 0.05, rng);

    // Measure the tierable column footprint for this graph: attach a
    // budget-0 tier (nothing demotes) and read the resident byte count.
    uint64_t full_bytes = 0;
    {
      std::filesystem::remove_all(dir);
      AncIndex index(g, anc_config);
      tier::TierOptions probe;
      probe.background_compaction = false;
      auto tier = tier::TieredStore::Open(dir, probe);
      if (!tier.ok()) return 1;
      index.AttachTier(tier.value().get());
      full_bytes = tier.value()->resident_bytes();
      tier.value()->DetachAll();
    }
    std::printf(
        "graph: n=%u m=%u, stream: %zu activations%s, tierable columns: "
        "%llu bytes\n",
        g.NumNodes(), g.NumEdges(), stream.size(), smoke ? " (smoke)" : "",
        static_cast<unsigned long long>(full_bytes));

    PrintHeader("tier spill n=" + std::to_string(nodes) +
                ": in-RAM baseline vs 25% / 10% budget");
    PrintRow({"config", "acts", "act/s", "resident_MB", "cold_MB", "spills",
              "promos", "segs", "ckpt_ms"});

    // In-RAM baseline: plain durable stack, all-inline SaveIndex
    // checkpoints.
    double ram_elapsed = 0.0;
    {
      std::filesystem::remove_all(dir);
      AncIndex index(g, anc_config);
      auto opened = store::DurableStore::Open(dir, index, store::Mark{0, 0.0},
                                              {}, &index.metrics());
      if (!opened.ok()) return 1;
      RunResult r;
      if (!Drive(opened.value().get(), nullptr, &index, stream, &r)) return 1;
      ram_elapsed = r.elapsed_s;
      PrintRow({"ram_n" + std::to_string(nodes), std::to_string(r.activations),
                FormatSci(r.activations / r.elapsed_s),
                FormatDouble(static_cast<double>(full_bytes) /
                                 (1024.0 * 1024.0),
                             3),
                "0", "0", "0", "0", FormatDouble(r.checkpoint_ms, 1)});
      exporter.Add("ram_n" + std::to_string(nodes), index.Stats(),
                   r.elapsed_s);
    }

    // Budget sweep: 25% (comfortable) and 10% (the acceptance point).
    for (const uint64_t divisor : {4u, 10u}) {
      const uint64_t budget = std::max<uint64_t>(full_bytes / divisor, 4096);
      const std::string label =
          "tier" + std::to_string(100 / divisor) + "_n" +
          std::to_string(nodes);
      RunResult r;
      if (!RunTiered(g, anc_config, stream, dir, budget, label, &exporter,
                     &r)) {
        return 1;
      }
      if (divisor == 10) {
        const double slowdown = r.elapsed_s / ram_elapsed;
        std::printf(
            "n=%u ingest slowdown at 10%% budget: %.2fx (acceptance bar: "
            "2x)\n\n",
            nodes, slowdown);
        if (slowdown > 2.0) {
          std::printf("FAIL: tiered ingest more than 2x slower than in-RAM\n");
          pass = false;
        }
      }
    }
  }
  std::filesystem::remove_all(dir);

  const std::string path = exporter.Flush();
  if (!path.empty()) std::printf("stats: %s\n", path.c_str());
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace anc::bench

int main() { return anc::bench::Main(); }
