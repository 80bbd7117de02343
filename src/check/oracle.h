#ifndef ANC_CHECK_ORACLE_H_
#define ANC_CHECK_ORACLE_H_

#include <cstdint>

#include "activation/activeness.h"
#include "check/invariants.h"
#include "core/anc.h"
#include "graph/graph.h"

namespace anc::check {

/// Configuration of the differential-oracle replay (docs/correctness.md).
struct OracleOptions {
  /// Activations between checkpoints. A checkpoint always runs after the
  /// final activation, so every replay is validated at least once.
  uint32_t checkpoint_interval = 64;
  /// Also rebuild every Voronoi partition from scratch and compare
  /// distances at each checkpoint (CheckPartitionsAgainstRebuild). The
  /// vote/clustering cross-validation below runs regardless.
  bool deep_partition_check = false;
  /// Run the lemma-level invariant validators (CheckAll) at checkpoints in
  /// addition to the differential comparisons.
  bool validate_invariants = true;
};

/// Outcome of one oracle replay.
struct OracleResult {
  CheckReport report;
  uint32_t activations = 0;  ///< activations applied
  uint32_t checkpoints = 0;  ///< checkpoints validated
  bool ok() const { return report.ok(); }
};

/// The differential oracle (the tripwire behind every future perf PR):
/// replays `stream` through AncIndex::Apply and, at checkpoints,
/// cross-validates the incrementally maintained state against independent
/// recomputation:
///
///  1. **Activeness** — every edge's true activeness a_t(e) under the
///     global decay factor (Definition 1 / Lemma 1) is compared against a
///     naive replay that stores the activation history and evaluates
///     Eq. (1) directly.
///  2. **Index** — a from-scratch PyramidIndex is rebuilt over the *same*
///     seed sets and the engine's current weights; the incremental index
///     (Probe / Update-Decrease / Update-Increase, batched rescales,
///     parallel partition updates) must produce identical per-level vote
///     counts and identical even/power clusterings at every granularity
///     (Lemmas 8, 11-13). Equal-distance ties — where the incremental
///     repair and the fresh Dijkstra may legitimately keep different seed
///     assignments — are detected exactly (seed differs, distance agrees)
///     and excluded; a distance mismatch is always a violation.
///  3. **Batching** — a second index fed the same prefix through
///     AncIndex::ApplyBatch, one checkpoint interval per call (the
///     level-parallel repair), must hold byte-identical per-level vote
///     counts and even/power clusterings.
///  4. **Invariants** — the full anc::check validator suite, unless
///     disabled.
///
/// The stream must be time-ordered (AncIndex::Apply requirement). Works in
/// every mode; for kOffline the index is snapshot-derived so only the
/// activeness and invariant checks are informative.
OracleResult RunDifferentialOracle(const Graph& graph, const AncConfig& config,
                                   const ActivationStream& stream,
                                   const OracleOptions& options = {});

}  // namespace anc::check

#endif  // ANC_CHECK_ORACLE_H_
