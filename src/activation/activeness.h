#ifndef ANC_ACTIVATION_ACTIVENESS_H_
#define ANC_ACTIVATION_ACTIVENESS_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "tier/column.h"
#include "util/status.h"

namespace anc::check {
class TestHooks;
}  // namespace anc::check

namespace anc {

/// One activation: an interaction on an existing edge at a timestamp
/// (Section III). The relation graph never changes; only edge state does.
struct Activation {
  EdgeId edge;
  double time;
};

using ActivationStream = std::vector<Activation>;

/// Maintains the time-decay activeness of Eq. (1),
///   a_t(e) = sum_i e^{-lambda (t - t_i)},
/// under the *global decay factor* of Definition 1: each edge stores the
/// anchored activeness a*_t(e) = a_t(e) / g(t, t*) with
/// g(t, t*) = e^{-lambda (t - t*)} and a single shared anchor time t*.
///
/// Between activations nothing is touched (Observation 1: all unactivated
/// edges decay at the same pace); an activation on edge e at time t adds
/// 1/g(t, t*) = e^{lambda (t - t*)} to a*(e) only. A *batched rescale*
/// (Lemma 1) periodically folds the global factor into the anchored values
/// and advances t*, keeping the exponent e^{lambda (t - t*)} representable.
/// Total maintenance cost is linear in the number of activations.
class ActivenessStore {
 public:
  /// Creates the store for `num_edges` edges, all with anchored activeness
  /// `initial` at anchor time 0. The paper's online methods start from
  /// initial edge activeness 1 (Section VI "The initial edge activeness
  /// is 1"); fresh cold-start networks use 0.
  ActivenessStore(uint32_t num_edges, double lambda, double initial = 0.0)
      : lambda_(lambda), anchored_(num_edges, initial) {
    ANC_CHECK(lambda >= 0.0, "decay factor lambda must be non-negative");
  }

  double lambda() const { return lambda_; }
  double anchor_time() const { return anchor_time_; }
  double last_time() const { return last_time_; }
  uint32_t num_edges() const { return static_cast<uint32_t>(anchored_.size()); }

  /// Hands the anchored-activeness array to a storage tier
  /// (docs/storage_tiers.md): cold pages of a*(e) then live in mmap'd
  /// segments and promote transparently on the next write.
  void AttachTier(tier::ColumnHost* host) {
    anchored_.Attach(host, tier::kColAnchored);
  }

  /// Global decay factor g(t, t*) = e^{-lambda (t - t*)}.
  double GlobalFactor(double t) const {
    return std::exp(-lambda_ * (t - anchor_time_));
  }

  /// Anchored activeness a*(e) (time-invariant between activations).
  double Anchored(EdgeId e) const { return anchored_[e]; }

  /// True activeness a_t(e) = a*(e) * g(t, t*). `t` must be >= the latest
  /// activation time to be meaningful under Eq. (1).
  double ActivenessAt(EdgeId e, double t) const {
    return anchored_[e] * GlobalFactor(t);
  }

  /// Applies one activation (e, t). Timestamps must be non-decreasing.
  /// O(1) amortized; triggers a batched rescale when the pending exponent
  /// would endanger double precision or every `rescale_interval`
  /// activations. If `delta` is non-null it receives the anchored increment
  /// 1/g(t, t*) added to a*(e), so co-maintained derived state (sigma
  /// caches) can apply the same bump.
  Status Activate(EdgeId e, double t, double* delta = nullptr);

  /// Like Activate, but tolerates timestamps on either side of
  /// last_time() — the replica-import path (live shard migration and its
  /// crash-recovery splice) replays one component's history into an index
  /// whose own stream sits elsewhere in time. The anchored increment
  /// 1/g(t, t*) = e^{lambda (t - t*)} is exact for *any* t, so an
  /// out-of-order replay adds exactly the mass an in-order replay would
  /// have. The clock is deliberately NOT advanced: it belongs to the
  /// strict stream, and an import running ahead of it must not make the
  /// owner's still-queued in-order records look time-reversed.
  ///
  /// Tolerance bound: because the anchor can never pass the strict clock
  /// (anchor_time() <= last_time() is a serialized invariant), a t more
  /// than kMaxExponent / lambda *ahead* of last_time() has no
  /// representable increment and is rejected (InvalidArgument).
  /// Arbitrarily-old timestamps are fine — their increments merely
  /// underflow toward the (genuinely negligible) decayed mass.
  Status ActivateAnchored(EdgeId e, double t, double* delta = nullptr);

  /// Applies a whole stream (convenience wrapper over Activate).
  Status ActivateAll(const ActivationStream& stream);

  /// Folds the global factor into every anchored value and re-anchors at t.
  /// Public so callers co-maintaining derived state (similarity, index) can
  /// force a shared anchor; ActivenessStore invokes it automatically.
  void Rescale(double t);

  /// Sets the number of activations between automatic batched rescales
  /// (default 1<<20). The precision guard (exponent bound) always applies.
  void set_rescale_interval(uint64_t interval) { rescale_interval_ = interval; }

  /// Number of batched rescales performed so far (observable for tests and
  /// the decay-maintenance ablation).
  uint64_t rescale_count() const { return rescale_count_; }

  /// Activations counted toward the next interval rescale.
  uint64_t since_rescale() const { return since_rescale_; }

  /// Registers a callback invoked with the applied factor g whenever a
  /// batched rescale fires, so state derived from the activeness (PosM
  /// similarity, sigma caches) stays anchored at the same t* (Lemma 2).
  void SetRescaleHook(std::function<void(double factor)> hook) {
    rescale_hook_ = std::move(hook);
  }

  /// Serialization support: replaces the anchored values and clock state
  /// wholesale. Size must match; timestamps must satisfy
  /// anchor_time <= last_time.
  Status RestoreAnchored(std::vector<double> anchored, double anchor_time,
                         double last_time, uint64_t since_rescale);

 private:
  /// Test-only corruption seam (tests/check_test.cc): lets the invariant-
  /// checker tests plant negative / NaN anchored values.
  friend class ::anc::check::TestHooks;

  // Beyond this value of lambda * (t - t*), e^{+x} risks drowning small
  // anchored values; well inside double range (max exponent ~709).
  static constexpr double kMaxExponent = 60.0;

  double lambda_;
  double anchor_time_ = 0.0;
  double last_time_ = 0.0;
  uint64_t since_rescale_ = 0;
  uint64_t rescale_interval_ = 1ull << 20;
  uint64_t rescale_count_ = 0;
  tier::Column<double> anchored_;
  std::function<void(double)> rescale_hook_;
};

/// Reference implementation that stores every activation and evaluates
/// Eq. (1) directly. O(activations on e) per query and O(m) per decay tick —
/// exactly the cost the global decay factor removes. Used by tests as ground
/// truth and by the decay-maintenance ablation bench as the naive baseline.
class NaiveActiveness {
 public:
  NaiveActiveness(uint32_t num_edges, double lambda)
      : lambda_(lambda), history_(num_edges) {}

  void Activate(EdgeId e, double t) { history_[e].push_back(t); }

  double ActivenessAt(EdgeId e, double t) const {
    double total = 0.0;
    for (double ti : history_[e]) {
      if (ti <= t) total += std::exp(-lambda_ * (t - ti));
    }
    return total;
  }

  /// Simulates the per-tick "decay everything" maintenance an index without
  /// the global factor must perform: touches every edge once. Returns a
  /// checksum so the work cannot be optimized away.
  double DecayTick(double t) const {
    double checksum = 0.0;
    for (EdgeId e = 0; e < history_.size(); ++e) checksum += ActivenessAt(e, t);
    return checksum;
  }

 private:
  double lambda_;
  std::vector<std::vector<double>> history_;
};

}  // namespace anc

#endif  // ANC_ACTIVATION_ACTIVENESS_H_
