#include "activation/activeness.h"

namespace anc {

Status ActivenessStore::Activate(EdgeId e, double t, double* delta) {
  if (e >= anchored_.size()) {
    return Status::OutOfRange("edge id " + std::to_string(e) +
                              " out of range");
  }
  if (t < last_time_) {
    return Status::InvalidArgument(
        "activation timestamps must be non-decreasing (got " +
        std::to_string(t) + " after " + std::to_string(last_time_) + ")");
  }
  last_time_ = t;
  return ActivateAnchored(e, t, delta);
}

Status ActivenessStore::ActivateAnchored(EdgeId e, double t, double* delta) {
  if (e >= anchored_.size()) {
    return Status::OutOfRange("edge id " + std::to_string(e) +
                              " out of range");
  }
  // The clock is owned by the strict path: an import must not advance it,
  // or the owner's still-queued in-order records (behind the import's
  // timestamps) would start failing Activate's monotonicity check. The
  // anchor in turn only ever advances to the strict clock, preserving the
  // serialized invariant anchor_time() <= last_time() — which bounds how
  // far ahead of last_time() an anchored apply can run: past the exponent
  // budget no rescale can keep e^{lambda (t - t*)} representable, so the
  // activation is rejected instead of poisoning the anchored values.
  if (lambda_ * (t - last_time_) > kMaxExponent) {
    return Status::InvalidArgument(
        "anchored activation at t=" + std::to_string(t) +
        " runs too far ahead of the stream clock " +
        std::to_string(last_time_) +
        " (exponent budget exceeded; the anchor cannot pass the strict "
        "clock)");
  }
  // The overflow guard keys on the farthest time this increment touches.
  if (lambda_ * (std::max(t, last_time_) - anchor_time_) > kMaxExponent ||
      ++since_rescale_ >= rescale_interval_) {
    Rescale(last_time_);
  }
  // Increase of a_t(e) by 1 (Eq. 1) == increase of a*(e) by 1/g(t, t*).
  const double increment = std::exp(lambda_ * (t - anchor_time_));
  anchored_.Mut(e) += increment;
  if (delta != nullptr) *delta = increment;
  return Status::OK();
}

Status ActivenessStore::ActivateAll(const ActivationStream& stream) {
  for (const Activation& a : stream) {
    ANC_RETURN_NOT_OK(Activate(a.edge, a.time));
  }
  return Status::OK();
}

Status ActivenessStore::RestoreAnchored(std::vector<double> anchored,
                                        double anchor_time,
                                        double last_time,
                                        uint64_t since_rescale) {
  if (anchored.size() != anchored_.size()) {
    return Status::InvalidArgument("anchored size mismatch");
  }
  if (anchor_time > last_time) {
    return Status::InvalidArgument("anchor_time must be <= last_time");
  }
  anchored_.Assign(anchored);
  anchor_time_ = anchor_time;
  last_time_ = last_time;
  since_rescale_ = since_rescale;
  return Status::OK();
}

void ActivenessStore::Rescale(double t) {
  const double g = GlobalFactor(t);
  anchored_.ForEachMutable([g](size_t, double& a) { a *= g; });
  anchor_time_ = t;
  since_rescale_ = 0;
  ++rescale_count_;
  if (rescale_hook_) rescale_hook_(g);
}

}  // namespace anc
