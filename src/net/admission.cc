#include "net/admission.h"

#include <algorithm>
#include <string>

namespace anc::net {

AdmissionController::AdmissionController(AdmissionOptions options,
                                         obs::MetricsRegistry* registry)
    : options_(options), metrics_(registry) {
  if (metrics_ != nullptr) {
    quota_rejections_id_ = metrics_->Counter("anc.net.quota_rejections");
  }
}

void AdmissionController::EvictTenantsLocked(
    std::chrono::steady_clock::time_point now, double burst) const {
  // A bucket idle for burst/rate seconds has refilled to a full burst, so
  // dropping it is lossless — a re-seen tenant starts with a full burst
  // either way. One pass drops them all, amortizing the scan across the
  // inserts that forced it; only when every bucket is still hot does the
  // least-recently-refilled one (the closest to full) go instead.
  const double full_after_s = burst / options_.tenant_quota_per_s;
  auto oldest = tenants_.end();
  for (auto it = tenants_.begin(); it != tenants_.end();) {
    const double idle =
        std::chrono::duration<double>(now - it->second.last_refill).count();
    if (idle >= full_after_s) {
      it = tenants_.erase(it);
    } else {
      if (oldest == tenants_.end() ||
          it->second.last_refill < oldest->second.last_refill) {
        oldest = it;
      }
      ++it;
    }
  }
  if (tenants_.size() >= options_.tenant_quota_max_tenants &&
      oldest != tenants_.end()) {
    tenants_.erase(oldest);
  }
}

Status AdmissionController::AdmitTenant(uint64_t tenant_id) const {
  if (options_.tenant_quota_per_s <= 0.0) return Status::OK();
  const double burst = options_.tenant_quota_burst > 0.0
                           ? options_.tenant_quota_burst
                           : options_.tenant_quota_per_s;
  const auto now = std::chrono::steady_clock::now();
  bool admitted = false;
  {
    util::MutexLock lock(tenant_mutex_);
    if (tenants_.size() >= options_.tenant_quota_max_tenants &&
        tenants_.find(tenant_id) == tenants_.end()) {
      EvictTenantsLocked(now, burst);
    }
    auto [it, inserted] = tenants_.try_emplace(tenant_id);
    TokenBucket& bucket = it->second;
    if (inserted) {
      bucket.tokens = burst;  // a fresh tenant starts with a full burst
      bucket.last_refill = now;
    } else {
      const double elapsed =
          std::chrono::duration<double>(now - bucket.last_refill).count();
      bucket.tokens = std::min(
          burst, bucket.tokens + elapsed * options_.tenant_quota_per_s);
      bucket.last_refill = now;
    }
    if (bucket.tokens >= 1.0) {
      bucket.tokens -= 1.0;
      admitted = true;
    }
  }
  if (admitted) return Status::OK();
  quota_rejections_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) metrics_->Add(quota_rejections_id_);
  return Status::Unavailable(
      "tenant " + std::to_string(tenant_id) + " over quota (" +
      std::to_string(options_.tenant_quota_per_s) + " req/s, burst " +
      std::to_string(burst) + ")");
}

}  // namespace anc::net
