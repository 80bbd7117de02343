#ifndef ANC_NET_ADMISSION_H_
#define ANC_NET_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/status.h"
#include "util/sync.h"

namespace anc::net {

/// Per-tenant token-bucket quota (docs/networking.md): each tenant id
/// (carried in the RPC frame) earns `tenant_quota_per_s` request tokens per
/// second up to a burst of `tenant_quota_burst`; a request that finds the
/// bucket empty is rejected Unavailable and counted in
/// anc.net.quota_rejections. 0 (the default) disables quota enforcement —
/// every tenant is admitted.
struct AdmissionOptions {
  double tenant_quota_per_s = 0.0;
  double tenant_quota_burst = 0.0;

  /// Upper bound on tracked tenant buckets. Tenant ids arrive unauthenticated
  /// on the wire, so without a bound an attacker cycling ids grows the bucket
  /// map without limit (memory exhaustion). At capacity, inserting a new
  /// tenant first drops every bucket idle long enough to have refilled to a
  /// full burst (eviction is lossless: a re-seen tenant starts with a full
  /// burst anyway), falling back to the least-recently-refilled bucket.
  size_t tenant_quota_max_tenants = 4096;
};

/// The NetServer's per-tenant admission gate. Thread-safe.
class AdmissionController {
 public:
  /// `registry` (optional) receives anc.net.quota_rejections; it must
  /// outlive the controller.
  explicit AdmissionController(AdmissionOptions options,
                               obs::MetricsRegistry* registry = nullptr);

  const AdmissionOptions& options() const { return options_; }

  /// Per-tenant token-bucket admission (the networked front-end calls this
  /// with the tenant id from the RPC frame before dispatching any op).
  /// Refills `tenant_quota_per_s` tokens/s up to `tenant_quota_burst`,
  /// spends one token per admitted request, and rejects Unavailable when
  /// the bucket is empty (anc.net.quota_rejections). Always OK while
  /// quotas are disabled (tenant_quota_per_s == 0).
  Status AdmitTenant(uint64_t tenant_id) const;

  /// Quota rejections so far (mirrors the anc.net.quota_rejections
  /// counter, for registry-less deployments).
  uint64_t quota_rejections() const {
    return quota_rejections_.load(std::memory_order_relaxed);
  }

 private:
  /// One tenant's bucket. Tokens refill lazily on access.
  struct TokenBucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last_refill;
  };

  /// Makes room for one more tenant bucket (see tenant_quota_max_tenants):
  /// drops every bucket idle long enough to have refilled to a full burst,
  /// else the least-recently-refilled one.
  void EvictTenantsLocked(std::chrono::steady_clock::time_point now,
                          double burst) const ANC_REQUIRES(tenant_mutex_);

  AdmissionOptions options_;
  mutable std::atomic<uint64_t> quota_rejections_{0};
  /// Tenant buckets are touched once per request under a plain mutex: the
  /// critical section is a couple of arithmetic ops, far below the cost of
  /// the socket read that precedes every AdmitTenant call.
  mutable util::Mutex tenant_mutex_;
  mutable std::unordered_map<uint64_t, TokenBucket> tenants_
      ANC_GUARDED_BY(tenant_mutex_);
  obs::MetricsRegistry* metrics_;
  obs::CounterId quota_rejections_id_;
};

}  // namespace anc::net

#endif  // ANC_NET_ADMISSION_H_
