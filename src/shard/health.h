#ifndef ANC_SHARD_HEALTH_H_
#define ANC_SHARD_HEALTH_H_

#include "obs/health.h"
#include "shard/sharded_server.h"

namespace anc::shard {

/// Folds a running ShardedServer into the plain sample the obs-layer
/// ShardHealthMonitor assesses (docs/observability.md): the partitioner
/// scorecard (cut ratio, balance), router counters (halo_partial) and one
/// ShardHealthSample per shard (queue depth / oldest age, published and
/// durable watermarks, view staleness, epoch). Safe on any thread while
/// the server runs.
obs::ClusterHealthSample CollectHealthSample(const ShardedServer& server);

/// Convenience: CollectHealthSample + Assess under `monitor`'s thresholds.
obs::HealthReport AssessHealth(const ShardedServer& server,
                               const obs::ShardHealthMonitor& monitor = {});

}  // namespace anc::shard

#endif  // ANC_SHARD_HEALTH_H_
