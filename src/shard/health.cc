#include "shard/health.h"

#include <memory>

namespace anc::shard {

obs::ClusterHealthSample CollectHealthSample(const ShardedServer& server) {
  obs::ClusterHealthSample sample;
  const PartitionStats& stats = server.partition_stats();
  sample.num_shards = server.num_shards();
  sample.num_edges = server.graph().NumEdges();
  sample.cut_edges = stats.cut_edges;
  sample.cut_ratio = stats.cut_ratio;
  sample.balance = stats.balance;
  sample.halo_partial = server.halo_partial();
  sample.accepted = server.accepted();
  sample.halo_deliveries = server.halo_deliveries();
  sample.observed_cut_ratio =
      sample.accepted > 0
          ? static_cast<double>(sample.halo_deliveries) / sample.accepted
          : 0.0;
  sample.assignment_epoch = server.assignment_epoch();
  sample.shards.reserve(server.num_shards());
  for (uint32_t s = 0; s < server.num_shards(); ++s) {
    const serve::AncServer& shard = server.shard(s);
    obs::ShardHealthSample entry;
    entry.shard = s;
    entry.accepted = shard.accepted();
    entry.queue_depth = shard.IngestDepth();
    entry.queue_capacity = shard.IngestCapacity();
    entry.queue_oldest_age_s = shard.IngestOldestAgeSeconds();
    entry.applied_seq = shard.watermark().seq;
    entry.durable_seq = shard.durable_watermark().seq;
    entry.durable_enabled = server.durable();
    const std::shared_ptr<const serve::ClusterView> view = shard.View();
    if (view != nullptr) {
      // A caught-up view is current however old it is: only a shard that
      // owes work (published watermark behind its accepted tickets) ages.
      if (entry.applied_seq < entry.accepted) {
        entry.view_age_s = view->AgeSeconds();
      }
      entry.epoch = view->epoch();
    }
    sample.shards.push_back(entry);
  }
  return sample;
}

obs::HealthReport AssessHealth(const ShardedServer& server) {
  return obs::Assess(CollectHealthSample(server));
}

}  // namespace anc::shard
