#include "pyramid/clustering.h"

#include <algorithm>

namespace anc {

VisitedStamp& VisitedStamp::ForThisThread() {
  thread_local VisitedStamp stamp;
  return stamp;
}

void VisitedStamp::Begin(uint32_t num_nodes) {
  if (stamps_.size() < num_nodes) stamps_.resize(num_nodes, 0);
  if (++epoch_ == 0) {
    std::fill(stamps_.begin(), stamps_.end(), 0);
    epoch_ = 1;
  }
}

// The live-index entry points instantiate the generic algorithms with
// PyramidIndex; serve::ClusterView instantiates the same templates, which
// is what makes snapshot queries byte-identical to live queries over an
// equal vote table.

Clustering EvenClustering(const PyramidIndex& index, uint32_t level) {
  return EvenClusteringOf(index, level);
}

Clustering PowerClustering(const PyramidIndex& index, uint32_t level) {
  return PowerClusteringOf(index, level);
}

std::vector<NodeId> LocalCluster(const PyramidIndex& index, NodeId query,
                                 uint32_t level) {
  return LocalClusterOf(index, query, level);
}

uint32_t SmallestClusterLevel(const PyramidIndex& index, NodeId query,
                              uint32_t min_size,
                              std::vector<NodeId>* members) {
  return SmallestClusterLevelOf(index, query, min_size, members);
}

}  // namespace anc
