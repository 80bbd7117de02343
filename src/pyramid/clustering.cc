#include "pyramid/clustering.h"

#include <algorithm>
#include <array>
#include <bit>

namespace anc {

namespace {

// SortNodeIds digit width: 2^11 buckets of 4 bytes stay in L1.
constexpr uint32_t kMaxRadixBits = 11;

}  // namespace

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

void SortNodeIds(std::vector<NodeId>* ids, uint32_t num_nodes) {
  if (ids->size() < kRadixSortMinIds) {
    std::sort(ids->begin(), ids->end());
    return;
  }
  // ceil(log2 num_nodes) key bits, split evenly over the fewest passes of
  // at most kMaxRadixBits; 32-bit ids need 3 passes of 11 bits.
  const uint32_t key_bits = std::bit_width(num_nodes - 1);
  const uint32_t passes = (key_bits + kMaxRadixBits - 1) / kMaxRadixBits;
  if (passes == 0) return;  // every id is 0
  const uint32_t bits = (key_bits + passes - 1) / passes;
  const uint32_t mask = (1u << bits) - 1;

  thread_local std::vector<NodeId> buffer;
  buffer.resize(ids->size());
  NodeId* from = ids->data();
  NodeId* to = buffer.data();
  const size_t size = ids->size();
  std::array<uint32_t, size_t{1} << kMaxRadixBits> offsets;
  for (uint32_t pass = 0; pass < passes; ++pass) {
    const uint32_t shift = pass * bits;
    std::fill_n(offsets.begin(), mask + 1, 0);
    for (size_t i = 0; i < size; ++i) ++offsets[(from[i] >> shift) & mask];
    uint32_t start = 0;
    for (uint32_t digit = 0; digit <= mask; ++digit) {
      const uint32_t count = offsets[digit];
      offsets[digit] = start;
      start += count;
    }
    for (size_t i = 0; i < size; ++i) {
      to[offsets[(from[i] >> shift) & mask]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != ids->data()) std::copy(from, from + size, ids->data());
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
