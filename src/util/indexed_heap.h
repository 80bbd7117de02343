#ifndef ANC_UTIL_INDEXED_HEAP_H_
#define ANC_UTIL_INDEXED_HEAP_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "util/status.h"

namespace anc {

/// Binary min-heap keyed by double priorities over dense uint32 item ids,
/// supporting decrease-key (and general update-key) in O(log n). This is the
/// priority queue used by the Voronoi-partition Dijkstra and the bounded
/// incremental updates (Algorithms 1 and 3 of the paper), where re-inserting
/// a node must replace its stale entry.
///
/// Items are identified by ids in [0, capacity). `position_` maps an item id
/// to its slot in the heap array, or kAbsent when the item is not enqueued.
class IndexedMinHeap {
 public:
  explicit IndexedMinHeap(uint32_t capacity)
      : position_(capacity, kAbsent) {}

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  bool Contains(uint32_t item) const { return position_[item] != kAbsent; }

  /// Priority of an enqueued item. Precondition: Contains(item).
  double PriorityOf(uint32_t item) const {
    ANC_CHECK(Contains(item), "PriorityOf on absent item");
    return heap_[position_[item]].priority;
  }

  /// Inserts the item, or updates its priority if already present (either
  /// direction). Returns true if the entry was inserted or changed.
  bool PushOrUpdate(uint32_t item, double priority) {
    uint32_t pos = position_[item];
    if (pos == kAbsent) {
      heap_.push_back({priority, item});
      position_[item] = static_cast<uint32_t>(heap_.size() - 1);
      SiftUp(static_cast<uint32_t>(heap_.size() - 1));
      return true;
    }
    if (heap_[pos].priority == priority) return false;
    bool decrease = priority < heap_[pos].priority;
    heap_[pos].priority = priority;
    if (decrease) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
    return true;
  }

  /// Removes and returns the minimum-priority item.
  std::pair<uint32_t, double> PopMin() {
    ANC_CHECK(!heap_.empty(), "PopMin on empty heap");
    Entry top = heap_.front();
    RemoveAt(0);
    return {top.item, top.priority};
  }

  /// Removes an item if it is enqueued; no-op otherwise.
  void Erase(uint32_t item) {
    uint32_t pos = position_[item];
    if (pos == kAbsent) return;
    RemoveAt(pos);
  }

  /// Heap-resident bytes (entries plus the position map).
  size_t MemoryBytes() const {
    return heap_.capacity() * sizeof(Entry) +
           position_.capacity() * sizeof(uint32_t);
  }

  /// Empties the heap in O(size) (positions are reset lazily per entry).
  void Clear() {
    for (const Entry& e : heap_) position_[e.item] = kAbsent;
    heap_.clear();
  }

 private:
  struct Entry {
    double priority;
    uint32_t item;
  };

  static constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

  void RemoveAt(uint32_t pos) {
    position_[heap_[pos].item] = kAbsent;
    if (pos + 1 != heap_.size()) {
      heap_[pos] = heap_.back();
      position_[heap_[pos].item] = pos;
      heap_.pop_back();
      // The moved entry may need to travel either direction.
      SiftDown(pos);
      SiftUp(pos);
    } else {
      heap_.pop_back();
    }
  }

  void SiftUp(uint32_t pos) {
    Entry entry = heap_[pos];
    while (pos > 0) {
      uint32_t parent = (pos - 1) / 2;
      if (heap_[parent].priority <= entry.priority) break;
      heap_[pos] = heap_[parent];
      position_[heap_[pos].item] = pos;
      pos = parent;
    }
    heap_[pos] = entry;
    position_[entry.item] = pos;
  }

  void SiftDown(uint32_t pos) {
    Entry entry = heap_[pos];
    const uint32_t n = static_cast<uint32_t>(heap_.size());
    while (true) {
      uint32_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].priority < heap_[child].priority) {
        ++child;
      }
      if (heap_[child].priority >= entry.priority) break;
      heap_[pos] = heap_[child];
      position_[heap_[pos].item] = pos;
      pos = child;
    }
    heap_[pos] = entry;
    position_[entry.item] = pos;
  }

  std::vector<Entry> heap_;
  std::vector<uint32_t> position_;
};

}  // namespace anc

#endif  // ANC_UTIL_INDEXED_HEAP_H_
