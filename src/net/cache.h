#ifndef ANC_NET_CACHE_H_
#define ANC_NET_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/sync.h"

namespace anc::check {
class TestHooks;
}  // namespace anc::check

namespace anc::net {

/// Epoch-keyed query cache of the networked front-end
/// (docs/networking.md "Epoch-keyed caching").
///
/// Key = (epoch, op, canonical args). Correctness rests on two facts:
/// the serving tier publishes immutable snapshots and stamps each with a
/// monotonically increasing epoch, so within one epoch a read op is a
/// pure function of its canonical args — a cached response byte-equals a
/// recomputed one. A publish invalidates wholesale: the first request
/// that observes a newer epoch drops every entry from older epochs (no
/// per-key tracking, no stale reads).
///
/// Eviction is LRU per shard under a global 64 MiB byte budget (keys +
/// values) split evenly across 8 lock shards; requests hash across shards
/// by cache key. Counters: anc.net.cache_hits / cache_misses /
/// cache_evictions / cache_invalidated; gauges anc.net.cache_bytes /
/// cache_entries. Thread-safe.
class QueryCache {
 public:
  explicit QueryCache(obs::MetricsRegistry* registry = nullptr);

  /// Looks up (epoch, op, args). On hit, copies the cached response
  /// payload into *payload and returns true.
  bool Get(uint64_t epoch, Op op, const std::string& args,
           std::string* payload);

  /// Inserts a response payload under (epoch, op, args). Oversized values
  /// (> shard budget) are not cached. Idempotent on duplicate keys.
  void Put(uint64_t epoch, Op op, const std::string& args,
           const std::string& payload);

  /// Drops every entry whose epoch is older than `epoch`. Called when a
  /// request observes a published epoch newer than any seen before.
  void InvalidateBelowEpoch(uint64_t epoch);

  /// Drops everything (tests / manual reset).
  void Clear();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t bytes() const;
  size_t entries() const;

 private:
  struct Entry {
    uint64_t epoch = 0;
    std::string key;  ///< op + canonical args (epoch kept separately)
    std::string payload;
  };
  using LruList = std::list<Entry>;

  struct Shard {
    mutable util::Mutex mutex;
    LruList lru ANC_GUARDED_BY(mutex);  ///< front = most recent
    std::unordered_map<std::string, LruList::iterator> index
        ANC_GUARDED_BY(mutex);  ///< full key (epoch+op+args) -> entry
    size_t bytes ANC_GUARDED_BY(mutex) = 0;
  };

  static std::string ShardKey(Op op, const std::string& args);
  static std::string FullKey(uint64_t epoch, const std::string& shard_key);
  Shard& ShardFor(const std::string& shard_key);
  void UpdateGauges();

  friend class ::anc::check::TestHooks;

  size_t shard_budget_;
  std::vector<Shard> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidated_{0};

  obs::MetricsRegistry* metrics_;
  obs::CounterId hits_id_;
  obs::CounterId misses_id_;
  obs::CounterId evictions_id_;
  obs::CounterId invalidated_id_;
  obs::GaugeId bytes_id_;
  obs::GaugeId entries_id_;
};

}  // namespace anc::net

#endif  // ANC_NET_CACHE_H_
