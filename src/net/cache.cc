#include "net/cache.h"

#include <functional>

namespace anc::net {
namespace {

/// Total byte budget across all shards (keys + values).
constexpr size_t kByteBudget = size_t{64} << 20;
/// Lock shards; requests hash across them by cache key.
constexpr size_t kNumShards = 8;

}  // namespace

QueryCache::QueryCache(obs::MetricsRegistry* registry)
    : shard_budget_(kByteBudget / kNumShards),
      shards_(kNumShards),
      metrics_(registry) {
  if (metrics_ != nullptr) {
    hits_id_ = metrics_->Counter("anc.net.cache_hits");
    misses_id_ = metrics_->Counter("anc.net.cache_misses");
    evictions_id_ = metrics_->Counter("anc.net.cache_evictions");
    invalidated_id_ = metrics_->Counter("anc.net.cache_invalidated");
    bytes_id_ = metrics_->Gauge("anc.net.cache_bytes");
    entries_id_ = metrics_->Gauge("anc.net.cache_entries");
  }
}

std::string QueryCache::ShardKey(Op op, const std::string& args) {
  std::string key;
  key.reserve(2 + args.size());
  PutU16(&key, static_cast<uint16_t>(op));
  key.append(args);
  return key;
}

std::string QueryCache::FullKey(uint64_t epoch,
                                const std::string& shard_key) {
  std::string key;
  key.reserve(8 + shard_key.size());
  PutU64(&key, epoch);
  key.append(shard_key);
  return key;
}

QueryCache::Shard& QueryCache::ShardFor(const std::string& shard_key) {
  // Shard by (op, args) only, so all epochs of one query live in one
  // shard and invalidation never races a concurrent Put of the same key.
  const size_t h = std::hash<std::string>{}(shard_key);
  return shards_[h % shards_.size()];
}

bool QueryCache::Get(uint64_t epoch, Op op, const std::string& args,
                     std::string* payload) {
  const std::string shard_key = ShardKey(op, args);
  const std::string full_key = FullKey(epoch, shard_key);
  Shard& shard = ShardFor(shard_key);
  bool hit = false;
  {
    util::MutexLock lock(shard.mutex);
    auto it = shard.index.find(full_key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      *payload = it->second->payload;
      hit = true;
    }
  }
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->Add(hits_id_);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->Add(misses_id_);
  }
  return hit;
}

void QueryCache::Put(uint64_t epoch, Op op, const std::string& args,
                     const std::string& payload) {
  const std::string shard_key = ShardKey(op, args);
  std::string full_key = FullKey(epoch, shard_key);
  const size_t cost = full_key.size() + payload.size();
  if (cost > shard_budget_) return;  // would evict the whole shard
  Shard& shard = ShardFor(shard_key);
  uint64_t evicted = 0;
  {
    util::MutexLock lock(shard.mutex);
    if (shard.index.find(full_key) != shard.index.end()) return;
    shard.lru.push_front(Entry{epoch, shard_key, payload});
    shard.index.emplace(std::move(full_key), shard.lru.begin());
    shard.bytes += cost;
    while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
      const Entry& victim = shard.lru.back();
      const std::string victim_key = FullKey(victim.epoch, victim.key);
      shard.bytes -= victim_key.size() + victim.payload.size();
      shard.index.erase(victim_key);
      shard.lru.pop_back();
      ++evicted;
    }
  }
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->Add(evictions_id_, evicted);
  }
  UpdateGauges();
}

void QueryCache::InvalidateBelowEpoch(uint64_t epoch) {
  uint64_t dropped = 0;
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->epoch < epoch) {
        const std::string full_key = FullKey(it->epoch, it->key);
        shard.bytes -= full_key.size() + it->payload.size();
        shard.index.erase(full_key);
        it = shard.lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    invalidated_.fetch_add(dropped, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->Add(invalidated_id_, dropped);
  }
  UpdateGauges();
}

void QueryCache::Clear() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
  UpdateGauges();
}

size_t QueryCache::bytes() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    total += shard.bytes;
  }
  return total;
}

size_t QueryCache::entries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

void QueryCache::UpdateGauges() {
  if (metrics_ == nullptr) return;
  metrics_->Set(bytes_id_, static_cast<int64_t>(bytes()));
  metrics_->Set(entries_id_, static_cast<int64_t>(entries()));
}

}  // namespace anc::net
