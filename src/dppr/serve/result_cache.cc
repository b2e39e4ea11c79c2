#include "dppr/serve/result_cache.h"

#include <algorithm>
#include <utility>

#include "dppr/common/macros.h"

namespace dppr {
namespace {

/// Fixed per-entry overhead charged on top of the vector payload: list node,
/// index slot, shared_ptr control block (approximate, but stable — budget
/// math must not depend on allocator details).
constexpr size_t kEntryOverhead = 96;

/// splitmix-style finalizer: keys are structured (source in the low bits),
/// so shard selection must mix before it masks.
uint64_t MixKey(uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 29;
  key *= 0xc4ceb9fe1a85ec53ULL;
  key ^= key >> 32;
  return key;
}

}  // namespace

ResultCache::ResultCache(const Options& options,
                         const std::string& series_label) {
  auto& registry = obs::MetricsRegistry::Global();
  hits_ = registry.GetCounter("serve.cache.hits" + series_label);
  misses_ = registry.GetCounter("serve.cache.misses" + series_label);
  evictions_ = registry.GetCounter("serve.cache.evictions" + series_label);
  bytes_ = registry.GetGauge("serve.cache.bytes" + series_label);
  if (options.byte_budget == 0) return;
  const size_t num_shards = std::max<size_t>(options.shards, 1);
  budget_per_shard_ = std::max<size_t>(options.byte_budget / num_shards, 1);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(uint64_t key) {
  return *shards_[MixKey(key) % shards_.size()];
}

std::shared_ptr<const SparseVector> ResultCache::Find(uint64_t key) {
  if (!enabled()) return nullptr;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_->Increment();
    return nullptr;
  }
  // Refresh recency: splice the entry to the front without invalidating the
  // index's iterator.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_->Increment();
  return it->second->value;
}

void ResultCache::Insert(uint64_t key, const SparseVector& value) {
  if (!enabled()) return;
  const size_t entry_bytes = value.MemoryBytes() + kEntryOverhead;
  if (entry_bytes > budget_per_shard_) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Replace in place (a concurrent recompute of the same source); recency
    // refreshes like a hit.
    shard.bytes -= it->second->bytes;
    bytes_->Add(-static_cast<int64_t>(it->second->bytes));
    it->second->value = std::make_shared<const SparseVector>(value);
    it->second->bytes = entry_bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{
        key, std::make_shared<const SparseVector>(value), entry_bytes});
    shard.index[key] = shard.lru.begin();
  }
  shard.bytes += entry_bytes;
  bytes_->Add(static_cast<int64_t>(entry_bytes));
  while (shard.bytes > budget_per_shard_) {
    DPPR_CHECK(!shard.lru.empty());
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    bytes_->Add(-static_cast<int64_t>(victim.bytes));
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_->Increment();
  }
}

size_t ResultCache::entries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->index.size();
  }
  return total;
}

}  // namespace dppr
