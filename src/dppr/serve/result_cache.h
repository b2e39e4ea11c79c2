#ifndef DPPR_SERVE_RESULT_CACHE_H_
#define DPPR_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dppr/obs/metrics.h"
#include "dppr/ppr/sparse_vector.h"

namespace dppr {

/// Front-door result cache: completed PPVs keyed by an opaque 64-bit key
/// (the server packs source, prune tolerance, and query kind into it),
/// byte-budgeted LRU, sharded so concurrent clients hitting different
/// sources never contend on one mutex. Values are shared_ptr snapshots — a
/// hit pins the vector it returns, so an eviction racing a reader can never
/// free bytes mid-copy.
///
/// hits/misses/evictions/bytes live in the process MetricsRegistry under the
/// owning server's label (`serve.cache.*{server="N"}`), so a metrics dump
/// and ServerStats read the same counters.
class ResultCache {
 public:
  struct Options {
    /// Total byte budget across shards; 0 disables the cache entirely
    /// (Find always misses silently, Insert is a no-op).
    size_t byte_budget = 0;
    size_t shards = 16;
  };

  /// `series_label` is the owning server's registry label suffix (e.g.
  /// `{server="0"}`).
  ResultCache(const Options& options, const std::string& series_label);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  bool enabled() const { return budget_per_shard_ > 0; }

  /// The cached PPV, or null on a miss (counts a hit or miss when enabled;
  /// disabled caches count nothing).
  std::shared_ptr<const SparseVector> Find(uint64_t key);

  /// Copies `value` in under `key` (replacing any previous entry), then
  /// evicts LRU entries until the shard fits its budget share. Entries
  /// larger than a whole shard's budget are not cached — they would evict
  /// everything and then themselves.
  void Insert(uint64_t key, const SparseVector& value);

  uint64_t hits() const { return hits_->Value(); }
  uint64_t misses() const { return misses_->Value(); }
  uint64_t evictions() const { return evictions_->Value(); }
  /// Approximate resident bytes (entry payloads + bookkeeping overhead).
  int64_t bytes() const { return bytes_->Value(); }
  size_t entries() const;

 private:
  struct Entry {
    uint64_t key;
    std::shared_ptr<const SparseVector> value;
    size_t bytes;
  };
  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(uint64_t key);

  size_t budget_per_shard_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Gauge* bytes_;
};

}  // namespace dppr

#endif  // DPPR_SERVE_RESULT_CACHE_H_
