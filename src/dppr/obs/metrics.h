#ifndef DPPR_OBS_METRICS_H_
#define DPPR_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dppr::obs {

/// Monotonic event counter. Increments are relaxed atomics — safe from any
/// thread, cheap enough for per-frame and per-lookup hot paths.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, resident bytes).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-log-bucket histogram for nonnegative integer samples (latencies in
/// microseconds, sizes in bytes). Values 0..63 land in exact unit buckets;
/// above that each power of two splits into kSubBuckets sub-buckets, so the
/// relative value resolution is bounded by 1/kSubBuckets (3.125%) across the
/// whole uint64 range. Quantile queries are rank-exact: the returned value is
/// the upper bound of the bucket holding the sample of that exact rank, so a
/// quantile is never under-reported and never off by more than one bucket
/// width from the true order statistic (obs_test checks this against a
/// sorted-vector oracle).
///
/// Record is a relaxed atomic add — safe from any thread, no locks on the
/// recording path. Snapshots are weakly consistent under concurrent writes
/// (each bucket read is atomic; the set of buckets is not read atomically),
/// which is the standard monitoring trade-off.
class Histogram {
 public:
  /// Exact unit buckets for values below 64.
  static constexpr size_t kLinearBuckets = 64;
  /// Sub-buckets per power-of-two octave above the linear range.
  static constexpr size_t kSubBuckets = 32;
  /// Octaves cover floor(log2(v)) in [6, 63].
  static constexpr size_t kNumBuckets = kLinearBuckets + 58 * kSubBuckets;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Bucket of `value`; exposed so tests can assert bucket-level exactness.
  static size_t BucketIndex(uint64_t value) {
    if (value < kLinearBuckets) return static_cast<size_t>(value);
    const int octave = 63 - std::countl_zero(value);  // >= 6
    const uint64_t sub =
        (value - (uint64_t{1} << octave)) >> (octave - 5);  // 2^octave / 32
    return kLinearBuckets +
           static_cast<size_t>(octave - 6) * kSubBuckets +
           static_cast<size_t>(sub);
  }

  /// Smallest value that lands in bucket `index`.
  static uint64_t BucketLowerBound(size_t index);
  /// Largest value that lands in bucket `index` (== lower bound for the
  /// exact linear buckets).
  static uint64_t BucketUpperBound(size_t index);

  /// Point-in-time copy of the bucket counts; supports windowed views
  /// (ServerStats percentiles are quantiles of Since(window_baseline)).
  struct Snapshot {
    std::vector<uint64_t> counts;  // kNumBuckets entries; empty == all-zero
    uint64_t total = 0;
    uint64_t sum = 0;

    /// Value at rank ceil(q * total) (1-based), reported as its bucket's
    /// upper bound; 0 when the snapshot is empty. q outside (0,1] clamps.
    uint64_t Quantile(double q) const;
    double Mean() const {
      return total > 0 ? static_cast<double>(sum) / static_cast<double>(total)
                       : 0.0;
    }
    /// Counter-style delta: this snapshot minus an earlier `baseline`.
    Snapshot Since(const Snapshot& baseline) const;
  };

  Snapshot TakeSnapshot() const;
  uint64_t Count() const;
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Quantile over everything recorded since construction.
  uint64_t Quantile(double q) const { return TakeSnapshot().Quantile(q); }

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

/// Process-wide metric registry: every counter, gauge, and histogram lives
/// here under a dotted name (`serve.query_latency_us`,
/// `net.tcp.bytes_sent`), optionally with a `{key="value"}` label suffix for
/// per-instance series (each QueryServer registers its own
/// `serve.queries{server="N"}` so windowed stats stay correct when several
/// servers serve at once). Lookups are lock-sharded by name hash and
/// idempotent — the first Get* for a name creates the metric, later calls
/// return the same pointer, so hot paths resolve their handles once and then
/// touch only atomics. Handles stay valid for the process lifetime.
///
/// Asking for an existing name with a different type DPPR_CHECK-fails: one
/// name, one metric.
///
/// A series exists only where something reads it (ServerStats, perfbench,
/// an admin or CI check) or where it is the only record of what it measures;
/// counts a struct ledger already keeps (CommStats, StorageStats,
/// MultiRoundStats) are not copied here.
///
/// Env knob (read once, at the first Global() call):
///   DPPR_METRICS_DUMP=<path>  write a snapshot of the global registry, as
///                             Prometheus text, at process exit.
class MetricsRegistry {
 public:
  /// The process-wide registry (library instrumentation records here).
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Prometheus exposition text, the registry's one rendering (/metrics and
  /// the DPPR_METRICS_DUMP file): dots sanitized to underscores, a `dppr_`
  /// prefix, label suffixes preserved, histograms rendered as summaries with
  /// p50/p95/p99/p999 quantile rows plus _sum/_count.
  std::string RenderText() const;

  /// RenderText to `path`; best-effort — a failed open is reported on
  /// stderr, never fatal.
  void WriteFile(const std::string& path) const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Shard {
    mutable std::mutex mu;
    /// Deque for reference stability: handles returned by Get* must survive
    /// every later registration for the process lifetime.
    std::deque<std::pair<std::string, Entry>> metrics;
  };

  Entry* FindOrCreate(const std::string& name, Kind kind);
  /// Name-sorted copy of (name, entry pointer) across all shards. Entries
  /// are never destroyed, so the pointers stay valid without the shard locks.
  std::vector<std::pair<std::string, const Entry*>> SortedEntries() const;

  static constexpr size_t kShards = 16;
  std::array<Shard, kShards> shards_;
};

}  // namespace dppr::obs

#endif  // DPPR_OBS_METRICS_H_
