#ifndef DPPR_SERVE_QUERY_SERVER_H_
#define DPPR_SERVE_QUERY_SERVER_H_

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dppr/common/timer.h"
#include "dppr/core/hgpa.h"
#include "dppr/obs/metrics.h"
#include "dppr/serve/query_profile.h"
#include "dppr/serve/result_cache.h"

namespace dppr {

/// Serving configuration.
struct ServeOptions {
  /// Selects nothing: every request runs its own round. Kept only because
  /// the pinned benchmark still sets it.
  size_t max_batch = 16;
  /// Charge machine compute in per-thread CPU time instead of wall time, so
  /// concurrent rounds contending for cores don't inflate each other's
  /// machine_seconds (SimCluster::TimerKind::kThreadCpu).
  bool thread_cpu_timer = true;
  /// Admission bound: maximum requests waiting for a round slot. 0 means
  /// unbounded (the historical behavior). With a bound, an arrival finding
  /// the queue full is shed (Response::shed, counted in `serve.shed`) or
  /// blocks until space frees, per shed_on_overload. Requests already
  /// running their round do not count, so up to one round per pool thread
  /// is in flight on top of the bound.
  size_t max_pending = 0;
  /// Full-queue policy: true sheds (degrade gracefully, keep latency
  /// bounded), false blocks the caller (backpressure instead of loss).
  bool shed_on_overload = true;
  /// Front-door result cache budget in bytes; 0 disables. Cacheable
  /// requests are single-source weight-1.0 queries (Query / QueryTopK);
  /// preference sets always recompute.
  size_t result_cache_bytes = 0;
  /// Slow-query threshold in microseconds: a completed request at or over it
  /// is written to the structured JSONL slow-query log and retained in the
  /// slow ring. < 0 disables the log (profiles still enter the recent ring);
  /// 0 logs every request.
  int64_t slow_query_us = -1;
  /// Slow-query JSONL sink (appended); empty logs to stderr.
  std::string slow_query_log_path;
};

/// Aggregate serving statistics since construction or the last ResetStats().
///
/// Every number is a windowed view over this server's metric series in the
/// process-wide obs::MetricsRegistry (each server registers its own
/// `serve.*{server="N"}` series at construction): Stats() reads the live
/// registry values and subtracts the window baseline, so ServerStats and a
/// DPPR_METRICS_DUMP snapshot can never disagree — there is exactly one set
/// of counters, and the latency percentiles are exact quantile queries over
/// the same `serve.query_latency_us` histogram the dump renders.
struct ServerStats {
  uint64_t queries = 0;
  /// Cluster rounds run: one per served query that missed the result cache.
  uint64_t rounds = 0;
  /// Observation window (wall time since construction / ResetStats).
  double wall_seconds = 0.0;
  /// queries / wall_seconds.
  double qps = 0.0;
  /// queries / rounds. Kept only because the pinned benchmark still reads
  /// it: every round answers one request, so this is 1 / (1 − result-cache
  /// hit rate), not a batch size.
  double mean_batch = 0.0;
  /// Request latency percentiles in milliseconds: admission to completion,
  /// so the wait for a round slot is included. Quantiles of the server's
  /// registry histogram over the whole stats window, at the histogram's
  /// log-bucket resolution (<= 3.125% relative error; see obs::Histogram).
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double p999_latency_ms = 0.0;
  /// Coordinator ingress across all rounds (bytes shipped).
  CommStats comm;
  /// Residency view over the window: the store lookups this server's rounds
  /// made, served from RAM vs. read from spill files (cold vs. warm
  /// serving), from each round's QueryMetrics::storage. Lookups made outside
  /// the server's rounds (a direct engine query) are not counted. In-memory
  /// stores only ever count hits; nonzero misses / disk bytes mean the disk
  /// backend's cache budget is doing real eviction work.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t disk_bytes_read = 0;
  /// Requests rejected by admission control (queue full under
  /// ServeOptions::max_pending with shed_on_overload).
  uint64_t shed = 0;
  /// Front-door result cache over the window (serve.cache.*; all zero when
  /// ServeOptions::result_cache_bytes is 0). `result_cache_bytes` is the
  /// current resident size, not a windowed delta.
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t result_cache_evictions = 0;
  uint64_t result_cache_bytes = 0;
  /// Shard routing over the window: mean machines per served query (n under
  /// the full broadcast plan; 0 for cache hits) and total machine-rounds —
  /// the sum of the same `serve.routing.machines_per_query` histogram.
  double machines_per_query_mean = 0.0;
  uint64_t routing_machine_rounds = 0;
};

/// Concurrent query front-end over one shared HgpaIndex/HgpaQueryEngine.
///
/// Many client threads call Query / QueryPreferenceSet / QueryTopK
/// concurrently; each call blocks until its answer is ready. Every request
/// runs its own communication round on its caller's thread, after waiting,
/// in arrival order, for one of ThreadPool::Default().num_threads() round
/// slots — so that many rounds can be in flight at once, and more would only
/// queue their machine tasks behind each other on the same pool. Answers are
/// bit-identical to HgpaQueryEngine::QueryPreferenceSet: overlap never
/// changes any query's fold order.
///
/// With DPPR_TRACE set, every request contributes spans to the process
/// trace: `serve.request` (admission to completion), `serve.wait` (time
/// spent waiting for a round slot), and `serve.round` around its round
/// (overlapping when several rounds run at once) — plus the per-machine
/// `cluster.machine` spans of the round itself.
class QueryServer {
 public:
  using Preference = HgpaQueryEngine::Preference;

  /// Takes the engine by value (an engine is a cheap handle over the shared
  /// precomputation) and owns it for the server's lifetime. Admission, the
  /// result cache and the slow-query log are set through `options` in code;
  /// the defaults leave all three off.
  explicit QueryServer(HgpaQueryEngine engine, ServeOptions options = {});

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  struct Response {
    SparseVector ppv;
    /// The engine's record of the round that answered this request.
    QueryMetrics metrics;
    /// Admission to completion (includes the wait for a round slot).
    double latency_seconds = 0.0;
    /// Rejected by admission control: ppv is empty and no round ran. Callers
    /// are expected to retry with backoff.
    bool shed = false;
    /// Served from the front-door result cache: no round ran, metrics.comm
    /// is zero.
    bool cache_hit = false;
    /// Trace id minted for this request — the id its spans and QueryProfile
    /// carry (0 only for default-constructed responses).
    uint64_t trace_id = 0;
  };

  /// Single-node PPV.
  Response Query(NodeId node);

  /// PPV of an arbitrary Jeh–Widom preference set.
  Response QueryPreferenceSet(std::vector<Preference> preferences);

  struct TopKResponse {
    /// The k highest-scoring (node, value) pairs, descending by value, ties
    /// broken by node id.
    std::vector<SparseVector::Entry> top;
    QueryMetrics metrics;
    double latency_seconds = 0.0;
    bool shed = false;
    bool cache_hit = false;
    uint64_t trace_id = 0;
  };

  /// Top-k nodes of `node`'s PPV (k = 0 returns the full ranking header,
  /// i.e. an empty list).
  TopKResponse QueryTopK(NodeId node, size_t k);

  /// Drops `source`'s cached result so the next query recomputes — the hook
  /// the incremental-refresh path calls when an update touches a source's
  /// PPV. No-ops when the cache is disabled.
  void Invalidate(NodeId source);
  void InvalidateAll();

  /// Snapshot of the aggregate stats; safe to call while serving.
  ServerStats Stats() const;
  void ResetStats();

  /// Newest-first per-query cost profiles (bounded rings; see ProfileLog).
  /// Safe to call while serving.
  std::vector<QueryProfile> RecentProfiles() const;
  std::vector<QueryProfile> RecentSlowQueries() const;

  /// Live introspection JSON for the admin plane's /statusz: placement and
  /// replication summary, serving stats, result-cache occupancy, and the
  /// recent slow queries. Safe to call while serving.
  std::string StatusJson() const;

  const HgpaQueryEngine& engine() const { return engine_; }
  const ServeOptions& options() const { return options_; }

 private:
  /// This server's registry series (`serve.*{server="N"}`). Resolved once
  /// at construction; pointers live for the process lifetime.
  struct Series {
    obs::Counter* queries;
    obs::Counter* rounds;
    obs::Counter* comm_bytes;
    obs::Counter* comm_messages;
    obs::Histogram* latency_us;
    obs::Histogram* admission_wait_us;
    obs::Counter* shed;
    obs::Histogram* machines_per_query;
    /// serve.store.{cache_hits,cache_misses,disk_bytes_read}, in
    /// kStorageCounters order.
    std::array<obs::Counter*, kStorageCounters.size()> storage;
  };

  /// Registry values at the start of the stats window; Stats() reports
  /// deltas from here (the registry series are monotonic process-wide).
  struct WindowBaseline {
    uint64_t queries = 0;
    uint64_t rounds = 0;
    uint64_t comm_bytes = 0;
    uint64_t comm_messages = 0;
    obs::Histogram::Snapshot latency;
    uint64_t shed = 0;
    obs::Histogram::Snapshot machines_per_query;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_evictions = 0;
    StorageStats storage;
  };

  /// Cache key for a single-source full-PPV query: the source mixed with
  /// the index's prune tolerance and the query kind, so a future
  /// multi-tolerance server never collides entries.
  uint64_t CacheKey(NodeId source) const;

  Response Submit(std::vector<Preference> preferences);
  /// Current values of series_.storage.
  StorageStats StorageSeries() const;
  /// Call with mu_ held.
  WindowBaseline CaptureBaseline() const;

  HgpaQueryEngine engine_;
  ServeOptions options_;
  /// Registry label suffix of this server (`{server="N"}`); declared before
  /// cache_, which registers its series under it.
  std::string label_;
  ResultCache cache_;
  Series series_;
  /// Per-query cost profiles + the slow-query JSONL log. Internally locked
  /// (never under mu_ — Observe may do file I/O).
  ProfileLog profiles_;

  mutable std::mutex mu_;
  /// Signalled whenever a round slot is taken or given back.
  std::condition_variable slot_cv_;
  /// Admitted requests get consecutive ids; ids below next_slot_ hold or
  /// have held a round slot, so next_request_id_ - next_slot_ is the number
  /// waiting (what max_pending bounds).
  uint64_t next_request_id_ = 0;
  uint64_t next_slot_ = 0;
  /// Rounds running now (at most the pool's thread count).
  size_t rounds_in_flight_ = 0;

  // Stats window state, guarded by mu_ (the registry series themselves are
  // atomic; the baseline and wall timer define this server's window).
  WindowBaseline window_baseline_;
  WallTimer window_;
};

}  // namespace dppr

#endif  // DPPR_SERVE_QUERY_SERVER_H_
