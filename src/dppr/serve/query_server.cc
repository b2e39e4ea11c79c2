#include "dppr/serve/query_server.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <string>
#include <utility>

#include "dppr/common/macros.h"
#include "dppr/common/thread_pool.h"
#include "dppr/obs/trace.h"

namespace dppr {
namespace {

/// Distinct label per server instance, so several servers in one process
/// (equivalence tests run an inproc and a tcp server side by side) keep
/// independent series and windowed stats never bleed across servers.
std::string ServerLabel() {
  static std::atomic<uint64_t> next_id{0};
  return "{server=\"" +
         std::to_string(next_id.fetch_add(1, std::memory_order_relaxed)) +
         "\"}";
}

}  // namespace

QueryServer::QueryServer(HgpaQueryEngine engine, ServeOptions options)
    : engine_(std::move(engine)),
      options_(options),
      label_(ServerLabel()),
      cache_(ResultCache::Options{options.result_cache_bytes, 16}, label_),
      profiles_(ProfileLog::Options{options.slow_query_us,
                                    options.slow_query_log_path, 64, 32}) {
  if (options_.thread_cpu_timer) {
    engine_.set_machine_timer(SimCluster::TimerKind::kThreadCpu);
  }
  auto& registry = obs::MetricsRegistry::Global();
  series_ = Series{registry.GetCounter("serve.queries" + label_),
                   registry.GetCounter("serve.comm_bytes" + label_),
                   registry.GetHistogram("serve.query_latency_us" + label_),
                   registry.GetHistogram("serve.admission_wait_us" + label_),
                   registry.GetCounter("serve.shed" + label_),
                   registry.GetHistogram("serve.routing.machines_per_query" +
                                         label_),
                   {registry.GetCounter("serve.store.cache_hits" + label_),
                    registry.GetCounter("serve.store.cache_misses" + label_),
                    registry.GetCounter("serve.store.disk_bytes_read" +
                                        label_)}};
  window_baseline_ = CaptureBaseline();
}

uint64_t QueryServer::CacheKey(NodeId source) const {
  // Mix the tolerance bits (and a kind byte, currently always full-PPV) so
  // entries from servers over differently-pruned indexes can never alias if
  // the key space is ever shared.
  uint64_t h = std::bit_cast<uint64_t>(engine_.index().options().ppr.tolerance);
  h ^= h >> 33;
  h *= 0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  return h ^ static_cast<uint64_t>(source);
}

QueryServer::Response QueryServer::Query(NodeId node) {
  return Submit({{node, 1.0}});
}

QueryServer::Response QueryServer::QueryPreferenceSet(
    std::vector<Preference> preferences) {
  return Submit(std::move(preferences));
}

QueryServer::TopKResponse QueryServer::QueryTopK(NodeId node, size_t k) {
  Response full = Query(node);
  if (full.shed) {
    return TopKResponse{{},   full.metrics, full.latency_seconds,
                        true, false,        full.trace_id};
  }
  std::vector<SparseVector::Entry> entries(full.ppv.entries().begin(),
                                           full.ppv.entries().end());
  size_t keep = std::min(k, entries.size());
  std::partial_sort(entries.begin(), entries.begin() + keep, entries.end(),
                    [](const SparseVector::Entry& a, const SparseVector::Entry& b) {
                      if (a.value != b.value) return a.value > b.value;
                      return a.index < b.index;
                    });
  entries.resize(keep);
  return TopKResponse{std::move(entries), full.metrics,   full.latency_seconds,
                      false,              full.cache_hit, full.trace_id};
}

QueryServer::Response QueryServer::Submit(std::vector<Preference> preferences) {
  // Every request gets a fresh trace identity at the front door; the scope
  // makes it the calling thread's context, so the serve.request span — and,
  // via SimCluster's context re-establishment, every machine/store/net span
  // this request causes — carries its trace id.
  const obs::TraceContext trace{obs::NewTraceId()};
  obs::TraceContextScope trace_scope(trace);
  Response response;
  response.trace_id = trace.trace_id;
  QueryProfile profile;
  profile.trace_id = trace.trace_id;
  profile.num_preferences = preferences.size();
  // Single-source weight-1.0 identity, for the cache and the profile.
  if (preferences.size() == 1 && preferences[0].weight == 1.0) {
    profile.source = preferences[0].node;
  }

  // Front-door cache: only single-source weight-1.0 requests are cacheable
  // (preference sets are combinatorial — caching them would thrash the
  // budget for near-zero reuse). A hit never touches the cluster.
  const bool cacheable = cache_.enabled() && profile.source != kInvalidNode;
  uint64_t cache_key = 0;
  if (cacheable) {
    cache_key = CacheKey(profile.source);
    WallTimer lookup;
    if (std::shared_ptr<const SparseVector> hit = cache_.Find(cache_key)) {
      response.ppv = *hit;
      response.cache_hit = true;
      response.latency_seconds = lookup.ElapsedSeconds();
      // A hit is a served query: it counts into qps and the latency
      // histogram (that is the goodput the cache buys), but runs no round.
      series_.queries->Add(1);
      series_.latency_us->Record(
          static_cast<uint64_t>(response.latency_seconds * 1e6));
      series_.machines_per_query->Record(0);
      profile.outcome = QueryProfile::Outcome::kCacheHit;
      profile.latency_seconds = response.latency_seconds;
      profiles_.Observe(profile);
      return response;
    }
  }

  obs::TraceSpan span(obs::kCoordinatorLane, "serve.request");

  std::unique_lock<std::mutex> lock(mu_);
  auto waiting = [&] { return next_request_id_ - next_slot_; };
  if (options_.max_pending > 0 && waiting() >= options_.max_pending) {
    if (options_.shed_on_overload) {
      series_.shed->Increment();
      response.shed = true;
      profile.outcome = QueryProfile::Outcome::kShed;
      lock.unlock();  // Observe may touch the log sink; don't hold mu_
      profiles_.Observe(profile);
      return response;
    }
    // Block policy: wait until a slot grant drains the queue below the bound.
    slot_cv_.wait(lock, [&] { return waiting() < options_.max_pending; });
  }
  profile.request_id = next_request_id_++;
  span.Arg("request", profile.request_id);
  WallTimer admitted;
  {
    obs::TraceSpan wait_span(obs::kCoordinatorLane, "serve.wait");
    wait_span.Arg("request", profile.request_id);
    // In arrival order, one round slot per pool thread: more rounds in
    // flight would only queue their machine tasks behind each other on the
    // same pool.
    const size_t max_rounds = ThreadPool::Default().num_threads();
    slot_cv_.wait(lock, [&] {
      return next_slot_ == profile.request_id && rounds_in_flight_ < max_rounds;
    });
    ++next_slot_;
    ++rounds_in_flight_;
    lock.unlock();
  }
  // The next request in line may find a slot free too, and a blocked arrival
  // may now fit under max_pending.
  slot_cv_.notify_all();
  profile.wait_seconds = admitted.ElapsedSeconds();
  series_.admission_wait_us->Record(
      static_cast<uint64_t>(profile.wait_seconds * 1e6));

  {
    obs::TraceSpan round_span(obs::kCoordinatorLane, "serve.round");
    round_span.Arg("request", profile.request_id);
    response.ppv = engine_.QueryPreferenceSet(preferences, &response.metrics);
  }
  lock.lock();
  --rounds_in_flight_;
  lock.unlock();
  slot_cv_.notify_all();

  if (cacheable) cache_.Insert(cache_key, response.ppv);
  response.latency_seconds = admitted.ElapsedSeconds();
  series_.queries->Increment();
  series_.comm_bytes->Add(response.metrics.comm.bytes);
  for (size_t i = 0; i < kStorageCounters.size(); ++i) {
    series_.storage[i]->Add(response.metrics.storage.*kStorageCounters[i]);
  }
  series_.latency_us->Record(
      static_cast<uint64_t>(response.latency_seconds * 1e6));
  series_.machines_per_query->Record(response.metrics.machines_contacted);

  // Attribution, not re-measurement: the profile carries the same
  // QueryMetrics the counters above were fed from, so profile totals
  // reconcile exactly with the registry deltas.
  profile.latency_seconds = response.latency_seconds;
  profile.metrics = response.metrics;
  profiles_.Observe(profile);
  return response;
}

StorageStats QueryServer::StorageSeries() const {
  StorageStats storage;
  for (size_t i = 0; i < kStorageCounters.size(); ++i) {
    storage.*kStorageCounters[i] = series_.storage[i]->Value();
  }
  return storage;
}

QueryServer::WindowBaseline QueryServer::CaptureBaseline() const {
  return WindowBaseline{series_.queries->Value(),
                        series_.comm_bytes->Value(),
                        series_.latency_us->TakeSnapshot(),
                        series_.shed->Value(),
                        series_.machines_per_query->TakeSnapshot(),
                        cache_.hits(),
                        cache_.misses(),
                        cache_.evictions(),
                        StorageSeries()};
}

ServerStats QueryServer::Stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  ServerStats stats;
  stats.queries = series_.queries->Value() - window_baseline_.queries;
  stats.result_cache_hits = cache_.hits() - window_baseline_.cache_hits;
  // Every served request that missed the result cache ran exactly one round
  // (a round skipped for an all-zero preference set included). A hit counts
  // into the cache before it counts as a query, so a concurrent read may see
  // it in one and not yet the other.
  stats.rounds = stats.queries - std::min(stats.result_cache_hits, stats.queries);
  stats.wall_seconds = window_.ElapsedSeconds();
  stats.qps = stats.wall_seconds > 0.0
                  ? static_cast<double>(stats.queries) / stats.wall_seconds
                  : 0.0;
  stats.mean_batch =
      stats.rounds > 0 ? static_cast<double>(stats.queries) /
                             static_cast<double>(stats.rounds)
                       : 0.0;
  const obs::Histogram::Snapshot window =
      series_.latency_us->TakeSnapshot().Since(window_baseline_.latency);
  stats.p50_latency_ms = static_cast<double>(window.Quantile(0.5)) / 1e3;
  stats.p95_latency_ms = static_cast<double>(window.Quantile(0.95)) / 1e3;
  stats.p99_latency_ms = static_cast<double>(window.Quantile(0.99)) / 1e3;
  stats.p999_latency_ms = static_cast<double>(window.Quantile(0.999)) / 1e3;
  stats.comm.bytes = series_.comm_bytes->Value() - window_baseline_.comm_bytes;
  const StorageStats storage =
      StorageSeries().Since(window_baseline_.storage);
  stats.cache_hits = storage.cache_hits;
  stats.cache_misses = storage.cache_misses;
  stats.disk_bytes_read = storage.disk_bytes_read;
  stats.shed = series_.shed->Value() - window_baseline_.shed;
  const obs::Histogram::Snapshot machines =
      series_.machines_per_query->TakeSnapshot().Since(
          window_baseline_.machines_per_query);
  stats.machines_per_query_mean = machines.Mean();
  stats.routing_machine_rounds = machines.sum;
  // Each machine that ran sends the coordinator one message.
  stats.comm.messages = stats.routing_machine_rounds;
  stats.result_cache_misses = cache_.misses() - window_baseline_.cache_misses;
  stats.result_cache_evictions =
      cache_.evictions() - window_baseline_.cache_evictions;
  stats.result_cache_bytes = static_cast<uint64_t>(
      std::max<int64_t>(cache_.bytes(), 0));
  return stats;
}

void QueryServer::ResetStats() {
  std::unique_lock<std::mutex> lock(mu_);
  window_baseline_ = CaptureBaseline();
  window_.Restart();
}

std::vector<QueryProfile> QueryServer::RecentProfiles() const {
  return profiles_.Recent();
}

std::vector<QueryProfile> QueryServer::RecentSlowQueries() const {
  return profiles_.RecentSlow();
}

std::string QueryServer::StatusJson() const {
  const ServerStats stats = Stats();
  const HgpaIndex& index = engine_.index();
  char buf[256];
  std::string out = "{";

  // Placement summary.
  const std::vector<size_t> bytes_per_machine = index.BytesPerMachine();
  std::snprintf(buf, sizeof(buf),
                "\"placement\":{\"machines\":%zu,\"routing\":\"%s\","
                "\"max_machine_bytes\":%zu,\"total_bytes\":%zu,"
                "\"bytes_per_machine\":[",
                index.num_machines(),
                engine_.routing_mode() == RoutingMode::kRoute ? "route"
                                                              : "broadcast",
                index.MaxMachineBytes(), index.TotalBytes());
  out += buf;
  for (size_t m = 0; m < bytes_per_machine.size(); ++m) {
    std::snprintf(buf, sizeof(buf), "%s%zu", m == 0 ? "" : ",",
                  bytes_per_machine[m]);
    out += buf;
  }
  out += "]},";

  // Hot-shard replication budget vs. usage.
  std::snprintf(buf, sizeof(buf),
                "\"replication\":{\"replicated_hubs\":%zu,"
                "\"replica_bytes_per_machine\":%zu},",
                index.num_replicated_hubs(), index.replica_bytes_per_machine());
  out += buf;

  std::snprintf(
      buf, sizeof(buf),
      "\"serving\":{\"queries\":%llu,\"rounds\":%llu,\"qps\":%.2f,"
      "\"shed\":%llu,\"p50_latency_ms\":%.3f,"
      "\"p99_latency_ms\":%.3f,\"comm_bytes\":%llu,"
      "\"routing_machine_rounds\":%llu},",
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.rounds), stats.qps,
      static_cast<unsigned long long>(stats.shed),
      stats.p50_latency_ms, stats.p99_latency_ms,
      static_cast<unsigned long long>(stats.comm.bytes),
      static_cast<unsigned long long>(stats.routing_machine_rounds));
  out += buf;

  std::snprintf(
      buf, sizeof(buf),
      "\"result_cache\":{\"enabled\":%s,\"hits\":%llu,\"misses\":%llu,"
      "\"evictions\":%llu,\"entries\":%zu,\"bytes\":%llu},",
      cache_.enabled() ? "true" : "false",
      static_cast<unsigned long long>(stats.result_cache_hits),
      static_cast<unsigned long long>(stats.result_cache_misses),
      static_cast<unsigned long long>(stats.result_cache_evictions),
      cache_.entries(),
      static_cast<unsigned long long>(stats.result_cache_bytes));
  out += buf;

  out += "\"slow_queries\":[";
  const std::vector<QueryProfile> slow = profiles_.RecentSlow();
  for (size_t i = 0; i < slow.size(); ++i) {
    if (i > 0) out += ",";
    out += slow[i].ToJson();
  }
  out += "]}";
  return out;
}

}  // namespace dppr
