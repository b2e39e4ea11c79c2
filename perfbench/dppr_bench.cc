// dppr_bench: the repository's pinned performance benchmark.
//
// One workload per run, in one process. Every run builds the `web` graph at
// scale 1.0, runs the production offline path (DistributedPrecompute::RunHgpa
// with locality placement) on 6 simulated machines, serves the index through
// QueryServer, and measures what a user of an exact-PPV service sees:
// throughput and latency under a closed-loop load, single-query latency,
// coordinator bytes per query, the largest machine's index, set-up and build
// time, and the error against a power-iteration reference. README.md explains
// the workloads and metrics.
//
//   dppr_bench --workload=<name> [--seed=1] [--seconds=10] [--json=<path>]
//              [--trace=<path>] [--spill-dir=<dir>]
//
// Prints every metric as `name value unit`. Exit status: 0 when every answer
// is right, 1 on a wrong answer or an error above the gate, 2 on bad
// arguments or when any DPPR_* environment variable is set (the library reads
// its defaults from them; the benchmark pins every option instead).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dppr/common/rng.h"
#include "dppr/common/serialize.h"
#include "dppr/common/thread_pool.h"
#include "dppr/common/timer.h"
#include "dppr/core/dist_precompute.h"
#include "dppr/core/hgpa.h"
#include "dppr/graph/datasets.h"
#include "dppr/obs/metrics.h"
#include "dppr/ppr/power_iteration.h"
#include "dppr/serve/query_server.h"

extern char** environ;

namespace {

using namespace dppr;

constexpr double kGraphScale = 1.0;
constexpr size_t kMachines = 6;
constexpr size_t kClients = 4;
// Set-ups per run; setup_s and offline_sim_s report the median.
constexpr size_t kSetups = 3;
// Time slices of the load phase. A traced run records spans in every other
// slice and compares the two halves' throughput.
constexpr size_t kLoadSlices = 10;
constexpr size_t kVerifySources = 32;
constexpr size_t kProbeSources = 200;
constexpr double kReferenceTolerance = 1e-12;
// 10x the index tolerance (1e-4): today's worst entry error is ~2.5e-4.
constexpr double kErrAbsGate = 1e-3;
constexpr size_t kMiB = size_t{1} << 20;

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class Mix { kZipf, kUniform };

struct Workload {
  const char* name;
  Mix mix;
  TransportBackend transport;
  StorageBackend store;
  /// Residency cache per machine (disk store only).
  size_t store_cache_bytes;
  /// Hot-shard replication budget per machine.
  size_t replicate_bytes;
  /// Front-door result cache.
  size_t result_cache_bytes;
};

// Why each workload exists is in README.md. The disk cache of uniform-disk
// (8 MiB) is below the largest machine's 12.9 MiB index, so spill reads
// dominate; offline-build's 32 MiB holds every machine's whole index.
const Workload kWorkloads[] = {
    {"zipf-cached", Mix::kZipf, TransportBackend::kInProcess,
     StorageBackend::kMemoryOwned, 0, 4 * kMiB, 8 * kMiB},
    {"uniform-tcp", Mix::kUniform, TransportBackend::kTcp,
     StorageBackend::kMemoryOwned, 0, 0, 0},
    {"uniform-disk", Mix::kUniform, TransportBackend::kInProcess,
     StorageBackend::kDisk, 8 * kMiB, 0, 0},
    {"offline-build", Mix::kUniform, TransportBackend::kTcp,
     StorageBackend::kDisk, 32 * kMiB, 0, 0},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string json_path;
  std::string trace_path;
  std::string spill_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag, std::string* out) {
      const size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) != 0) return false;
      *out = arg.substr(n);
      return true;
    };
    std::string value;
    if (value_of("--workload=", &args->workload)) continue;
    if (value_of("--json=", &args->json_path)) continue;
    if (value_of("--trace=", &args->trace_path)) continue;
    if (value_of("--spill-dir=", &args->spill_dir)) continue;
    char* end = nullptr;
    if (value_of("--seed=", &value)) {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
      continue;
    }
    if (value_of("--seconds=", &value)) {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0)) return false;
      continue;
    }
    std::fprintf(stderr, "dppr_bench: unknown argument %s\n", arg.c_str());
    return false;
  }
  return !args->workload.empty();
}

/// First DPPR_* variable in the environment, or empty.
std::string FirstDpprVariable() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "DPPR_", 5) == 0) {
      const std::string entry = *env;
      return entry.substr(0, entry.find('='));
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Span recorder for the traced run. Lives here, not in the library: the
// program's own DPPR_TRACE spans stay off. Spans go to per-thread buffers and
// are written as Chrome trace JSON when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t trace_id;
  uint32_t thread;
  double start_us;
  double dur_us;
};

class SpanRecorder {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  double NowUs() const { return epoch_.ElapsedMicros(); }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// The calling thread's buffer, registered on first use.
  std::vector<Span>* ThreadBuffer(uint32_t* thread) {
    std::lock_guard<std::mutex> lock(mu_);
    *thread = static_cast<uint32_t>(buffers_.size());
    return &buffers_.emplace_back();
  }

  /// Every span recorded so far; call after the recording threads joined.
  std::vector<Span> All() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer.begin(), buffer.end());
    }
    return all;
  }

 private:
  std::atomic<bool> enabled_{false};
  WallTimer epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  /// Deque: a thread's buffer address stays valid as others register.
  std::deque<std::vector<Span>> buffers_;
};

SpanRecorder g_spans;

struct ThreadSpans {
  std::vector<Span>* buffer = nullptr;
  uint32_t thread = 0;
  /// Innermost open span on this thread: the parent of the next one.
  uint64_t current = 0;
};
thread_local ThreadSpans t_spans;

/// RAII span; records nothing unless `on` (by default: the recorder is on).
class SpanScope {
 public:
  explicit SpanScope(const char* name, bool on = g_spans.enabled()) {
    if (!on) return;
    if (t_spans.buffer == nullptr) {
      t_spans.buffer = g_spans.ThreadBuffer(&t_spans.thread);
    }
    span_ = Span{name, g_spans.NextId(), t_spans.current, 0, t_spans.thread,
                 g_spans.NowUs(), 0.0};
    t_spans.current = span_.id;
    active_ = true;
  }
  ~SpanScope() {
    if (!active_) return;
    span_.dur_us = g_spans.NowUs() - span_.start_us;
    t_spans.current = span_.parent;
    t_spans.buffer->push_back(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_trace_id(uint64_t trace_id) { span_.trace_id = trace_id; }

 private:
  Span span_{};
  bool active_ = false;
};

struct SelfTime {
  size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Per span name: count, total time, and self time (duration minus the part
/// its children cover; children run on their parent's thread, one at a time).
std::map<std::string, SelfTime> ReduceSelfTime(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.dur_us;
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    SelfTime& t = out[s.name];
    ++t.count;
    t.total_ms += s.dur_us / 1e3;
    auto it = child_us.find(s.id);
    t.self_ms += (s.dur_us - (it == child_us.end() ? 0.0 : it->second)) / 1e3;
  }
  return out;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"trace_id\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.thread, s.start_us, s.dur_us,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace_id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Deployment: graph, offline build, index, engine, server.
// ---------------------------------------------------------------------------

HgpaOptions IndexOptions() {
  HgpaOptions options;
  options.ppr.alpha = 0.15;
  options.ppr.tolerance = 1e-4;
  return options;
}

StorageOptions StoreOptions(const Workload& w, const std::string& spill_dir) {
  StorageOptions options;
  options.backend = w.store;
  options.cache_bytes = w.store == StorageBackend::kDisk ? w.store_cache_bytes
                                                         : options.cache_bytes;
  options.spill_dir = spill_dir;
  options.spill_path = "";
  return options;
}

ServeOptions ServingOptions(const Workload& w) {
  ServeOptions options;
  options.max_batch = 16;
  options.thread_cpu_timer = true;
  options.max_pending = 0;
  options.shed_on_overload = true;
  options.result_cache_bytes = w.result_cache_bytes;
  options.slow_query_us = -1;
  options.slow_query_log_path = "";
  return options;
}

/// What the offline build reports about itself.
struct OfflineReport {
  MultiRoundStats stats;
  double max_machine_s = 0.0;
  double total_compute_s = 0.0;
};

struct Deployment {
  /// The index keeps a pointer to the graph: declared first, destroyed last.
  std::unique_ptr<Graph> graph;
  std::unique_ptr<QueryServer> server;
  OfflineReport offline;
  double setup_s = 0.0;
};

std::unique_ptr<Deployment> Deploy(const Workload& w,
                                   const std::string& spill_dir) {
  auto d = std::make_unique<Deployment>();
  SpanScope setup_span("bench.setup");
  WallTimer setup;
  d->graph = std::make_unique<Graph>(WebLike(kGraphScale));

  DistPrecomputeOptions dist;
  dist.num_machines = kMachines;
  dist.network = NetworkModel::Lan100Mbit();
  dist.sequential = false;
  dist.storage = StoreOptions(w, spill_dir);
  dist.transport = TransportOptions{w.transport};
  dist.locality = OfflinePlacement::kLocality;
  DistributedPrecompute::Result result = [&] {
    SpanScope span("core.dist_precompute_run");
    return DistributedPrecompute::RunHgpa(*d->graph, IndexOptions(), dist);
  }();
  d->offline = {result.offline, result.ledger.MaxSeconds(),
                result.ledger.TotalSeconds()};

  HgpaIndex index = HgpaIndex::FromDistributed(
      std::move(result), ReplicationOptions{w.replicate_bytes});
  HgpaQueryEngine engine(std::move(index), NetworkModel::Lan100Mbit(),
                         TransportOptions{w.transport},
                         RoutingOptions{RoutingMode::kRoute});
  d->server = std::make_unique<QueryServer>(std::move(engine), ServingOptions(w));
  d->setup_s = setup.ElapsedSeconds();
  return d;
}

// ---------------------------------------------------------------------------
// Query sources.
// ---------------------------------------------------------------------------

class SourceSampler {
 public:
  SourceSampler(const Graph& graph, Mix mix) {
    const NodeId n = static_cast<NodeId>(graph.num_nodes());
    if (mix == Mix::kUniform) {
      // The SampleQueries filter: 58% of ids have a self-loop as their only
      // edge, so their PPV is the source alone and its query folds almost
      // nothing.
      for (NodeId u = 0; u < n; ++u) {
        if (graph.out_degree(u) >= 2 && !graph.HasEdge(u, u)) nodes_.push_back(u);
      }
      return;
    }
    // Zipf(1.0) over all nodes ranked by out-degree (ties by id).
    nodes_.resize(n);
    for (NodeId u = 0; u < n; ++u) nodes_[u] = u;
    std::stable_sort(nodes_.begin(), nodes_.end(), [&](NodeId a, NodeId b) {
      return graph.out_degree(a) > graph.out_degree(b);
    });
    double sum = 0.0;
    cdf_.reserve(n);
    for (size_t rank = 0; rank < nodes_.size(); ++rank) {
      sum += 1.0 / static_cast<double>(rank + 1);
      cdf_.push_back(sum);
    }
  }

  NodeId Next(Rng& rng) const {
    if (cdf_.empty()) return nodes_[rng.Uniform(nodes_.size())];
    const double u = rng.NextDouble() * cdf_.back();
    size_t i = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return nodes_[std::min(i, nodes_.size() - 1)];
  }

  size_t population() const { return nodes_.size(); }

 private:
  std::vector<NodeId> nodes_;
  std::vector<double> cdf_;
};

/// Independent random stream per (seed, phase, client).
Rng StreamRng(uint64_t seed, uint64_t phase, uint64_t client) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + phase * 0x100000001B3ULL + client);
}

enum Phase : uint64_t {
  kVerifyPhase = 1,
  kUnloadedPhase,
  kWarmupPhase,
  kLoadPhase,
  kProbePhase
};

// ---------------------------------------------------------------------------
// Correctness: every served PPV must be bit-identical to the first answer
// seen for its source; the verify sources' first answers are the engine's,
// checked against a power-iteration reference.
// ---------------------------------------------------------------------------

uint64_t Fingerprint(const SparseVector& v) {
  uint64_t h = 0xCBF29CE484222325ULL ^ v.size();
  for (const SparseVector::Entry& e : v.entries()) {
    h = (h ^ e.index) * 0x100000001B3ULL;
    h = (h ^ std::bit_cast<uint64_t>(e.value)) * 0x100000001B3ULL;
  }
  return h == 0 ? 1 : h;
}

class AnswerBook {
 public:
  explicit AnswerBook(size_t num_nodes) : first_(num_nodes) {}

  /// False when `ppv` differs from the first answer recorded for `source`.
  bool Check(NodeId source, const SparseVector& ppv) {
    uint64_t expected = 0;
    const uint64_t got = Fingerprint(ppv);
    if (first_[source].compare_exchange_strong(expected, got)) return true;
    return expected == got;
  }

 private:
  std::vector<std::atomic<uint64_t>> first_;
};

struct VerifyResult {
  double err_l1_max = 0.0;
  double err_abs_max = 0.0;
  size_t sources = 0;
};

/// Checks a fixed sample of the mix's sources against the reference. The
/// sample does not depend on --seed: a max over 32 sources moves by 7% with
/// the sample, and the error bound has to catch far smaller regressions.
VerifyResult Verify(const HgpaQueryEngine& engine, const SourceSampler& sampler,
                    AnswerBook& book) {
  const Graph& graph = engine.index().graph();
  // Distinct sources: a skewed mix would otherwise check its top node twice.
  std::vector<NodeId> sources;
  Rng rng = StreamRng(0, kVerifyPhase, 0);
  for (size_t tries = 0; sources.size() < kVerifySources && tries < 100000;
       ++tries) {
    NodeId s = sampler.Next(rng);
    if (std::find(sources.begin(), sources.end(), s) == sources.end()) {
      sources.push_back(s);
    }
  }
  std::vector<double> l1(sources.size()), abs_max(sources.size());
  std::vector<SparseVector> answers(sources.size());
  ThreadPool::Default().ParallelFor(sources.size(), [&](size_t i) {
    answers[i] = engine.Query(sources[i]);
    PowerIterationOptions options;
    options.ppr = engine.index().options().ppr;
    options.ppr.tolerance = kReferenceTolerance;
    options.dangling = PowerDangling::kRedirectToQuery;
    std::vector<double> diff = PowerIterationPpv(graph, sources[i], options).ppv;
    for (const SparseVector::Entry& e : answers[i].entries()) {
      diff[e.index] -= e.value;
    }
    for (double d : diff) {
      l1[i] += std::abs(d);
      abs_max[i] = std::max(abs_max[i], std::abs(d));
    }
  });
  VerifyResult result;
  result.sources = sources.size();
  for (size_t i = 0; i < sources.size(); ++i) {
    book.Check(sources[i], answers[i]);
    result.err_l1_max = std::max(result.err_l1_max, l1[i]);
    result.err_abs_max = std::max(result.err_abs_max, abs_max[i]);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Closed-loop clients.
// ---------------------------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t shed = 0;
  uint64_t wrong = 0;
  uint64_t cache_hits = 0;
  /// Answered by a cluster round (not shed, not a result-cache hit).
  uint64_t engine_answered = 0;
  /// Client-observed latency of every completed query (in a traced run,
  /// only of queries started in untraced slices).
  std::vector<double> latency_ms;
  /// Queries completed in each time slice of the phase, up to its deadline.
  std::vector<uint64_t> slice_done;
  double slice_s = 0.0;
  double engine_latency_ms = 0.0;
  double comm_bytes = 0.0;
  double machines = 0.0;
  double machine_ms = 0.0;
  double coordinator_ms = 0.0;

  uint64_t completed() const { return attempted - shed; }

  /// Throughput over the slices of one parity (odd = the traced slices of a
  /// traced run), or over all of them.
  double SliceQps(int parity = -1) const {
    uint64_t done = 0;
    size_t slices = 0;
    for (size_t i = 0; i < slice_done.size(); ++i) {
      if (parity < 0 || static_cast<int>(i % 2) == parity) {
        done += slice_done[i];
        ++slices;
      }
    }
    return slices == 0 ? 0.0
                       : static_cast<double>(done) /
                             (static_cast<double>(slices) * slice_s);
  }

  void Merge(const Tally& o) {
    attempted += o.attempted;
    shed += o.shed;
    wrong += o.wrong;
    cache_hits += o.cache_hits;
    engine_answered += o.engine_answered;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    slice_done.resize(std::max(slice_done.size(), o.slice_done.size()));
    for (size_t i = 0; i < o.slice_done.size(); ++i) slice_done[i] += o.slice_done[i];
    slice_s = o.slice_s;
    engine_latency_ms += o.engine_latency_ms;
    comm_bytes += o.comm_bytes;
    machines += o.machines;
    machine_ms += o.machine_ms;
    coordinator_ms += o.coordinator_ms;
  }
};

/// `clients` threads query `server` back to back for `seconds`, each
/// sending its next query only after the previous answer arrived. The phase
/// is cut into `slices` equal time slices for SliceQps; with `trace_odd`,
/// queries started in odd slices are recorded as spans.
Tally RunClients(QueryServer& server, const SourceSampler& sampler,
                 AnswerBook& book, uint64_t seed, Phase phase, size_t clients,
                 double seconds, size_t slices = 1, bool trace_odd = false) {
  using Clock = std::chrono::steady_clock;
  std::vector<Tally> tallies(clients);
  std::atomic<bool> go{false};
  Clock::time_point start;
  Clock::time_point deadline;
  const double slice_s = seconds / static_cast<double>(slices);
  auto slice_of = [&](Clock::time_point t) {
    return static_cast<size_t>(std::chrono::duration<double>(t - start).count() /
                               slice_s);
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng = StreamRng(seed, phase, c);
      Tally& t = tallies[c];
      t.slice_done.assign(slices, 0);
      t.slice_s = slice_s;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (Clock::time_point now = Clock::now(); now < deadline;) {
        const NodeId source = sampler.Next(rng);
        const bool traced = trace_odd && slice_of(now) % 2 == 1;
        SpanScope span("serve.query", traced);
        QueryServer::Response r = server.Query(source);
        const Clock::time_point done = Clock::now();
        const double ms = std::chrono::duration<double, std::milli>(done - now).count();
        span.set_trace_id(r.trace_id);
        now = done;
        ++t.attempted;
        if (r.shed) {
          ++t.shed;
          continue;
        }
        if (done < deadline) ++t.slice_done[slice_of(done)];
        if (!traced) t.latency_ms.push_back(ms);
        if (!book.Check(source, r.ppv)) ++t.wrong;
        if (r.cache_hit) {
          ++t.cache_hits;
          continue;
        }
        ++t.engine_answered;
        t.engine_latency_ms += ms;
        t.comm_bytes += static_cast<double>(r.metrics.comm.bytes);
        t.machines += static_cast<double>(r.metrics.machines_contacted);
        t.machine_ms += r.metrics.max_machine_seconds * 1e3;
        t.coordinator_ms += r.metrics.coordinator_seconds * 1e3;
      }
    });
  }
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  Tally total;
  for (const Tally& t : tallies) total.Merge(t);
  return total;
}

/// Nearest-rank quantile of an unsorted sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Registry series read by the per-layer metrics. Process-wide counters, so
// every per-layer number is a delta over the load phase.
uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}
obs::Histogram* HistogramNamed(const std::string& name) {
  return obs::MetricsRegistry::Global().GetHistogram(name);
}

struct RegistryWindow {
  uint64_t frames = 0;
  uint64_t miss_reads = 0;
  uint64_t prefetch_reads = 0;
  uint64_t prefetch_issued = 0;

  static RegistryWindow Capture() {
    return {CounterValue("net.tcp.frames_sent") +
                CounterValue("net.inproc.frames_sent"),
            HistogramNamed("store.disk.miss_extent_read_us")->Count(),
            CounterValue("store.prefetch.coalesced_reads"),
            CounterValue("store.prefetch.issued")};
  }
  RegistryWindow Since(const RegistryWindow& b) const {
    return {frames - b.frames, miss_reads - b.miss_reads,
            prefetch_reads - b.prefetch_reads, prefetch_issued - b.prefetch_issued};
  }
};

// ---------------------------------------------------------------------------
// Layer probes (traced run only): one thread, spans around each public call
// a query's path makes, over a fixed sample of the workload's sources.
// ---------------------------------------------------------------------------

/// Keeps probed results observable so the compiler cannot drop the work.
std::atomic<size_t> g_sink{0};

struct ProbeResult {
  size_t sources = 0;
  double route_us = 0.0;
  double engine_p50_ms = 0.0;
  double round_us = 0.0;
  double find_us = 0.0;
  double fold_ns_per_entry = 0.0;
  double codec_ns_per_entry = 0.0;
  double hierarchy_s = 0.0;
};

ProbeResult RunProbes(const Workload& w, const HgpaQueryEngine& engine,
                      const SourceSampler& sampler, uint64_t seed,
                      double max_seconds) {
  const HgpaIndex& index = engine.index();
  const Hierarchy& hierarchy = index.hierarchy();
  SimCluster cluster(kMachines, NetworkModel::Lan100Mbit(), /*sequential=*/false,
                     TransportOptions{w.transport});
  DenseAccumulator acc(index.graph().num_nodes());
  Rng rng = StreamRng(seed, kProbePhase, 0);
  ProbeResult out;
  std::vector<double> engine_ms;
  double route_us = 0, round_us = 0, find_us = 0, fold_ns = 0, codec_ns = 0;
  double folded_entries = 0, codec_entries = 0;
  WallTimer budget;
  for (; out.sources < kProbeSources && budget.ElapsedSeconds() < max_seconds;
       ++out.sources) {
    const NodeId source = sampler.Next(rng);
    SpanScope query_span("probe.query");
    WallTimer t;
    QueryRouter::Plan plan;
    {
      SpanScope span("core.route");
      t.Restart();
      plan = engine.router()->Route({&source, 1});
      route_us += t.ElapsedMicros();
    }
    QueryMetrics metrics;
    SparseVector ppv;
    {
      SpanScope span("core.engine_query");
      t.Restart();
      ppv = engine.Query(source, &metrics);
      engine_ms.push_back(t.ElapsedMillis());
    }
    if (!plan.machines.empty()) {
      // The round alone: the plan's machines, no compute, each returning its
      // share of the query's recorded fragment bytes.
      const size_t bytes = metrics.comm.bytes / plan.machines.size();
      SpanScope span("dist.round");
      t.Restart();
      cluster.RunRoundOn(plan.machines, [bytes](size_t) {
        return std::vector<uint8_t>(bytes);
      });
      round_us += t.ElapsedMicros();
    }
    // The lookups the plan's machines make for this query, in fold order.
    std::vector<PpvRef> vectors;
    {
      SpanScope span("store.find");
      t.Restart();
      for (size_t i = 0; i < plan.machines.size(); ++i) {
        const PpvStore& store = index.store(plan.machines[i]);
        for (size_t owner : plan.owners[i]) {
          const auto& hubs = index.hubs_on_machine(owner);
          for (SubgraphId sub : hierarchy.Chain(source)) {
            auto it = hubs.find(sub);
            if (it == hubs.end()) continue;
            for (NodeId hub : it->second) {
              PpvPair pair = store.FindPair(sub, hub);
              vectors.push_back(std::move(pair.partial));
            }
          }
          if (index.own_vector_machine(source) == owner) {
            vectors.push_back(store.Find(
                hierarchy.is_hub(source) ? VectorKind::kHubPartial
                                         : VectorKind::kOwnVector,
                hierarchy.final_subgraph(source), source));
          }
        }
      }
      find_us += t.ElapsedMicros();
    }
    {
      SpanScope span("ppr.fold");
      t.Restart();
      for (const PpvRef& v : vectors) {
        if (!v) continue;
        acc.AddVector(*v, 1.0);
        folded_entries += static_cast<double>(v->size());
      }
      g_sink += acc.ToSparse().size();
      acc.Clear();
      fold_ns += t.ElapsedMicros() * 1e3;
    }
    {
      SpanScope span("ppr.codec");
      t.Restart();
      ByteWriter writer;
      ppv.SerializeTo(writer);
      const std::vector<uint8_t> bytes = writer.Release();
      ByteReader reader(bytes);
      SparseVector decoded = SparseVector::Deserialize(reader);
      codec_ns += t.ElapsedMicros() * 1e3;
      codec_entries += static_cast<double>(decoded.size());
    }
  }
  {
    SpanScope span("partition.hierarchy_build");
    WallTimer t;
    g_sink += Hierarchy::Build(index.graph(), IndexOptions().hierarchy)
                  .num_subgraphs();
    out.hierarchy_s = t.ElapsedSeconds();
  }
  const double n = static_cast<double>(std::max<size_t>(out.sources, 1));
  out.route_us = route_us / n;
  out.engine_p50_ms = Median(engine_ms);
  out.round_us = round_us / n;
  out.find_us = find_us / n;
  out.fold_ns_per_entry = Ratio(fold_ns, folded_entries);
  out.codec_ns_per_entry = Ratio(codec_ns, codec_entries);
  return out;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* TransportName(TransportBackend b) {
  return b == TransportBackend::kTcp ? "tcp" : "inproc";
}
const char* StoreName(StorageBackend b) {
  return b == StorageBackend::kDisk ? "disk" : "memory";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string pinned = FirstDpprVariable();
  if (!pinned.empty()) {
    std::fprintf(stderr,
                 "dppr_bench: %s is set; the benchmark pins every option, so "
                 "unset all DPPR_* variables\n",
                 pinned.c_str());
    return 2;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dppr_bench --workload=<name> [--seed=1] [--seconds=10] "
                 "[--json=<path>] [--trace=<path>] [--spill-dir=<dir>]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "dppr_bench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  const bool traced = !args.trace_path.empty();
  const double unloaded_s = 0.3 * args.seconds;
  const double load_s = 0.7 * args.seconds;
  const double warmup_s = 0.05 * args.seconds;

  // The first deployment serves every phase. Peak RSS is read once it has
  // served, before the repeat set-ups (which only time set-up) run: memory
  // the allocator keeps from an earlier set-up would otherwise inflate it.
  g_spans.set_enabled(traced);
  std::unique_ptr<Deployment> d = Deploy(w, args.spill_dir);
  g_spans.set_enabled(false);
  std::vector<double> setup_s = {d->setup_s};
  std::vector<double> offline_sim_s = {d->offline.stats.simulated_seconds};
  QueryServer& server = *d->server;
  const HgpaQueryEngine& engine = server.engine();
  const Graph& graph = *d->graph;
  const SourceSampler sampler(graph, w.mix);
  AnswerBook book(graph.num_nodes());

  const VerifyResult verify = Verify(engine, sampler, book);
  const Tally unloaded = RunClients(server, sampler, book, args.seed,
                                    kUnloadedPhase, 1, unloaded_s);
  const Tally warmup = RunClients(server, sampler, book, args.seed,
                                  kWarmupPhase, kClients, warmup_s);

  // Load phase. The traced run records spans for queries started in odd
  // slices only; the qps gap between odd and even slices is the overhead.
  // This server was the process's first, so its registry series carry
  // label 0.
  const std::string label = "{server=\"0\"}";
  const uint64_t served_before = CounterValue("serve.queries" + label);
  const obs::Histogram::Snapshot wait_before =
      HistogramNamed("serve.admission_wait_us" + label)->TakeSnapshot();
  const RegistryWindow registry_before = RegistryWindow::Capture();
  server.ResetStats();
  const Tally load = RunClients(server, sampler, book, args.seed, kLoadPhase,
                                kClients, load_s, kLoadSlices, traced);
  const ServerStats stats = server.Stats();
  const RegistryWindow registry = RegistryWindow::Capture().Since(registry_before);
  const obs::Histogram::Snapshot wait =
      HistogramNamed("serve.admission_wait_us" + label)->TakeSnapshot().Since(
          wait_before);
  const uint64_t served = CounterValue("serve.queries" + label) - served_before;
  if (served != load.completed()) {
    // The wait histogram is read by series label; a mismatch means the label
    // is not this server's and the wait metrics would be someone else's.
    std::fprintf(stderr, "dppr_bench: server series label mismatch (%llu vs %llu)\n",
                 static_cast<unsigned long long>(served),
                 static_cast<unsigned long long>(load.completed()));
    return 3;
  }

  ProbeResult probe;
  if (traced) {
    g_spans.set_enabled(true);
    probe = RunProbes(w, engine, sampler, args.seed, 0.2 * args.seconds);
    g_spans.set_enabled(false);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double index_mb = static_cast<double>(engine.index().MaxMachineBytes()) / kMiB;
  const OfflineReport offline = d->offline;
  const size_t nodes = graph.num_nodes();
  const size_t edges = graph.num_edges();
  const ServeOptions serve_options = server.options();
  d.reset();
  for (size_t i = 1; i < kSetups; ++i) {
    g_spans.set_enabled(traced);
    std::unique_ptr<Deployment> repeat = Deploy(w, args.spill_dir);
    g_spans.set_enabled(false);
    setup_s.push_back(repeat->setup_s);
    offline_sim_s.push_back(repeat->offline.stats.simulated_seconds);
  }

  const uint64_t wrong = unloaded.wrong + warmup.wrong + load.wrong;
  const uint64_t shed = unloaded.shed + warmup.shed + load.shed;
  const uint64_t attempted =
      verify.sources + unloaded.attempted + warmup.attempted + load.attempted;
  const bool correct = wrong == 0 && verify.err_abs_max <= kErrAbsGate;

  const double engine_n = static_cast<double>(load.engine_answered);
  const double machine_ms = Ratio(load.machine_ms, engine_n);
  const double coordinator_ms = Ratio(load.coordinator_ms, engine_n);
  const double unloaded_qps =
      static_cast<double>(unloaded.completed()) / unloaded_s;

  std::vector<Metric> metrics = {
      // End to end.
      {"qps", load.SliceQps(traced ? 0 : -1), "1/s"},
      {"p50_ms", Median(load.latency_ms), "ms"},
      {"p95_ms", Quantile(load.latency_ms, 0.95), "ms"},
      {"unloaded_p50_ms", Median(unloaded.latency_ms), "ms"},
      {"failed_frac", Ratio(static_cast<double>(shed + wrong),
                            static_cast<double>(attempted)), "ratio"},
      {"err_l1_max", verify.err_l1_max, "L1"},
      {"err_abs_max", verify.err_abs_max, "abs"},
      {"comm_kb_per_query", Ratio(load.comm_bytes / 1024.0, engine_n), "KB"},
      {"index_mb", index_mb, "MB"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      {"offline_sim_s", Median(offline_sim_s), "s"},
      {"load_samples", static_cast<double>(load.latency_ms.size()), "count"},
      // Per layer.
      {"serve.wait_p50_ms", static_cast<double>(wait.Quantile(0.5)) / 1e3, "ms"},
      {"serve.wait_p99_ms", static_cast<double>(wait.Quantile(0.99)) / 1e3, "ms"},
      {"serve.mean_batch", stats.mean_batch, "count"},
      {"serve.cache_hit_rate",
       Ratio(static_cast<double>(stats.result_cache_hits),
             static_cast<double>(stats.result_cache_hits + stats.result_cache_misses)),
       "ratio"},
      {"serve.concurrency_gain", Ratio(load.SliceQps(traced ? 0 : -1), unloaded_qps),
       "ratio"},
      {"core.machines_per_query", Ratio(load.machines, engine_n), "count"},
      {"core.machine_ms", machine_ms, "ms"},
      {"core.coordinator_ms", coordinator_ms, "ms"},
      {"core.other_ms",
       Ratio(load.engine_latency_ms, engine_n) - wait.Mean() / 1e3 - machine_ms -
           coordinator_ms,
       "ms"},
      {"net.frames_per_query", Ratio(static_cast<double>(registry.frames), engine_n),
       "count"},
      {"store.hit_rate",
       Ratio(static_cast<double>(stats.cache_hits),
             static_cast<double>(stats.cache_hits + stats.cache_misses)),
       "ratio"},
      {"store.disk_mb_per_query",
       Ratio(static_cast<double>(stats.disk_bytes_read) / kMiB, engine_n), "MB"},
      {"store.preads_per_query",
       Ratio(static_cast<double>(registry.miss_reads + registry.prefetch_reads),
             engine_n),
       "count"},
      {"store.prefetch_keys_per_read",
       Ratio(static_cast<double>(registry.prefetch_issued),
             static_cast<double>(registry.prefetch_reads)),
       "count"},
      {"core.offline_max_machine_s", offline.max_machine_s, "s"},
      {"core.offline_total_compute_s", offline.total_compute_s, "s"},
      {"dist.offline_rounds", static_cast<double>(offline.stats.rounds), "count"},
      {"dist.offline_exchange_rounds",
       static_cast<double>(offline.stats.exchange_rounds), "count"},
      {"dist.offline_critical_s", offline.stats.max_machine_seconds, "s"},
      {"dist.offline_coordinator_s", offline.stats.coordinator_seconds, "s"},
      {"net.offline_shuffled_mb",
       static_cast<double>(offline.stats.shuffled.bytes) / kMiB, "MB"},
  };
  if (traced) {
    const std::vector<Metric> probes = {
        {"core.route_us", probe.route_us, "us"},
        {"core.engine_p50_ms", probe.engine_p50_ms, "ms"},
        {"dist.round_us", probe.round_us, "us"},
        {"store.find_us_per_query", probe.find_us, "us"},
        {"ppr.fold_ns_per_entry", probe.fold_ns_per_entry, "ns"},
        {"ppr.codec_ns_per_entry", probe.codec_ns_per_entry, "ns"},
        {"partition.hierarchy_s", probe.hierarchy_s, "s"},
        {"obs.trace_overhead_frac",
         Ratio(load.SliceQps(0) - load.SliceQps(1), load.SliceQps(0)), "ratio"},
    };
    metrics.insert(metrics.end(), probes.begin(), probes.end());
  }
  for (const Metric& m : metrics) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::map<std::string, SelfTime> self_time;
  if (traced) {
    const std::vector<Span> spans = g_spans.All();
    self_time = ReduceSelfTime(spans);
    std::printf("# span self time: name count total_ms self_ms\n");
    for (const auto& [name, t] : self_time) {
      std::printf("# %s %zu %.3f %.3f\n", name.c_str(), t.count, t.total_ms,
                  t.self_ms);
    }
    if (!WriteChromeTrace(args.trace_path, spans)) {
      std::fprintf(stderr, "dppr_bench: cannot write %s\n", args.trace_path.c_str());
      return 2;
    }
  }

  if (!args.json_path.empty()) {
    std::string out = "{\"workload\": ";
    AppendJsonString(out, w.name);
    out += ", \"correct\": " + std::string(correct ? "true" : "false");
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(shed + wrong);
    out += ", \"wrong\": " + std::to_string(wrong);
    char config[1024];
    std::snprintf(
        config, sizeof(config),
        ", \"config\": {\"seed\": %llu, \"dataset\": \"web\", \"scale\": %g, "
        "\"nodes\": %zu, \"edges\": %zu, \"machines\": %zu, "
        "\"transport\": \"%s\", \"store\": \"%s\", \"store_cache_bytes\": %zu, "
        "\"replicate_bytes\": %zu, \"result_cache_bytes\": %zu, "
        "\"mix\": \"%s\", \"mix_population\": %zu, \"clients\": %zu, "
        "\"setups\": %zu, \"verify_sources\": %zu, \"unloaded_s\": %g, "
        "\"warmup_s\": %g, \"load_s\": %g, \"max_batch\": %zu, "
        "\"max_pending\": %zu, \"nproc\": %u, \"traced\": %s}",
        static_cast<unsigned long long>(args.seed), kGraphScale,
        nodes, edges, kMachines,
        TransportName(w.transport), StoreName(w.store), w.store_cache_bytes,
        w.replicate_bytes, w.result_cache_bytes,
        w.mix == Mix::kZipf ? "zipf" : "uniform", sampler.population(), kClients,
        kSetups, verify.sources, unloaded_s, warmup_s, load_s,
        serve_options.max_batch, serve_options.max_pending,
        std::thread::hardware_concurrency(), traced ? "true" : "false");
    out += config;
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) out += ", ";
      AppendJsonString(out, metrics[i].name);
      out += ": {\"value\": " + JsonNumber(metrics[i].value) + ", \"unit\": ";
      AppendJsonString(out, metrics[i].unit);
      out += "}";
    }
    out += "}, \"self_time_ms\": {";
    bool first = true;
    for (const auto& [name, t] : self_time) {
      if (!first) out += ", ";
      first = false;
      AppendJsonString(out, name);
      out += ": {\"count\": " + std::to_string(t.count) +
             ", \"total\": " + JsonNumber(t.total_ms) +
             ", \"self\": " + JsonNumber(t.self_ms) + "}";
    }
    out += "}}\n";
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    const bool written =
        f != nullptr && std::fwrite(out.data(), 1, out.size(), f) == out.size();
    if (f == nullptr || std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "dppr_bench: cannot write %s\n", args.json_path.c_str());
      return 2;
    }
  }

  if (!correct) {
    std::fprintf(stderr,
                 "dppr_bench: FAILED: %llu wrong answers, err_abs_max %.3g "
                 "(gate %.3g)\n",
                 static_cast<unsigned long long>(wrong), verify.err_abs_max,
                 kErrAbsGate);
    return 1;
  }
  return 0;
}
