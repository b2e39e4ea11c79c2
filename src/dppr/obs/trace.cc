#include "dppr/obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "dppr/common/env.h"
#include "dppr/obs/flush.h"
#include "dppr/obs/metrics.h"

namespace dppr::obs {
namespace {

/// Small dense per-thread id: stable shard assignment and readable trace
/// tids (thread 1, 2, ... in spawn order) instead of opaque pthread handles.
uint32_t CurrentTraceTid() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// The calling thread's current query context; {0} outside any scope.
thread_local TraceContext g_trace_context;

}  // namespace

TraceContext CurrentTraceContext() { return g_trace_context; }

uint64_t NewTraceId() {
  // splitmix64 over a process counter: unique, nonzero, and visually
  // distinct from small sequential request ids in dumps. No wall clock or
  // global RNG involved, so traces stay deterministic to correlate.
  static std::atomic<uint64_t> next{1};
  uint64_t x = next.fetch_add(1, std::memory_order_relaxed);
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

TraceContextScope::TraceContextScope(TraceContext ctx) : prev_(g_trace_context) {
  g_trace_context = ctx;
}

TraceContextScope::~TraceContextScope() { g_trace_context = prev_; }

Tracer::Tracer(bool enabled, std::string path)
    : enabled_(enabled),
      path_(std::move(path)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::Global() {
  static Tracer* tracer = [] {
    const std::string path = GetEnvString("DPPR_TRACE", "");
    auto* t = new Tracer(/*enabled=*/!path.empty(), path);
    if (!path.empty()) {
      std::atexit([] { Tracer::Global().Flush(); });
      // An interrupted run (Ctrl-C on a demo, a killed bench) still gets a
      // usable trace file.
      InstallSignalFlushOnce();
    }
    return t;
  }();
  return *tracer;
}

void Tracer::RecordComplete(const char* name, double ts_us, double dur_us,
                            uint32_t pid,
                            const std::array<Arg, kMaxArgs>& args) {
  RecordComplete(name, ts_us, dur_us, pid, args, CurrentTraceContext());
}

void Tracer::RecordComplete(const char* name, double ts_us, double dur_us,
                            uint32_t pid, const std::array<Arg, kMaxArgs>& args,
                            TraceContext ctx) {
  if (!enabled()) return;
  const uint32_t tid = CurrentTraceTid();
  Shard& shard = shards_[tid % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.events.size() >= kMaxEventsPerShard) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    // Surfaced in /metrics too: silent truncation at the end of a long soak
    // otherwise only shows in the trace file footer nobody reads.
    static Counter* dropped_counter =
        MetricsRegistry::Global().GetCounter("trace.dropped");
    dropped_counter->Increment();
    return;
  }
  shard.events.push_back(Event{name, ts_us, dur_us, pid, tid, ctx.trace_id,
                               args});
}

size_t Tracer::event_count() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.events.size();
  }
  return total;
}

std::string Tracer::RenderJson() const {
  std::vector<Event> events;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    events.insert(events.end(), shard.events.begin(), shard.events.end());
  }
  // Chrome sorts internally, but a ts-ordered file is diffable and makes the
  // round-trip tests deterministic across shard interleavings.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return b.dur_us < a.dur_us;  // enclosing span first
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  bool first = true;

  // Name each lane so the viewer shows "machine N" rows, not bare pids.
  std::set<uint32_t> pids;
  for (const Event& e : events) pids.insert(e.pid);
  for (uint32_t pid : pids) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":0,\"ts\":0,\"args\":{\"name\":\"",
                  first ? "" : ",", pid);
    out += buf;
    if (pid == kCoordinatorLane) {
      out += "coordinator";
    } else {
      std::snprintf(buf, sizeof(buf), "machine %u", pid - 1);
      out += buf;
    }
    out += "\"}}";
    first = false;
  }

  for (const Event& e : events) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"dppr\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u",
                  first ? "" : ",", e.name, e.ts_us, e.dur_us, e.pid, e.tid);
    out += buf;
    first = false;
    bool has_args = false;
    if (e.trace_id != 0) {
      // The query context rides as a regular arg so any trace consumer (the
      // viewer's search box, the in-test parser) can join spans by trace id.
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"trace\":%llu",
                    static_cast<unsigned long long>(e.trace_id));
      out += buf;
      has_args = true;
    }
    for (const Arg& arg : e.args) {
      if (arg.key == nullptr) continue;
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu",
                    has_args ? "," : ",\"args\":{", arg.key,
                    static_cast<unsigned long long>(arg.value));
      out += buf;
      has_args = true;
    }
    if (has_args) out += "}";
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

void Tracer::Flush() const {
  if (path_.empty()) return;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "dppr: cannot write trace to %s\n", path_.c_str());
    return;
  }
  const std::string body = RenderJson();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

}  // namespace dppr::obs
