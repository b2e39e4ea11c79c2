#ifndef DPPR_OBS_TRACE_H_
#define DPPR_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dppr::obs {

/// Timeline lane ids for trace events. Chrome's trace viewer groups events
/// by pid, so each simulated machine gets its own lane and a whole offline
/// precompute or serving run renders as a per-machine timeline; lane 0 is
/// the coordinator / serving front-end.
inline constexpr uint32_t kCoordinatorLane = 0;
inline uint32_t MachineLane(size_t machine) {
  return static_cast<uint32_t>(machine) + 1;
}

/// Query-scoped trace identity: one id, propagated thread-locally, never on
/// the wire. The serving front-end mints one per request; SimCluster
/// re-establishes the caller's context inside each machine task, so
/// cluster/store/net spans on every contributing machine carry the
/// originating query's trace id. trace_id == 0 means "no context" (offline
/// runs, untraced work).
struct TraceContext {
  uint64_t trace_id = 0;
  explicit operator bool() const { return trace_id != 0; }
};

/// The calling thread's current context ({0} when none is in scope).
TraceContext CurrentTraceContext();

/// Process-unique nonzero id (mixed so ids don't collide visually with
/// request counters).
uint64_t NewTraceId();

/// RAII: installs `ctx` as the calling thread's context, restoring the
/// previous one on destruction. Cheap enough for per-machine-task use.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
};

/// Collects Chrome trace-event / Perfetto-compatible complete ("X") events
/// and renders them as trace JSON. The global tracer is enabled iff
/// DPPR_TRACE=<path> is set when it is first touched; the trace is written
/// to <path> at process exit (and on any explicit Flush). Open the file in
/// https://ui.perfetto.dev or chrome://tracing.
///
/// Recording is lock-sharded by thread (one mutex + vector per shard, shard
/// picked by a per-thread id), so concurrent spans from the serving layer
/// never contend on one lock; the disabled path is a single relaxed atomic
/// load per span. Event names and arg keys must be string literals (stored
/// as pointers, never copied). Memory is bounded: past kMaxEvents the
/// tracer drops new events and counts the drops.
class Tracer {
 public:
  /// The process-wide tracer, configured from DPPR_TRACE on first use.
  static Tracer& Global();

  /// Standalone tracer (tests). Disabled unless `enabled`; Flush writes to
  /// `path` when non-empty.
  explicit Tracer(bool enabled = false, std::string path = "");

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Tests only; flipping while spans are in flight is safe (spans capture
  /// the enabled state at construction) but mixes traced and untraced work.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  struct Arg {
    const char* key = nullptr;  // nullptr == unused slot
    uint64_t value = 0;
  };
  static constexpr size_t kMaxArgs = 3;

  /// Microseconds since this tracer's epoch (construction time).
  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Records one complete event on the calling thread's lane, tagged with
  /// the calling thread's CurrentTraceContext(). `name` must be a string
  /// literal. Also the escape hatch for spans whose start time is only known
  /// after the fact.
  void RecordComplete(const char* name, double ts_us, double dur_us,
                      uint32_t pid, const std::array<Arg, kMaxArgs>& args);

  /// Same, with an explicit context (TraceSpan passes the context it
  /// captured when it opened).
  void RecordComplete(const char* name, double ts_us, double dur_us,
                      uint32_t pid, const std::array<Arg, kMaxArgs>& args,
                      TraceContext ctx);

  size_t event_count() const;
  uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// {"displayTimeUnit":"ms","traceEvents":[...]} with process_name
  /// metadata naming each machine lane. Safe to call while recording
  /// continues (weakly consistent, like any live trace dump).
  std::string RenderJson() const;

  /// RenderJson to the configured path; no-op when the path is empty.
  void Flush() const;

 private:
  struct Event {
    const char* name;
    double ts_us;
    double dur_us;
    uint32_t pid;
    uint32_t tid;
    /// Originating query's trace id (0 = untraced work). Rendered as a
    /// "trace" arg so the viewer and the in-test parser can join spans to
    /// QueryProfiles; kept out of args so spans keep all kMaxArgs slots.
    uint64_t trace_id;
    std::array<Arg, kMaxArgs> args;
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<Event> events;
  };

  static constexpr size_t kShards = 16;
  /// ~4M events across shards (~80 bytes/event -> ~330 MB worst case); long
  /// soak runs truncate instead of eating the machine (drops are counted
  /// here and in the `trace.dropped` registry counter).
  static constexpr size_t kMaxEventsPerShard = (4u << 20) / kShards;

  std::atomic<bool> enabled_;
  std::string path_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> dropped_{0};
  std::array<Shard, kShards> shards_;
};

/// RAII span: construction stamps the start time, destruction records one
/// complete event covering the scope. When the tracer is disabled the
/// constructor is one atomic load and everything else is a no-op, so spans
/// are safe to leave on hot paths.
///
///   TraceSpan span(obs::MachineLane(m), "cluster.machine");
///   span.Arg("round", round_id);
class TraceSpan {
 public:
  /// Span on the global tracer.
  explicit TraceSpan(uint32_t pid, const char* name)
      : TraceSpan(Tracer::Global(), pid, name) {}

  TraceSpan(Tracer& tracer, uint32_t pid, const char* name) {
    if (!tracer.enabled()) return;
    tracer_ = &tracer;
    name_ = name;
    pid_ = pid;
    ctx_ = CurrentTraceContext();
    start_us_ = tracer.NowMicros();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches `key`=`value` (up to Tracer::kMaxArgs; extras are dropped).
  /// `key` must be a string literal.
  void Arg(const char* key, uint64_t value) {
    if (tracer_ == nullptr || num_args_ >= Tracer::kMaxArgs) return;
    args_[num_args_++] = {key, value};
  }

  ~TraceSpan() {
    if (tracer_ == nullptr) return;
    const double end_us = tracer_->NowMicros();
    tracer_->RecordComplete(name_, start_us_, end_us - start_us_, pid_, args_,
                            ctx_);
  }

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
  uint32_t pid_ = 0;
  TraceContext ctx_;
  double start_us_ = 0.0;
  std::array<Tracer::Arg, Tracer::kMaxArgs> args_{};
  size_t num_args_ = 0;
};

}  // namespace dppr::obs

#endif  // DPPR_OBS_TRACE_H_
