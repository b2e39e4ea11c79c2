#ifndef DPPR_SERVE_QUERY_PROFILE_H_
#define DPPR_SERVE_QUERY_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "dppr/core/hgpa.h"
#include "dppr/graph/types.h"

namespace dppr {

/// Everything one served request cost, assembled by QueryServer after the
/// request completes: the request's identity and timing around the engine's
/// own QueryMetrics for its round — the same record the aggregate counters
/// are fed from, so a profile's totals reconcile exactly with the `serve.*`
/// registry deltas over the same window. A profile is an attribution of the
/// ledgers, never a second measurement. Rendered as one JSON object per line
/// (JSONL) in the slow-query log; the field catalog is documented in
/// README.md.
struct QueryProfile {
  /// How the request left the server.
  enum class Outcome : uint8_t {
    /// Answered by its own cluster round.
    kServed = 0,
    /// Answered from the front-door result cache; no round ran.
    kCacheHit = 1,
    /// Rejected by admission control; no round ran.
    kShed = 2,
  };

  /// Trace id minted at admission — the same id every cluster/store/net span
  /// of this request carries, and the join key between a slow-log line and a
  /// DPPR_TRACE file.
  uint64_t trace_id = 0;
  /// Server-unique request id (the `request` arg on serve.* spans).
  uint64_t request_id = 0;
  Outcome outcome = Outcome::kServed;

  /// Source node for single-source queries; kInvalidNode for preference
  /// sets.
  NodeId source = kInvalidNode;
  size_t num_preferences = 0;

  /// Admission to completion, queueing included.
  double latency_seconds = 0.0;
  /// Time spent waiting for a round slot (0 for cache hits / sheds).
  double wait_seconds = 0.0;

  /// The engine's record of the round that answered the request: round id,
  /// routed machines, coordinator traffic (one message per machine that
  /// ran), per-machine and coordinator time, and the store counters the
  /// round's own machine tasks charged. Default (no round) for cache hits
  /// and sheds.
  QueryMetrics metrics;

  /// One JSON object, no trailing newline. Keys are stable — they are the
  /// slow-log schema.
  std::string ToJson() const;
};

/// Bounded, thread-safe record of recent query profiles plus the structured
/// slow-query log. Every completed request is Observe()d: it enters the
/// recent ring, and — when its latency is at or over the slow threshold —
/// the slow ring and the JSONL sink (a file when `path` is set, stderr
/// otherwise).
class ProfileLog {
 public:
  struct Options {
    /// Latency threshold in microseconds; a request at or over it is logged.
    /// < 0 disables slow-query logging entirely (profiles still enter the
    /// recent ring); 0 logs every request. ServeOptions::slow_query_us.
    int64_t slow_threshold_us = -1;
    /// JSONL sink path (appended); empty logs to stderr.
    /// ServeOptions::slow_query_log_path.
    std::string path;
    size_t recent_capacity = 64;
    size_t slow_capacity = 32;
  };

  explicit ProfileLog(Options options);
  ~ProfileLog();
  ProfileLog(const ProfileLog&) = delete;
  ProfileLog& operator=(const ProfileLog&) = delete;

  void Observe(const QueryProfile& profile);

  /// Newest-first copies of the rings; safe to call while serving.
  std::vector<QueryProfile> Recent() const;
  std::vector<QueryProfile> RecentSlow() const;

  const Options& options() const { return options_; }

 private:
  Options options_;
  mutable std::mutex mu_;
  std::deque<QueryProfile> recent_;
  std::deque<QueryProfile> slow_;
  /// Lazily opened append sink; null until the first slow line (or forever,
  /// when path is empty — stderr needs no handle).
  std::FILE* sink_ = nullptr;
  bool sink_failed_ = false;
};

}  // namespace dppr

#endif  // DPPR_SERVE_QUERY_PROFILE_H_
