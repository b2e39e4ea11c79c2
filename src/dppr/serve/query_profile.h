#ifndef DPPR_SERVE_QUERY_PROFILE_H_
#define DPPR_SERVE_QUERY_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "dppr/dist/network.h"
#include "dppr/graph/types.h"
#include "dppr/store/vector_storage.h"

namespace dppr {

/// Everything one served request cost, assembled by QueryServer after the
/// request completes. The distributed numbers are copied from the same
/// QueryMetrics / StorageStats the aggregate counters are fed from, so a
/// profile's totals reconcile exactly with the `serve.*` registry deltas over
/// the same window — a profile is an attribution of the ledgers, never a
/// second measurement. Rendered as one JSON object per line (JSONL) in the
/// slow-query log; the field catalog is documented in README.md.
struct QueryProfile {
  /// How the request left the server.
  enum class Outcome : uint8_t {
    /// Answered by a cluster round (possibly shared with a batch).
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
  /// Server-unique request id (the `req` arg on serve.* spans).
  uint64_t request_id = 0;
  Outcome outcome = Outcome::kServed;

  /// Source node for single-source queries; kInvalidNode for preference
  /// sets.
  NodeId source = kInvalidNode;
  size_t num_preferences = 0;

  /// Admission to completion, queueing included.
  double latency_seconds = 0.0;
  /// Time parked in the admission queue before a leader picked the request
  /// up (0 for cache hits / sheds).
  double wait_seconds = 0.0;

  /// The communication round that answered the request. round_id is the
  /// transport round; batch_size is how many requests shared it (their
  /// round-level numbers below are identical — the round ran once).
  uint64_t round_id = 0;
  size_t batch_size = 0;
  /// Machines the round ran on, ascending (the routed union for a batch).
  std::vector<size_t> machines;
  /// Machines this request's own plan targeted (== machines.size() under
  /// broadcast or an unbatched routed query).
  size_t machines_contacted = 0;

  /// This request's own fragment traffic (one message per plan machine).
  /// Σ fragment_comm over a batch == round_comm, bit-for-bit: fragments are
  /// sliced from the round payloads, never re-measured.
  CommStats fragment_comm;
  /// Whole coordinator ingress of the shared round.
  CommStats round_comm;

  /// Measured per-machine compute seconds of the round, full cluster width
  /// (zeros for machines that did not run).
  std::vector<double> machine_seconds;
  double max_machine_seconds = 0.0;
  double coordinator_seconds = 0.0;

  /// Store counters the shared round's own machine tasks charged, summed
  /// across machines: cache hits/misses and spill reads
  /// (QueryMetrics::storage). Round-level (a store lookup cannot be
  /// attributed to one query of a batch), and exact under overlapping
  /// rounds: Σ over distinct rounds == the ServerStats window.
  StorageStats storage;

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
    /// recent ring); 0 logs every request. DPPR_SLOW_QUERY_US.
    int64_t slow_threshold_us = -1;
    /// JSONL sink path (appended); empty logs to stderr. DPPR_SLOW_QUERY_LOG.
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
