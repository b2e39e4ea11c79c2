#ifndef DPPR_CORE_ROUTING_H_
#define DPPR_CORE_ROUTING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "dppr/core/placement.h"

namespace dppr {

/// Which machines a query round runs on.
enum class RoutingMode : uint8_t {
  /// Only machines that can contribute to the query's chains (the
  /// routing-table plan below). Answers are bit-identical to broadcast;
  /// comm and machine time shrink to the contributing shards.
  kRoute = 0,
  /// The full plan: every machine runs as its own single owner and ships one
  /// fragment per query, empty when it owns nothing. Used by tests and
  /// benches as the routed plan's bit-equality oracle.
  kBroadcast = 1,
};

struct RoutingOptions {
  RoutingMode mode = RoutingMode::kRoute;
};

/// Query routing over the shared Placement: which machines hold any vector
/// a given source set's fold needs, and which of those owners' blocks are
/// replicated everywhere so their fold can be absorbed onto another
/// contributing machine instead of waking their own. A source u needs, for
/// every subgraph S on its chain, each owner of S's hubs — the owners of
/// ranks 0 .. min(|S.hubs|, n) - 1, since Eq. 7 deals ranks round-robin —
/// and u's own-vector machine. An owner is absorbable for S when block
/// (S, owner) is Replicated; u's own term is absorbable when u is a hub whose
/// block (its final subgraph, its owner) is.
///
/// Under RoutingMode::kBroadcast the router hands out the full plan instead.
///
/// The router holds only the placement, which is immutable and shared, so it
/// stays valid when the engine that built it is moved.
class QueryRouter {
 public:
  explicit QueryRouter(std::shared_ptr<const Placement> placement,
                       RoutingMode mode = RoutingMode::kRoute)
      : placement_(std::move(placement)), mode_(mode) {}

  /// One query's routed round. `machines` is the sorted set of physical
  /// machines to run; `owners[i]` lists, ascending, the logical owner
  /// machines whose fragments machines[i] computes and ships — its own,
  /// plus any fully-replicated owners absorbed onto it. Owner lists are
  /// disjoint and their union is the full contributor set, so the
  /// coordinator can fold fragments in owner order and reproduce the
  /// broadcast reduce bit for bit.
  struct Plan {
    std::vector<size_t> machines;
    std::vector<std::vector<size_t>> owners;
    /// Number of logical contributors (Σ |owners[i]|); n - contributors
    /// machines would have shipped an empty fragment under broadcast.
    size_t contributors = 0;

    bool operator==(const Plan&) const = default;
  };

  /// Routing plan for the nonzero-weight sources of one query. An empty
  /// `sources` (or a source set nothing holds) yields an empty plan: the
  /// round can be skipped outright, which is bit-neutral because skipped
  /// machines only ever contribute empty fragments. Under kBroadcast any
  /// nonempty `sources` yields the full plan (machines = owners = 0..n-1).
  Plan Route(std::span<const NodeId> sources) const;

  RoutingMode mode() const { return mode_; }
  size_t num_machines() const { return placement_->num_machines(); }

 private:
  std::shared_ptr<const Placement> placement_;
  RoutingMode mode_;
};

}  // namespace dppr

#endif  // DPPR_CORE_ROUTING_H_
