#ifndef DPPR_CORE_ROUTING_H_
#define DPPR_CORE_ROUTING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dppr/partition/hierarchy.h"

namespace dppr {

class HgpaIndex;

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

/// Query routing table derived from the shared placement: which machines
/// hold any vector a given source set's fold needs (the source's own-vector
/// machine plus every machine owning hubs on the source's subgraph chain,
/// via own_vector_machine + hubs_on_machine), and which of those owners'
/// vectors are replicated everywhere so their fold can be absorbed onto
/// another contributing machine instead of waking their own.
///
/// Under RoutingMode::kBroadcast the router hands out the full plan instead.
///
/// Self-contained snapshot: construction copies what it needs out of the
/// index (the hierarchy is shared, the tables are small), so a router stays
/// valid when the engine that built it is moved.
class QueryRouter {
 public:
  explicit QueryRouter(const HgpaIndex& index,
                       RoutingMode mode = RoutingMode::kRoute);

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
  };

  /// Routing plan for the nonzero-weight sources of one query. An empty
  /// `sources` (or a source set nothing holds) yields an empty plan: the
  /// round can be skipped outright, which is bit-neutral because skipped
  /// machines only ever contribute empty fragments. Under kBroadcast any
  /// nonempty `sources` yields the full plan (machines = owners = 0..n-1).
  Plan Route(std::span<const NodeId> sources) const;

  RoutingMode mode() const { return mode_; }
  size_t num_machines() const { return num_machines_; }

 private:
  /// One machine owning hubs in a subgraph; `absorbable` when every hub it
  /// owns there is replicated on all machines (its fold for this subgraph
  /// can run anywhere).
  struct SubContributor {
    uint32_t machine;
    uint8_t absorbable;
  };

  std::shared_ptr<const Hierarchy> hierarchy_;
  RoutingMode mode_;
  size_t num_machines_ = 0;
  /// Per subgraph, machine-ascending: machines owning hubs there.
  std::vector<std::vector<SubContributor>> sub_contributors_;
  /// Per node: the own term is readable on every machine (hubs whose
  /// (skeleton, partial) pair is replicated; never true for leaf own
  /// vectors, which are not replicated).
  std::vector<uint8_t> own_term_replicated_;
  std::vector<size_t> own_machine_;
};

}  // namespace dppr

#endif  // DPPR_CORE_ROUTING_H_
