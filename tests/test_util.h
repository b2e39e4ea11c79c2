#ifndef DPPR_TESTS_TEST_UTIL_H_
#define DPPR_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dppr/core/dist_precompute.h"
#include "dppr/graph/graph.h"
#include "dppr/graph/graph_builder.h"
#include "dppr/graph/local_graph.h"
#include "dppr/ppr/ppr_options.h"
#include "dppr/ppr/sparse_vector.h"
#include "dppr/store/vector_storage.h"

namespace dppr::testing {

/// The backends of the ctest configuration under test, the only place that
/// reads the two matrix variables CMakeLists.txt sets per configuration.
/// DPPR_TRANSPORT "tcp" selects TCP; unset or "inproc" the in-process
/// default. DPPR_STORE "disk" selects a disk store with a 4,096-byte cache,
/// so most lookups read the spill file; unset or "memory" the in-memory
/// default. Any other value DPPR_CHECK-fails, so a typo cannot silently run
/// the defaults. Library defaults never read the environment: a test passes
/// these wherever it builds a transport or a store.
TransportOptions TransportUnderTest();
StorageOptions StorageUnderTest();

/// DistPrecomputeOptions{} with both backends under test.
DistPrecomputeOptions DistOptionsUnderTest();

/// Sets an environment variable for its own lifetime, then restores the
/// previous value (or unsets the variable if it had none).
class ScopedEnv {
 public:
  ScopedEnv(const std::string& name, const std::string& value);
  ~ScopedEnv();

  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> previous_;
};

/// Small deterministic random digraph for property tests: `num_nodes` nodes,
/// ~`avg_degree` random out-edges each, self-loops added to dangling nodes so
/// all PPR engines agree on semantics.
Graph RandomDigraph(size_t num_nodes, double avg_degree, uint64_t seed,
                    bool self_loop_dangling = true);

/// Deterministic random sparse vector (duplicate indices merged) — the
/// storage test suites' shared payload generator.
SparseVector RandomSparseVector(uint64_t seed, size_t entries);

/// A GraphView adapter over another view that hides the out-edges of blocked
/// nodes (their degree denominator is preserved). Mass entering a blocked
/// node then never leaves — the oracle for selective-expansion semantics.
class BlockedView {
 public:
  BlockedView(const LocalGraph& base, const std::vector<NodeId>& blocked)
      : base_(base), blocked_(base.num_nodes(), 0) {
    for (NodeId b : blocked) blocked_[b] = 1;
  }

  size_t num_nodes() const { return base_.num_nodes(); }
  uint32_t degree_denominator(NodeId u) const {
    return base_.degree_denominator(u);
  }
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    if (blocked_[u]) return {};
    return base_.OutNeighbors(u);
  }

 private:
  const LocalGraph& base_;
  std::vector<uint8_t> blocked_;
};

/// Tight-tolerance options for near-exact comparisons in tests.
inline PprOptions TightPpr() {
  PprOptions options;
  options.tolerance = 1e-9;
  return options;
}

}  // namespace dppr::testing

#endif  // DPPR_TESTS_TEST_UTIL_H_
