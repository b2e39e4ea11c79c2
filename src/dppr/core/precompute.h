#ifndef DPPR_CORE_PRECOMPUTE_H_
#define DPPR_CORE_PRECOMPUTE_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "dppr/graph/graph.h"
#include "dppr/graph/local_graph.h"
#include "dppr/partition/hierarchy.h"
#include "dppr/ppr/ppr_options.h"
#include "dppr/store/vector_record.h"

namespace dppr {

/// How skeleton columns are computed (§5.2).
enum class SkeletonMethod {
  /// Reverse local push from the hub — output-equivalent to Eq. 8 within the
  /// tolerance but touches only nodes that actually reach the hub. Default;
  /// the ablation bench quantifies the speedup.
  kReversePush,
  /// The paper's Eq. 8 per-hub fixed point (Theorem 6).
  kFixedPoint,
};

struct HgpaOptions {
  PprOptions ppr;
  HierarchyOptions hierarchy;
  SkeletonMethod skeleton_method = SkeletonMethod::kReversePush;
  /// Stored entries with |value| <= storage_prune are dropped (HGPA_ad uses
  /// 1e-4, §6.2.9). 0 keeps every non-zero entry.
  double storage_prune = 0.0;
};

/// Whether LocalGraph::Induce must materialize in-adjacency for the
/// configured skeleton method.
bool PrecomputeNeedsInEdges(const HgpaOptions& options);

/// Per-vector compute kernels, shared verbatim by the centralized
/// HgpaPrecomputation::Run loop and the distributed SimCluster driver
/// (DistributedPrecompute) — both paths calling the same deterministic code
/// is what makes their outputs bit-identical. `lg` must be the virtual
/// subgraph induced on the owning subgraph's `nodes` (with in-edges for
/// ComputeSkeletonColumn under kReversePush); node arguments are global ids.

/// `sub`'s hub set mapped into `lg`'s local id space, in `sub.hubs` order.
/// Hoisted out of ComputeHubPartial so drivers localize once per subgraph,
/// not once per hub.
std::vector<NodeId> LocalizeHubs(const LocalGraph& lg,
                                 const HierarchySubgraph& sub);

/// p^H_hub[S]: forward push blocked at `sub`'s hub set (`local_hubs` =
/// LocalizeHubs(lg, sub)), lifted to global ids, with all hub coordinates
/// dropped (reconstructed from skeleton values at query time).
SparseVector ComputeHubPartial(const LocalGraph& lg, const HierarchySubgraph& sub,
                               std::span<const NodeId> local_hubs, NodeId hub,
                               const HgpaOptions& options);

/// Skeleton column s_.[S](hub) via the configured method.
SparseVector ComputeSkeletonColumn(const LocalGraph& lg, NodeId hub,
                                   const HgpaOptions& options);

/// Leaf local PPV r_node[leaf] (unblocked push on the leaf's virtual subgraph).
SparseVector ComputeLeafVector(const LocalGraph& lg, NodeId node,
                               const HgpaOptions& options);

/// Placement-independent precomputation: all partial vectors, skeleton
/// columns and leaf vectors of a hierarchy, with per-vector compute time and
/// serialized size. The same precomputation can be distributed onto any
/// machine count (placement does not change the vectors), which is how the
/// machine-sweep experiments avoid recomputing.
class HgpaPrecomputation {
 public:
  struct Item {
    VectorKind kind;
    SubgraphId sub = kInvalidSubgraph;
    NodeId node = kInvalidNode;  // hub id for partial/skeleton, owner for own
    SparseVector vec;            // entries indexed by *global* node id
    double seconds = 0.0;        // compute time of this vector
    size_t bytes = 0;            // serialized size
  };

  /// Runs the full precomputation for `hierarchy` over `graph`.
  /// The graph must outlive the returned object.
  static std::shared_ptr<const HgpaPrecomputation> Run(const Graph& graph,
                                                       Hierarchy hierarchy,
                                                       const HgpaOptions& options);

  /// HGPA over a fresh hierarchy built with options.hierarchy.
  static std::shared_ptr<const HgpaPrecomputation> RunHgpa(
      const Graph& graph, const HgpaOptions& options);

  /// GPA: a flat one-level partition into `num_subgraphs` parts (§3). The
  /// same query machinery then implements Eq. 5 exactly.
  static std::shared_ptr<const HgpaPrecomputation> RunGpa(
      const Graph& graph, uint32_t num_subgraphs, const HgpaOptions& options);

  const Graph& graph() const { return *graph_; }
  const Hierarchy& hierarchy() const { return hierarchy_; }
  const HgpaOptions& options() const { return options_; }
  const std::vector<Item>& items() const { return items_; }

  const Item* FindItem(VectorKind kind, SubgraphId sub, NodeId node) const;

  /// Sum of per-item compute seconds (single-machine offline cost).
  double total_seconds() const { return total_seconds_; }
  size_t TotalBytes() const;

  /// Copy with every stored vector pruned at `threshold` (HGPA_ad). Compute
  /// times are inherited: pruning is a storage-time filter, not a recompute.
  std::shared_ptr<const HgpaPrecomputation> PrunedCopy(double threshold) const;

 private:
  HgpaPrecomputation() = default;

  const Graph* graph_ = nullptr;
  Hierarchy hierarchy_;
  HgpaOptions options_;
  std::vector<Item> items_;
  std::unordered_map<uint64_t, size_t> index_;
  double total_seconds_ = 0.0;
};

}  // namespace dppr

#endif  // DPPR_CORE_PRECOMPUTE_H_
