#include "dppr/core/precompute.h"

#include <algorithm>

#include "dppr/common/thread_pool.h"
#include "dppr/common/timer.h"
#include "dppr/graph/local_graph.h"
#include "dppr/ppr/forward_push.h"
#include "dppr/ppr/skeleton.h"

namespace dppr {
namespace {

// Lifts a local-id sparse/dense result into a global-id SparseVector,
// dropping |value| <= prune.
SparseVector LiftToGlobal(const LocalGraph& lg, const SparseVector& local,
                          double prune) {
  std::vector<SparseVector::Entry> entries;
  entries.reserve(local.size());
  for (const auto& e : local.entries()) {
    if (std::abs(e.value) > prune) entries.push_back({lg.ToGlobal(e.index), e.value});
  }
  return SparseVector::FromEntries(std::move(entries));
}

SparseVector LiftDenseToGlobal(const LocalGraph& lg, std::span<const double> dense,
                               double prune) {
  std::vector<SparseVector::Entry> entries;
  for (NodeId local = 0; local < dense.size(); ++local) {
    if (std::abs(dense[local]) > prune) {
      entries.push_back({lg.ToGlobal(local), dense[local]});
    }
  }
  return SparseVector::FromEntries(std::move(entries));
}

// Removes entries at the given sorted global indices. Stored hub partial
// vectors drop all hub coordinates of their subgraph: at query time those
// coordinates are reconstructed exactly from the skeleton values (the
// hub-coordinate replacement rule, see HgpaQueryEngine), so keeping them
// would only waste space and wire bytes.
SparseVector DropIndices(const SparseVector& vec,
                         std::span<const NodeId> sorted_indices) {
  std::vector<SparseVector::Entry> entries;
  entries.reserve(vec.size());
  for (const auto& e : vec.entries()) {
    if (!std::binary_search(sorted_indices.begin(), sorted_indices.end(),
                            e.index)) {
      entries.push_back(e);
    }
  }
  return SparseVector::FromEntries(std::move(entries));
}

}  // namespace

bool PrecomputeNeedsInEdges(const HgpaOptions& options) {
  return options.skeleton_method == SkeletonMethod::kReversePush;
}

std::vector<NodeId> LocalizeHubs(const LocalGraph& lg,
                                 const HierarchySubgraph& sub) {
  std::vector<NodeId> local_hubs(sub.hubs.size());
  for (size_t i = 0; i < sub.hubs.size(); ++i) {
    local_hubs[i] = lg.ToLocal(sub.hubs[i]);
    DPPR_CHECK_NE(local_hubs[i], kInvalidNode);
  }
  return local_hubs;
}

SparseVector ComputeHubPartial(const LocalGraph& lg, const HierarchySubgraph& sub,
                               std::span<const NodeId> local_hubs, NodeId hub,
                               const HgpaOptions& options) {
  DPPR_CHECK_EQ(local_hubs.size(), sub.hubs.size());
  NodeId hub_local = lg.ToLocal(hub);
  DPPR_CHECK_NE(hub_local, kInvalidNode);
  // Push blocked at the subgraph's hub set (tours may start and end at hubs
  // but not cross them).
  ForwardPusher<LocalGraph> pusher(lg);
  ForwardPushResult push =
      pusher.Run(hub_local, local_hubs, options.ppr, /*prune_below=*/0.0);
  return DropIndices(LiftToGlobal(lg, push.reserve, options.storage_prune),
                     sub.hubs);
}

SparseVector ComputeSkeletonColumn(const LocalGraph& lg, NodeId hub,
                                   const HgpaOptions& options) {
  NodeId hub_local = lg.ToLocal(hub);
  DPPR_CHECK_NE(hub_local, kInvalidNode);
  std::vector<double> column =
      options.skeleton_method == SkeletonMethod::kFixedPoint
          ? SkeletonFixedPoint(lg, hub_local, options.ppr)
          : SkeletonReversePush(lg, hub_local, options.ppr);
  return LiftDenseToGlobal(lg, column, options.storage_prune);
}

SparseVector ComputeLeafVector(const LocalGraph& lg, NodeId node,
                               const HgpaOptions& options) {
  NodeId node_local = lg.ToLocal(node);
  DPPR_CHECK_NE(node_local, kInvalidNode);
  ForwardPusher<LocalGraph> pusher(lg);
  ForwardPushResult push =
      pusher.Run(node_local, {}, options.ppr, /*prune_below=*/0.0);
  return LiftToGlobal(lg, push.reserve, options.storage_prune);
}

std::shared_ptr<const HgpaPrecomputation> HgpaPrecomputation::Run(
    const Graph& graph, Hierarchy hierarchy, const HgpaOptions& options) {
  auto result = std::shared_ptr<HgpaPrecomputation>(new HgpaPrecomputation());
  result->graph_ = &graph;
  result->hierarchy_ = std::move(hierarchy);
  result->options_ = options;
  const Hierarchy& h = result->hierarchy_;

  // Deterministic item layout: per subgraph, two items per hub (partial then
  // skeleton); per leaf, one item per node. Computed up front so parallel
  // workers write disjoint slots.
  std::vector<Item>& items = result->items_;
  size_t total_items = 0;
  for (const auto& sub : h.subgraphs()) {
    total_items += 2 * sub.hubs.size();
    if (sub.children.empty()) total_items += sub.nodes.size();
  }
  items.resize(total_items);

  const bool need_in_edges = PrecomputeNeedsInEdges(options);
  ThreadPool& pool = ThreadPool::Default();

  size_t next_slot = 0;
  for (const auto& sub : h.subgraphs()) {
    const bool is_leaf = sub.children.empty();
    if (sub.hubs.empty() && !is_leaf) continue;

    // One induced virtual subgraph shared by all tasks of this subgraph.
    LocalGraph lg = LocalGraph::Induce(graph, sub.nodes, need_in_edges);

    if (!sub.hubs.empty()) {
      const std::vector<NodeId> local_hubs = LocalizeHubs(lg, sub);
      size_t base = next_slot;
      next_slot += 2 * sub.hubs.size();
      auto hub_task = [&](size_t i) {
        NodeId hub_global = sub.hubs[i];

        Item& partial = items[base + 2 * i];
        {
          WallTimer timer;
          partial.vec = ComputeHubPartial(lg, sub, local_hubs, hub_global, options);
          partial.seconds = timer.ElapsedSeconds();
        }
        partial.kind = VectorKind::kHubPartial;
        partial.sub = sub.id;
        partial.node = hub_global;
        partial.bytes = partial.vec.SerializedBytes();

        Item& skeleton = items[base + 2 * i + 1];
        {
          WallTimer timer;
          skeleton.vec = ComputeSkeletonColumn(lg, hub_global, options);
          skeleton.seconds = timer.ElapsedSeconds();
        }
        skeleton.kind = VectorKind::kSkeletonColumn;
        skeleton.sub = sub.id;
        skeleton.node = hub_global;
        skeleton.bytes = skeleton.vec.SerializedBytes();
      };
      pool.ParallelFor(sub.hubs.size(), hub_task);
    }

    if (is_leaf) {
      size_t base = next_slot;
      next_slot += sub.nodes.size();
      auto leaf_task = [&](size_t i) {
        NodeId node_global = sub.nodes[i];
        Item& own = items[base + i];
        WallTimer timer;
        own.vec = ComputeLeafVector(lg, node_global, options);
        own.seconds = timer.ElapsedSeconds();
        own.kind = VectorKind::kOwnVector;
        own.sub = sub.id;
        own.node = node_global;
        own.bytes = own.vec.SerializedBytes();
      };
      pool.ParallelFor(sub.nodes.size(), leaf_task);
    }
  }
  DPPR_CHECK_EQ(next_slot, items.size());

  result->index_.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    result->index_.emplace(MakeVectorKey(item.kind, item.sub, item.node), i);
    result->total_seconds_ += item.seconds;
  }
  return result;
}

std::shared_ptr<const HgpaPrecomputation> HgpaPrecomputation::RunHgpa(
    const Graph& graph, const HgpaOptions& options) {
  return Run(graph, Hierarchy::Build(graph, options.hierarchy), options);
}

std::shared_ptr<const HgpaPrecomputation> HgpaPrecomputation::RunGpa(
    const Graph& graph, uint32_t num_subgraphs, const HgpaOptions& options) {
  Hierarchy flat =
      Hierarchy::BuildFlat(graph, num_subgraphs, options.hierarchy.partition);
  return Run(graph, std::move(flat), options);
}

const HgpaPrecomputation::Item* HgpaPrecomputation::FindItem(VectorKind kind,
                                                             SubgraphId sub,
                                                             NodeId node) const {
  auto it = index_.find(MakeVectorKey(kind, sub, node));
  return it == index_.end() ? nullptr : &items_[it->second];
}

size_t HgpaPrecomputation::TotalBytes() const {
  size_t total = 0;
  for (const Item& item : items_) total += item.bytes;
  return total;
}

std::shared_ptr<const HgpaPrecomputation> HgpaPrecomputation::PrunedCopy(
    double threshold) const {
  auto copy = std::shared_ptr<HgpaPrecomputation>(new HgpaPrecomputation());
  copy->graph_ = graph_;
  copy->hierarchy_ = hierarchy_;
  copy->options_ = options_;
  copy->options_.storage_prune = threshold;
  copy->items_.reserve(items_.size());
  for (const Item& item : items_) {
    Item pruned = item;
    pruned.vec = item.vec.Pruned(threshold);
    pruned.bytes = pruned.vec.SerializedBytes();
    copy->items_.push_back(std::move(pruned));
  }
  copy->index_ = index_;
  copy->total_seconds_ = total_seconds_;
  return copy;
}

}  // namespace dppr
