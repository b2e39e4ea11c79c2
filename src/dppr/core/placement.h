#ifndef DPPR_CORE_PLACEMENT_H_
#define DPPR_CORE_PLACEMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "dppr/common/macros.h"
#include "dppr/partition/hierarchy.h"

namespace dppr {

/// Where every precomputed vector lives, decided once from the hierarchy
/// alone (placement is independent of the vectors' contents), and the one
/// object every phase asks: both offline paths (HgpaIndex::Distribute over a
/// centralized precomputation, DistributedPrecompute's SimCluster rounds),
/// the row transpose (PutSkeletonRows), hot-shard replication, the query
/// router and the machine fold. Because they all read the same answers, the
/// distributed rebuild reproduces the centralized placement exactly,
/// including the per-(subgraph, owner) hub order skeleton rows index by.
///
///  - hub vectors: each subgraph's hub set is split evenly over machines
///    (Eq. 7), rotated by subgraph id so remainder hubs spread out: the
///    rank-th hub of S is stored on its *owner* (rank + S) mod n;
///  - leaf subgraphs: greedy least-loaded packing by node count, larger
///    leaves first ("distribute the leaf level subgraphs evenly", §4.4);
///  - every subgraph also has a *home*, its compute site under locality
///    placement: a leaf's packing machine (which already holds its data);
///    internal subgraphs span many leaves, so they continue the same
///    least-loaded packing by node count.
///
/// The lookups mirror a graph partitioner's map (node → machine: OwnMachine,
/// Owner) and map2loc (machine → its vectors in order: OwnedHubs, HubsOn,
/// LeavesOn). A (subgraph, owner) pair is a *block*: the owner's partials of
/// the subgraph's hubs plus its skeleton row block, stored under Block's id
/// and replicated whole or not at all. Replicated is the one mutable field,
/// marked while the index is built (HgpaIndex::ReplicateHotShards); the
/// index then shares the placement as shared_ptr<const Placement>.
class Placement {
 public:
  /// Empty (no machines); assign a constructed placement before use.
  Placement() = default;

  /// DPPR_CHECKs num_machines >= 1 and, before anything is allocated, that
  /// every block id fits the vector key's 30-bit subgraph field
  /// (num_subgraphs · num_machines <= 2^30).
  Placement(std::shared_ptr<const Hierarchy> hierarchy, size_t num_machines);

  const Hierarchy& hierarchy() const { return *hierarchy_; }
  size_t num_machines() const { return num_machines_; }

  /// Eq. 7: the machine storing the rank-th hub of `sub` (sub.hubs order).
  size_t Owner(SubgraphId sub, size_t rank) const {
    return (rank + sub) % num_machines_;
  }

  /// The hubs of `sub` that `owner` stores, in rank order: entry i of a row
  /// in block (sub, owner) names OwnedHubs(sub, owner)[i]. Empty when the
  /// owner holds none of them.
  std::span<const NodeId> OwnedHubs(SubgraphId sub, size_t owner) const {
    DPPR_CHECK_LT(owner, num_machines_);
    auto it = hubs_on_[owner].find(sub);
    if (it == hubs_on_[owner].end()) return {};
    return it->second;
  }

  /// Every hub machine `m` owns, grouped by subgraph, each group in rank
  /// order (OwnedHubs(sub, m) for every sub it holds hubs of).
  const std::unordered_map<SubgraphId, std::vector<NodeId>>& HubsOn(
      size_t m) const {
    return hubs_on_[m];
  }

  /// Machine holding u's own vector: the leaf local PPV for non-hubs, the
  /// hub partial (at its Eq. 7 owner) for hubs.
  size_t OwnMachine(NodeId u) const { return own_machine_[u]; }

  /// Compute site of `sub` under locality placement.
  size_t Home(SubgraphId sub) const { return home_[sub]; }

  /// Leaf subgraphs packed onto machine `m`, in assignment order.
  const std::vector<SubgraphId>& LeavesOn(size_t m) const {
    return leaves_on_[m];
  }

  /// Id of block (sub, owner), sub · n + owner: the subgraph field of the
  /// keys its rows are stored under. The key names the owner as well as the
  /// subgraph because replication can put several owners' blocks of one
  /// subgraph on one machine. Ids are dense over [0, num_subgraphs · n).
  /// DPPR_CHECKs owner < n and sub < num_subgraphs.
  SubgraphId Block(SubgraphId sub, size_t owner) const {
    DPPR_CHECK_LT(owner, num_machines_);
    DPPR_CHECK_LT(sub, hierarchy_->num_subgraphs());
    return static_cast<SubgraphId>(sub * num_machines_ + owner);
  }

  /// True when block (sub, owner) is copied into every machine's store, so
  /// its fold can run on any machine.
  bool Replicated(SubgraphId sub, size_t owner) const {
    return replicated_[Block(sub, owner)] != 0;
  }
  /// Marks block (sub, owner) replicated (once).
  void MarkReplicated(SubgraphId sub, size_t owner);
  /// Hubs in replicated blocks.
  size_t num_replicated_hubs() const { return num_replicated_hubs_; }

 private:
  std::shared_ptr<const Hierarchy> hierarchy_;
  size_t num_machines_ = 0;
  std::vector<std::unordered_map<SubgraphId, std::vector<NodeId>>> hubs_on_;
  std::vector<std::vector<SubgraphId>> leaves_on_;
  std::vector<size_t> own_machine_;
  std::vector<size_t> home_;
  /// One byte per block, indexed by Block(sub, owner).
  std::vector<uint8_t> replicated_;
  size_t num_replicated_hubs_ = 0;
};

}  // namespace dppr

#endif  // DPPR_CORE_PLACEMENT_H_
