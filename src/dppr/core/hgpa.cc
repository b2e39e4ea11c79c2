#include "dppr/core/hgpa.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "dppr/common/serialize.h"
#include "dppr/common/timer.h"
#include "dppr/core/skeleton_rows.h"
#include "dppr/ppr/sparse_vector.h"

namespace dppr {

HgpaIndex HgpaIndex::Distribute(
    std::shared_ptr<const HgpaPrecomputation> precomputation,
    size_t num_machines, const StorageOptions& storage,
    const ReplicationOptions& replication) {
  DPPR_CHECK(precomputation != nullptr);
  const HgpaPrecomputation& pre = *precomputation;

  HgpaIndex index;
  index.graph_ = &pre.graph();
  index.options_ = pre.options();
  Placement placement(std::make_shared<const Hierarchy>(pre.hierarchy()),
                      num_machines);
  const Hierarchy& hierarchy = placement.hierarchy();
  index.stores_ = MakeMachineStores(storage, num_machines);
  index.offline_ = MachineTimeLedger(num_machines);

  auto find = [&](VectorKind kind, SubgraphId sub,
                  NodeId node) -> const HgpaPrecomputation::Item& {
    const HgpaPrecomputation::Item* item = pre.FindItem(kind, sub, node);
    DPPR_CHECK(item != nullptr);
    return *item;
  };
  auto place = [&](VectorKind kind, SubgraphId sub, NodeId node, size_t machine) {
    const HgpaPrecomputation::Item& item = find(kind, sub, node);
    index.stores_[machine].PutOwned(kind, sub, node, item.vec, item.bytes);
    index.offline_.Add(machine, item.seconds);
  };

  // Walk the hierarchy in subgraph order (not the placement's hash-map
  // order) so the ledger's floating-point sums are deterministic across
  // runs. Each owner's skeleton columns are charged to it and stored
  // transposed, one (subgraph, owner) block at a time, from the wire bytes
  // the offline path would ship.
  for (const auto& sub : hierarchy.subgraphs()) {
    for (NodeId hub : sub.hubs) {
      const size_t machine = placement.OwnMachine(hub);
      place(VectorKind::kHubPartial, sub.id, hub, machine);
      index.offline_.Add(
          machine, find(VectorKind::kSkeletonColumn, sub.id, hub).seconds);
    }
    for (size_t m = 0; m < num_machines; ++m) {
      const std::span<const NodeId> hubs = placement.OwnedHubs(sub.id, m);
      if (hubs.empty()) continue;
      std::vector<std::vector<uint8_t>> wire;
      for (NodeId hub : hubs) {
        ByteWriter writer;
        find(VectorKind::kSkeletonColumn, sub.id, hub).vec.SerializeTo(writer);
        wire.push_back(writer.Release());
      }
      const std::vector<std::span<const uint8_t>> columns(wire.begin(),
                                                          wire.end());
      PutSkeletonRows(placement, sub.id, m, columns, index.stores_[m]);
    }
  }
  for (SubgraphId leaf : hierarchy.leaves()) {
    for (NodeId u : hierarchy.subgraph(leaf).nodes) {
      place(VectorKind::kOwnVector, leaf, u, placement.OwnMachine(u));
    }
  }

  index.ReplicateHotShards(placement, replication);
  index.placement_ = std::make_shared<const Placement>(std::move(placement));
  return index;
}

HgpaIndex HgpaIndex::FromDistributed(DistributedPrecompute::Result result,
                                     const ReplicationOptions& replication) {
  DPPR_CHECK(result.graph != nullptr);
  DPPR_CHECK_GE(result.stores.size(), 1u);
  DPPR_CHECK_EQ(result.stores.size(), result.placement.num_machines());

  HgpaIndex index;
  index.graph_ = result.graph;
  index.options_ = result.options;
  index.stores_ = std::move(result.stores);
  index.offline_ = std::move(result.ledger);
  index.ReplicateHotShards(result.placement, replication);
  index.placement_ =
      std::make_shared<const Placement>(std::move(result.placement));
  return index;
}

void HgpaIndex::ReplicateHotShards(Placement& placement,
                                   const ReplicationOptions& replication) {
  const size_t num_machines = stores_.size();
  if (replication.budget_bytes == 0 || num_machines <= 1) return;
  // Routing can only skip (or absorb) an owner for a chain subgraph when its
  // whole block is readable everywhere, so replication packs whole
  // (subgraph, owner) blocks: the owner's hub partials plus its row block.
  // Heat proxy: a subgraph's reach — the nodes whose query chain passes
  // through it is exactly its node set, so high-level blocks that sit on
  // every chain score highest — divided by the block's bytes (most fan-out
  // reduction per replicated byte).
  struct Block {
    double score;
    SubgraphId sub;
    uint32_t owner;
    size_t bytes;
  };
  const Hierarchy& hierarchy = placement.hierarchy();
  // Calls `fn(kind, key_sub, node, vec)` for every vector of block
  // (sub, owner) in `owner`'s store.
  auto for_each_in_block = [&](SubgraphId sub, size_t owner, auto&& fn) {
    for (NodeId hub : placement.OwnedHubs(sub, owner)) {
      PpvRef partial = stores_[owner].Find(VectorKind::kHubPartial, sub, hub);
      DPPR_CHECK(partial);
      fn(VectorKind::kHubPartial, sub, hub, *partial);
    }
    const SubgraphId block = placement.Block(sub, owner);
    for (NodeId u : hierarchy.subgraph(sub).nodes) {
      if (PpvRef row = stores_[owner].Find(VectorKind::kSkeletonRow, block, u)) {
        fn(VectorKind::kSkeletonRow, block, u, *row);
      }
    }
  };
  std::vector<Block> blocks;
  for (size_t m = 0; m < num_machines; ++m) {
    for (const auto& [sub, hubs] : placement.HubsOn(m)) {
      size_t bytes = 0;
      for_each_in_block(sub, m,
                        [&](VectorKind, SubgraphId, NodeId,
                            const SparseVector& vec) {
                          bytes += vec.SerializedBytes();
                        });
      const double reach =
          static_cast<double>(hierarchy.subgraph(sub).nodes.size());
      blocks.push_back({reach / static_cast<double>(bytes), sub,
                        static_cast<uint32_t>(m), bytes});
    }
  }
  // (sub, owner) is unique, so the order is total and every machine
  // replicates the same set regardless of hash-map iteration order.
  std::sort(blocks.begin(), blocks.end(), [](const Block& a, const Block& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.sub != b.sub) return a.sub < b.sub;
    return a.owner < b.owner;
  });
  for (const Block& b : blocks) {
    // Blocks are replicated whole or not at all; an oversized block is
    // skipped and packing continues with the smaller ones behind it.
    if (replica_bytes_ + b.bytes > replication.budget_bytes) continue;
    for_each_in_block(b.sub, b.owner,
                      [&](VectorKind kind, SubgraphId key_sub, NodeId node,
                          const SparseVector& vec) {
                        const size_t bytes = vec.SerializedBytes();
                        for (size_t m = 0; m < num_machines; ++m) {
                          if (m == b.owner) continue;
                          stores_[m].PutOwned(kind, key_sub, node, vec, bytes);
                        }
                      });
    placement.MarkReplicated(b.sub, b.owner);
    replica_bytes_ += b.bytes;
  }
}

size_t HgpaIndex::MaxMachineBytes() const {
  size_t max = 0;
  for (const auto& store : stores_) max = std::max(max, store.TotalSerializedBytes());
  return max;
}

size_t HgpaIndex::TotalBytes() const {
  size_t total = 0;
  for (const auto& store : stores_) total += store.TotalSerializedBytes();
  return total;
}

std::vector<size_t> HgpaIndex::BytesPerMachine() const {
  std::vector<size_t> bytes;
  bytes.reserve(stores_.size());
  for (const auto& store : stores_) bytes.push_back(store.TotalSerializedBytes());
  return bytes;
}

size_t HgpaIndex::ResidentBytesTotal() const {
  size_t total = 0;
  for (const auto& store : stores_) total += store.ResidentBytes();
  return total;
}

HgpaQueryEngine::HgpaQueryEngine(HgpaIndex index, NetworkModel network,
                                 TransportOptions transport,
                                 RoutingOptions routing)
    : index_(std::move(index)),
      cluster_(index_.num_machines(), network, /*sequential=*/false, transport),
      router_(std::make_shared<const QueryRouter>(index_.placement(),
                                                  routing.mode)) {}

std::vector<uint8_t> HgpaQueryEngine::MachineTask(
    size_t machine, std::span<const Preference> preferences,
    std::span<const size_t> owners) const {
  DenseAccumulator acc(index_.hierarchy().num_nodes());
  ByteWriter writer;
  // One fragment per covered owner, each folded with the exact loop the
  // owner itself would run — absorbed owners differ only in which store the
  // (replicated) vectors are read from, never in fold order.
  for (size_t owner : owners) {
    AccumulateOwner(machine, owner, preferences, acc);
    acc.ToSparse().SerializeTo(writer);
    acc.Clear();
  }
  return writer.Release();
}

void HgpaQueryEngine::AccumulateOwner(size_t machine, size_t owner,
                                      std::span<const Preference> preferences,
                                      DenseAccumulator& acc) const {
  const Placement& placement = *index_.placement();
  const Hierarchy& hierarchy = placement.hierarchy();
  const PpvStore& store = index_.store(machine);
  const double alpha = index_.options().ppr.alpha;

  for (const Preference& pref : preferences) {
    NodeId query = pref.node;
    double query_weight = pref.weight;
    if (query_weight == 0.0) continue;

    // Eq. 7 inner sums: for every subgraph on the query chain, fold this
    // machine's share of its hubs (Algorithm 1 lines 2-5). Stored hub partial
    // vectors carry no hub coordinates; instead each hub coordinate h of level
    // m receives the *replacement* value s_u[S_m](h) directly — by the
    // decomposition, r_u(h) = Σ_{j<m} hubsum_j(h) + s_u[S_m](h), and the
    // deeper levels never touch coordinate h again.
    for (SubgraphId sub : hierarchy.Chain(query)) {
      const std::span<const NodeId> hubs = placement.OwnedHubs(sub, owner);
      if (hubs.empty()) continue;
      // The query's row of block (sub, owner) lists its nonzero skeleton
      // values by hub rank, so walking it visits exactly the hubs with
      // s != 0, in hub order. The pin keeps the row resident while it is
      // walked; under the disk backend the cache may evict it any time.
      PpvRef row = store.Find(VectorKind::kSkeletonRow,
                              placement.Block(sub, owner), query);
      if (!row || row->empty()) continue;
      // Rows come off disk: a rank past the block's hubs must not index
      // out of bounds.
      DPPR_CHECK_LT(row->entries().back().index, hubs.size());
      for (const SparseVector::Entry& entry : row->entries()) {
        const NodeId hub = hubs[entry.index];
        double s = entry.value;
        if (s == 0.0) continue;
        // Hub-coordinate replacement: coordinate h gets its exact local PPV
        // value at this level.
        acc.Add(hub, query_weight * s);
        // Adjusted skeleton weight S_u(h) = s_u(h) - α·f_u(h) scales the
        // hub's partial vector over the non-hub coordinates.
        if (query == hub) s -= alpha;
        if (s == 0.0) continue;
        PpvRef partial = store.Find(VectorKind::kHubPartial, sub, hub);
        DPPR_DCHECK(partial);
        acc.AddVector(*partial, query_weight * s / alpha);
      }
    }

    // Own term (Algorithm 1 lines 6-8): leaf local PPV for non-hubs, the
    // unadjusted partial vector for hubs.
    if (placement.OwnMachine(query) == owner) {
      SubgraphId final_sub = hierarchy.final_subgraph(query);
      VectorKind kind = hierarchy.is_hub(query) ? VectorKind::kHubPartial
                                                : VectorKind::kOwnVector;
      PpvRef own = store.Find(kind, final_sub, query);
      DPPR_DCHECK(own);
      acc.AddVector(*own, query_weight);
    }
  }
}

SparseVector HgpaQueryEngine::RunDistributed(
    std::span<const Preference> preferences, QueryMetrics* metrics) const {
  // Route over the nonzero-weight sources.
  std::vector<NodeId> sources;
  for (const Preference& pref : preferences) {
    if (pref.weight != 0.0) sources.push_back(pref.node);
  }
  const QueryRouter::Plan plan = router_->Route(sources);
  if (metrics != nullptr) {
    *metrics = QueryMetrics{};
    metrics->machines = plan.machines;
    metrics->machines_contacted = plan.machines.size();
  }
  if (plan.machines.empty()) return SparseVector();

  // One sink per machine task: tasks run concurrently, and the sinks are
  // plain counters.
  std::vector<StorageStats> machine_storage(index_.num_machines());
  SimCluster::RoundResult round =
      cluster_.RunRoundOn(plan.machines, [&](size_t machine) {
        StorageStatsScope storage_scope(&machine_storage[machine]);
        const size_t slot = static_cast<size_t>(
            std::lower_bound(plan.machines.begin(), plan.machines.end(),
                             machine) -
            plan.machines.begin());
        return MachineTask(machine, preferences, plan.owners[slot]);
      });

  WallTimer coordinator_timer;
  // Each payload holds its machine's owner fragments in plan order; file
  // them by owner. Owners the plan skipped stay empty and add nothing.
  std::vector<SparseVector> fragments(index_.num_machines());
  for (size_t i = 0; i < plan.machines.size(); ++i) {
    const auto& payload = round.payloads[plan.machines[i]];
    ByteReader reader(payload.data(), payload.size());
    for (size_t owner : plan.owners[i]) {
      fragments[owner] = SparseVector::Deserialize(reader);
    }
    DPPR_CHECK(reader.AtEnd());
  }
  // Reduce in OWNER order — the full plan's machine order. Which physical
  // machine computed a fragment never reorders the floating-point fold, so
  // results stay bit-identical to the full plan.
  DenseAccumulator acc(index_.graph().num_nodes());
  for (const SparseVector& fragment : fragments) acc.AddVector(fragment, 1.0);
  SparseVector result = acc.ToSparse();
  round.metrics.coordinator_seconds = coordinator_timer.ElapsedSeconds();

  if (metrics != nullptr) {
    metrics->max_machine_seconds = round.metrics.MaxMachineSeconds();
    metrics->coordinator_seconds = round.metrics.coordinator_seconds;
    metrics->simulated_seconds =
        round.metrics.SimulatedSeconds(cluster_.network());
    metrics->comm = round.metrics.Traffic();
    metrics->round_id = round.round_id;
    metrics->machine_seconds = std::move(round.metrics.machine_seconds);
    for (const StorageStats& storage : machine_storage) {
      metrics->storage += storage;
    }
  }
  return result;
}

SparseVector HgpaQueryEngine::Query(NodeId query, QueryMetrics* metrics) const {
  DPPR_CHECK_LT(query, index_.graph().num_nodes());
  const Preference single{query, 1.0};
  return RunDistributed({&single, 1}, metrics);
}

SparseVector HgpaQueryEngine::QueryPreferenceSet(
    std::span<const Preference> preferences, QueryMetrics* metrics) const {
  for (const Preference& p : preferences) {
    DPPR_CHECK_LT(p.node, index_.graph().num_nodes());
  }
  return RunDistributed(preferences, metrics);
}

std::vector<double> HgpaQueryEngine::QueryDense(NodeId query,
                                                QueryMetrics* metrics) const {
  SparseVector sparse = Query(query, metrics);
  std::vector<double> dense(index_.graph().num_nodes(), 0.0);
  sparse.AddScaledTo(dense, 1.0);
  return dense;
}

}  // namespace dppr
