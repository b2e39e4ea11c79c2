#include "dppr/core/dist_precompute.h"

#include <gtest/gtest.h>

#include "dppr/core/hgpa.h"
#include "dppr/core/skeleton_rows.h"
#include "dppr/graph/datasets.h"
#include "dppr/store/vector_record.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;

HgpaOptions SmallOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 3;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

// Machine that must hold a centralized item under the shared placement plan.
size_t MachineOf(const PlacementPlan& plan, const HgpaPrecomputation::Item& item) {
  return plan.own_machine[item.node];
}

// Asserts the distributed run reproduced the centralized oracle exactly:
// every partial and own vector bit-identical, placed on the planned machine
// and nowhere else; every skeleton row bit-identical to the one
// HgpaIndex::Distribute transposes from the precomputation's columns (which
// skeleton_rows_test checks against the columns themselves); and nothing
// else stored.
void ExpectBitIdentical(std::shared_ptr<const HgpaPrecomputation> pre,
                        const DistributedPrecompute::Result& result) {
  const size_t n = result.num_machines();
  StorageOptions memory;
  memory.backend = StorageBackend::kMemoryRef;
  HgpaIndex oracle = HgpaIndex::Distribute(pre, n, memory);
  size_t expected = 0;
  for (size_t m = 0; m < n; ++m) {
    EXPECT_EQ(result.stores[m].num_vectors(), oracle.store(m).num_vectors())
        << "machine " << m;
    expected += oracle.store(m).num_vectors();
    for (const auto& [sub, hubs] : result.plan.machine_hubs[m]) {
      const SubgraphId block = SkeletonRowBlock(sub, m, n);
      for (NodeId u : result.hierarchy->subgraph(sub).nodes) {
        PpvRef want = oracle.store(m).Find(VectorKind::kSkeletonRow, block, u);
        PpvRef got = result.stores[m].Find(VectorKind::kSkeletonRow, block, u);
        ASSERT_EQ(static_cast<bool>(got), static_cast<bool>(want))
            << "row of node " << u << " in block (" << sub << ", " << m << ")";
        if (want) EXPECT_EQ(*got, *want) << "row of node " << u;
      }
    }
  }
  size_t stored = 0;
  for (const auto& store : result.stores) stored += store.num_vectors();
  ASSERT_EQ(stored, expected);

  for (const auto& item : pre->items()) {
    if (item.kind == VectorKind::kSkeletonColumn) continue;  // stored as rows
    size_t machine = MachineOf(result.plan, item);
    PpvRef got = result.stores[machine].Find(item.kind, item.sub, item.node);
    ASSERT_TRUE(got)
        << "kind " << static_cast<int>(item.kind) << " sub " << item.sub
        << " node " << item.node << " missing from machine " << machine;
    EXPECT_EQ(*got, item.vec) << "vector differs for node " << item.node;
    for (size_t other = 0; other < result.stores.size(); ++other) {
      if (other == machine) continue;
      EXPECT_FALSE(result.stores[other].Find(item.kind, item.sub, item.node))
          << "node " << item.node << " duplicated on machine " << other;
    }
  }
}

TEST(DistPrecompute, HgpaVectorsBitIdenticalToCentralized) {
  Graph g = RandomDigraph(120, 3.0, 7);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 4;
  DistributedPrecompute::Result result = DistributedPrecompute::Run(
      g, pre->hierarchy(), options, dist);  // same hierarchy (copied)
  ExpectBitIdentical(pre, result);
}

TEST(DistPrecompute, GpaFlatHierarchyBitIdenticalToCentralized) {
  Graph g = RandomDigraph(100, 3.0, 21);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunGpa(g, 4, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 3;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
  ExpectBitIdentical(pre, result);
}

TEST(DistPrecompute, SequentialAndParallelClusterModesAgree) {
  Graph g = RandomDigraph(90, 3.0, 33);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  for (bool sequential : {false, true}) {
    DistPrecomputeOptions dist;
    dist.num_machines = 5;
    dist.sequential = sequential;
    DistributedPrecompute::Result result =
        DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
    ExpectBitIdentical(pre, result);
  }
}

TEST(DistPrecompute, StorageLedgersMatchLegacyDistribute) {
  Graph g = RandomDigraph(110, 3.0, 55);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  for (size_t machines : {1u, 3u, 6u}) {
    HgpaIndex legacy = HgpaIndex::Distribute(pre, machines);
    DistPrecomputeOptions dist;
    dist.num_machines = machines;
    DistributedPrecompute::Result result =
        DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
    EXPECT_EQ(result.MaxMachineBytes(), legacy.MaxMachineBytes());
    EXPECT_EQ(result.TotalBytes(), legacy.TotalBytes());
    for (size_t m = 0; m < machines; ++m) {
      EXPECT_EQ(result.stores[m].TotalSerializedBytes(),
                legacy.store(m).TotalSerializedBytes())
          << "machine " << m << " of " << machines;
    }
  }
}

TEST(DistPrecompute, QueriesFromOwnedStoresMatchLegacyEngineExactly) {
  // Same placement + bit-identical vectors + same fold order ⇒ the two
  // engines must agree to the last bit, not just within tolerance.
  Graph g = RandomDigraph(100, 3.0, 90);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 4;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);

  HgpaQueryEngine legacy(HgpaIndex::Distribute(pre, 4));
  HgpaIndex owned_index = HgpaIndex::FromDistributed(std::move(result));
  EXPECT_TRUE(owned_index.owns_vectors());
  HgpaQueryEngine owned(std::move(owned_index));

  for (NodeId q = 0; q < g.num_nodes(); q += 7) {
    QueryMetrics legacy_metrics;
    QueryMetrics owned_metrics;
    SparseVector a = legacy.Query(q, &legacy_metrics);
    SparseVector b = owned.Query(q, &owned_metrics);
    EXPECT_EQ(a, b) << "query " << q;
    EXPECT_EQ(legacy_metrics.comm.messages, owned_metrics.comm.messages);
    EXPECT_EQ(legacy_metrics.comm.bytes, owned_metrics.comm.bytes);
  }
}

TEST(DistPrecompute, GpaQueriesFromOwnedStoresMatchLegacyEngine) {
  Graph g = RandomDigraph(80, 3.0, 11);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunGpa(g, 4, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 3;
  dist.sequential = true;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
  HgpaQueryEngine legacy(HgpaIndex::Distribute(pre, 3));
  HgpaQueryEngine owned(HgpaIndex::FromDistributed(std::move(result)));
  for (NodeId q = 0; q < g.num_nodes(); q += 13) {
    EXPECT_EQ(legacy.Query(q), owned.Query(q)) << "query " << q;
  }
}

size_t HubLevels(const Hierarchy& hierarchy) {
  size_t hub_levels = 0;
  std::vector<bool> seen(hierarchy.num_levels(), false);
  for (const auto& sub : hierarchy.subgraphs()) {
    if (!sub.hubs.empty() && !seen[sub.level]) {
      seen[sub.level] = true;
      ++hub_levels;
    }
  }
  return hub_levels;
}

TEST(DistPrecompute, OfflineStatsCountSuperstepsAndTraffic) {
  Graph g = RandomDigraph(100, 3.0, 64);
  HgpaOptions options = SmallOptions();

  DistPrecomputeOptions dist;
  dist.num_machines = 4;
  DistributedPrecompute::Result locality =
      DistributedPrecompute::RunHgpa(g, options, dist);

  const size_t hub_levels = HubLevels(*locality.hierarchy);
  ASSERT_GT(hub_levels, 0u);

  // The hub supersteps are one exchange round per level, the coordinator
  // link carries only the leaf gather, and no machine ever induces a
  // subgraph it is not home to.
  EXPECT_EQ(locality.offline.rounds, 1 + hub_levels);
  EXPECT_EQ(locality.offline.exchange_rounds, hub_levels);
  EXPECT_EQ(locality.offline.comm.messages, dist.num_machines);
  EXPECT_EQ(locality.offline.shuffled.messages,
            hub_levels * dist.num_machines * (dist.num_machines - 1));

  // Ledger identity against the centralized oracle on the same hierarchy:
  // every record was either gathered (leaf round) or, per level, kept at
  // home or shuffled, so the byte columns partition the wire size of the
  // whole precomputation exactly.
  auto pre = HgpaPrecomputation::Run(g, *locality.hierarchy, options);
  size_t record_bytes = 0;
  for (const auto& item : pre->items()) {
    ByteWriter writer;
    VectorRecord::Serialize(writer, item.kind, item.sub, item.node,
                            item.seconds, item.vec);
    record_bytes += writer.size();
  }
  size_t level_bytes = 0;
  ASSERT_EQ(locality.levels.size(), hub_levels);
  for (const auto& level : locality.levels) {
    level_bytes += level.local_bytes + level.shuffled_bytes;
  }
  EXPECT_EQ(locality.offline.comm.bytes + level_bytes, record_bytes);
  // The stores hold the precomputation's partials and own vectors byte for
  // byte and its columns as rows, exactly the rows Distribute builds.
  StorageOptions memory;
  memory.backend = StorageBackend::kMemoryRef;
  HgpaIndex oracle = HgpaIndex::Distribute(pre, dist.num_machines, memory);
  EXPECT_EQ(locality.TotalBytes(), oracle.TotalBytes());
  size_t partial_own_bytes = 0;
  for (const auto& item : pre->items()) {
    if (item.kind != VectorKind::kSkeletonColumn) partial_own_bytes += item.bytes;
  }
  size_t stored_partial_own = 0;
  for (const auto& store : locality.stores) {
    EXPECT_EQ(store.SerializedBytesByKind(VectorKind::kSkeletonColumn), 0u);
    stored_partial_own += store.SerializedBytesByKind(VectorKind::kHubPartial) +
                          store.SerializedBytesByKind(VectorKind::kOwnVector);
  }
  EXPECT_EQ(stored_partial_own, partial_own_bytes);

  EXPECT_GT(locality.offline.simulated_seconds, 0.0);
  EXPECT_GT(locality.ledger.TotalSeconds(), 0.0);
  EXPECT_EQ(locality.ledger.num_machines(), dist.num_machines);
}

TEST(DistPrecompute, LocalityBitIdenticalToCentralizedInBothSchedulers) {
  Graph g = RandomDigraph(110, 3.0, 19);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  for (bool sequential : {false, true}) {
    DistPrecomputeOptions dist;
    dist.num_machines = 4;
    dist.sequential = sequential;
    DistributedPrecompute::Result locality =
        DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
    ExpectBitIdentical(pre, locality);
  }
}

TEST(DistPrecompute, GpaLocalityModeBitIdenticalToCentralized) {
  Graph g = RandomDigraph(90, 3.0, 47);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunGpa(g, 5, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 3;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
  ExpectBitIdentical(pre, result);
  // GPA's flat hierarchy has one hub level: one leaf gather + one shuffle.
  EXPECT_EQ(result.offline.rounds, 2u);
  EXPECT_EQ(result.offline.exchange_rounds, 1u);
}

TEST(DistPrecompute, HomeMachinePartitionsSubgraphsAndMatchesLeafPacking) {
  Graph g = RandomDigraph(130, 3.0, 3);
  HgpaOptions options = SmallOptions();

  DistPrecomputeOptions dist;
  dist.num_machines = 4;
  DistributedPrecompute::Result result =
      DistributedPrecompute::RunHgpa(g, options, dist);

  const PlacementPlan& plan = result.plan;
  ASSERT_EQ(plan.home_machine.size(), result.hierarchy->num_subgraphs());
  for (size_t home : plan.home_machine) {
    EXPECT_LT(home, dist.num_machines);
  }
  // A leaf's home is the machine its packing put it on — the machine whose
  // nodes it owns.
  for (size_t m = 0; m < dist.num_machines; ++m) {
    for (SubgraphId leaf : plan.machine_leaves[m]) {
      EXPECT_EQ(plan.home_machine[leaf], m) << "leaf " << leaf;
      for (NodeId u : result.hierarchy->subgraph(leaf).nodes) {
        EXPECT_EQ(plan.own_machine[u], m);
      }
    }
  }
}

TEST(DistPrecompute, CommBytesIndependentOfNetworkModel) {
  Graph g = RandomDigraph(80, 3.0, 29);
  HgpaOptions options = SmallOptions();

  DistPrecomputeOptions slow;
  slow.num_machines = 3;
  slow.sequential = true;
  slow.network = NetworkModel::Lan100Mbit();
  DistPrecomputeOptions fast = slow;
  fast.network = NetworkModel::Datacenter();

  DistributedPrecompute::Result a =
      DistributedPrecompute::RunHgpa(g, options, slow);
  DistributedPrecompute::Result b =
      DistributedPrecompute::RunHgpa(g, options, fast);
  EXPECT_EQ(a.offline.comm.bytes, b.offline.comm.bytes);
  EXPECT_EQ(a.offline.comm.messages, b.offline.comm.messages);
  EXPECT_EQ(a.TotalBytes(), b.TotalBytes());
}

TEST(DistPrecompute, SingleMachineClusterHoldsEverything) {
  Graph g = RandomDigraph(60, 3.0, 42);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 1;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
  // One machine holds every partial and own vector, and one row per node
  // with a nonzero skeleton value in each subgraph (one block per subgraph).
  size_t rows = 0;
  size_t non_column_items = 0;
  for (const auto& sub : result.hierarchy->subgraphs()) {
    std::vector<bool> has_row(g.num_nodes(), false);
    for (NodeId hub : sub.hubs) {
      const auto* column = pre->FindItem(VectorKind::kSkeletonColumn, sub.id, hub);
      for (const auto& e : column->vec.entries()) has_row[e.index] = true;
    }
    for (bool b : has_row) rows += b;
  }
  for (const auto& item : pre->items()) {
    non_column_items += item.kind != VectorKind::kSkeletonColumn;
  }
  EXPECT_EQ(result.stores[0].num_vectors(), non_column_items + rows);
  EXPECT_EQ(result.stores[0].num_owned(), non_column_items + rows);
  EXPECT_EQ(result.TotalBytes(),
            HgpaIndex::Distribute(pre, 1).TotalBytes());
}

TEST(DistPrecompute, PreferenceSetQueriesMatchAcrossPaths) {
  Graph g = RandomDigraph(90, 3.0, 77);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  DistPrecomputeOptions dist;
  dist.num_machines = 4;
  DistributedPrecompute::Result result =
      DistributedPrecompute::Run(g, pre->hierarchy(), options, dist);
  HgpaQueryEngine legacy(HgpaIndex::Distribute(pre, 4));
  HgpaQueryEngine owned(HgpaIndex::FromDistributed(std::move(result)));

  std::vector<HgpaQueryEngine::Preference> prefs{{5, 0.5}, {42, 0.3}, {77, 0.2}};
  EXPECT_EQ(legacy.QueryPreferenceSet(prefs), owned.QueryPreferenceSet(prefs));
}

}  // namespace
}  // namespace dppr
