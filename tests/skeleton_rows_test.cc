// Skeleton rows, the serving stores' skeleton layout: every (subgraph, owner)
// block's rows hold exactly its columns' nonzeros on both offline paths,
// with and without replication; a disk-backed query reads exactly the
// records its fold needs; and a row whose rank runs past its block dies in
// the fold.

#include "dppr/core/skeleton_rows.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dppr/core/dist_precompute.h"
#include "dppr/core/hgpa.h"
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

// Checks every block of `index` against the precomputation's columns: on
// each machine holding the block (its owner, and every machine once it is
// replicated), node u's row is exactly u's entries of the block's columns,
// entry i from the owner's i-th hub; no other machine holds a row of it. A
// final count shows no machine stores anything the walk did not visit.
void ExpectRowsMatchColumns(const HgpaPrecomputation& pre,
                            const HgpaIndex& index) {
  const Hierarchy& h = index.hierarchy();
  const size_t n = index.num_machines();
  std::vector<size_t> visited(n, 0);
  for (size_t owner = 0; owner < n; ++owner) {
    for (const auto& [sub, hubs] : index.hubs_on_machine(owner)) {
      // The oracle: the block's columns regrouped by node.
      std::map<NodeId, std::vector<SparseVector::Entry>> expected;
      for (size_t rank = 0; rank < hubs.size(); ++rank) {
        const auto* column =
            pre.FindItem(VectorKind::kSkeletonColumn, sub, hubs[rank]);
        ASSERT_NE(column, nullptr);
        for (const SparseVector::Entry& e : column->vec.entries()) {
          expected[e.index].push_back({static_cast<NodeId>(rank), e.value});
        }
      }
      const bool replicated = index.hub_replicated(sub, hubs.front());
      const SubgraphId block = SkeletonRowBlock(sub, owner, n);
      for (size_t m = 0; m < n; ++m) {
        const bool holds = m == owner || replicated;
        size_t rows = 0;
        for (NodeId u : h.subgraph(sub).nodes) {
          PpvRef row = index.store(m).Find(VectorKind::kSkeletonRow, block, u);
          auto it = expected.find(u);
          if (!holds || it == expected.end()) {
            EXPECT_FALSE(row) << "stray row of node " << u << " in block ("
                              << sub << ", " << owner << ") on machine " << m;
            continue;
          }
          ASSERT_TRUE(row) << "missing row of node " << u << " in block ("
                           << sub << ", " << owner << ") on machine " << m;
          EXPECT_EQ(*row, SparseVector::FromSortedUnique(it->second))
              << "row of node " << u << " in block (" << sub << ", " << owner
              << ") on machine " << m;
          ++rows;
        }
        // Every column nonzero sits at a node of the subgraph, so the walk
        // above met each of them in exactly one row.
        if (holds) EXPECT_EQ(rows, expected.size());
        visited[m] += rows;
      }
    }
  }
  for (size_t m = 0; m < n; ++m) {
    const PpvStore& store = index.store(m);
    for (const auto& sub : h.subgraphs()) {
      for (NodeId hub : sub.hubs) {
        visited[m] += store.Find(VectorKind::kHubPartial, sub.id, hub) ? 1 : 0;
      }
    }
    for (SubgraphId leaf : h.leaves()) {
      for (NodeId u : h.subgraph(leaf).nodes) {
        visited[m] += store.Find(VectorKind::kOwnVector, leaf, u) ? 1 : 0;
      }
    }
    EXPECT_EQ(store.num_vectors(), visited[m]) << "machine " << m;
  }
}

// A budget that replicates some blocks but not all of them.
ReplicationOptions SomeReplication(const HgpaIndex& unreplicated) {
  return ReplicationOptions{unreplicated.MaxMachineBytes() / 3};
}

TEST(SkeletonRows, DistributeStoresExactlyTheColumnsNonzeros) {
  Graph g = RandomDigraph(120, 3.0, 41);
  auto pre = HgpaPrecomputation::RunHgpa(g, SmallOptions());
  for (size_t machines : {1u, 2u, 5u}) {
    HgpaIndex plain = HgpaIndex::Distribute(pre, machines,
                                            StorageOptions::FromEnv(),
                                            ReplicationOptions{});
    ExpectRowsMatchColumns(*pre, plain);
    HgpaIndex replicated = HgpaIndex::Distribute(
        pre, machines, StorageOptions::FromEnv(), SomeReplication(plain));
    if (machines > 1) EXPECT_GT(replicated.num_replicated_hubs(), 0u);
    ExpectRowsMatchColumns(*pre, replicated);
  }
}

TEST(SkeletonRows, DistributedPrecomputeStoresExactlyTheColumnsNonzeros) {
  Graph g = RandomDigraph(120, 3.0, 43);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);
  for (size_t machines : {1u, 2u, 5u}) {
    DistPrecomputeOptions dist;
    dist.num_machines = machines;
    HgpaIndex plain = HgpaIndex::FromDistributed(
        DistributedPrecompute::Run(g, pre->hierarchy(), options, dist),
        ReplicationOptions{});
    ExpectRowsMatchColumns(*pre, plain);
    HgpaIndex replicated = HgpaIndex::FromDistributed(
        DistributedPrecompute::Run(g, pre->hierarchy(), options, dist),
        SomeReplication(plain));
    if (machines > 1) EXPECT_GT(replicated.num_replicated_hubs(), 0u);
    ExpectRowsMatchColumns(*pre, replicated);
  }
}

TEST(SkeletonRows, BlockIdNamesSubgraphAndOwner) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EQ(SkeletonRowBlock(0, 0, 1), 0u);
  EXPECT_EQ(SkeletonRowBlock(7, 2, 5), 37u);
  EXPECT_NE(SkeletonRowBlock(7, 2, 5), SkeletonRowBlock(7, 3, 5));
  // Past the key's 30-bit subgraph field, and an owner outside the cluster.
  EXPECT_DEATH(SkeletonRowBlock(1u << 28, 0, 4), "DPPR_CHECK failed");
  EXPECT_DEATH(SkeletonRowBlock(1, 4, 4), "DPPR_CHECK failed");
}

// Spill extent of a vector a store put with Put/PutOwned: its whole record.
uint64_t RecordBytes(VectorKind kind, SubgraphId sub, NodeId node,
                     const SparseVector& vec) {
  ByteWriter writer;
  VectorRecord::Serialize(writer, kind, sub, node, /*seconds=*/0.0, vec);
  return writer.size();
}

TEST(SkeletonRowsDisk, QueryReadsExactlyTheRecordsItsFoldNeeds) {
  // With a cache of about one record and a cold store, every record the
  // fold reads is one pread of its extent. The fold needs, per owner: the
  // query's row of each chain block, the partial of every hub the row
  // names, and the own vector.
  Graph g = RandomDigraph(150, 3.0, 5);
  auto pre = HgpaPrecomputation::RunHgpa(g, SmallOptions());
  constexpr size_t kMachines = 3;
  StorageOptions memory;
  memory.backend = StorageBackend::kMemoryRef;
  HgpaIndex reference = HgpaIndex::Distribute(pre, kMachines, memory);
  StorageOptions disk;
  disk.backend = StorageBackend::kDisk;
  disk.cache_bytes = 4096;
  HgpaIndex spilled = HgpaIndex::Distribute(pre, kMachines, disk);
  const Hierarchy& h = reference.hierarchy();

  size_t checked = 0;
  for (NodeId q = 0; q < g.num_nodes(); q += 3) {
    // A hub's own term is its partial, which its own chain block may name
    // too: a second read that a warm cache could serve.
    if (h.is_hub(q)) continue;
    uint64_t expected = 0;
    for (size_t owner = 0; owner < kMachines; ++owner) {
      const PpvStore& store = reference.store(owner);
      for (SubgraphId sub : h.Chain(q)) {
        auto it = reference.hubs_on_machine(owner).find(sub);
        if (it == reference.hubs_on_machine(owner).end()) continue;
        const SubgraphId block = SkeletonRowBlock(sub, owner, kMachines);
        PpvRef row = store.Find(VectorKind::kSkeletonRow, block, q);
        if (!row) continue;
        expected += RecordBytes(VectorKind::kSkeletonRow, block, q, *row);
        for (const SparseVector::Entry& e : row->entries()) {
          if (e.value == 0.0) continue;
          const NodeId hub = it->second[e.index];
          expected += RecordBytes(VectorKind::kHubPartial, sub, hub,
                                  *store.Find(VectorKind::kHubPartial, sub, hub));
        }
      }
      if (reference.own_vector_machine(q) == owner) {
        const SubgraphId leaf = h.final_subgraph(q);
        expected += RecordBytes(VectorKind::kOwnVector, leaf, q,
                                *store.Find(VectorKind::kOwnVector, leaf, q));
      }
    }
    HgpaQueryEngine engine(spilled);  // the copy starts with cold caches
    QueryMetrics metrics;
    (void)engine.Query(q, &metrics);
    EXPECT_EQ(metrics.storage.disk_bytes_read, expected) << "query " << q;
    ++checked;
  }
  EXPECT_GT(checked, 10u);
}

std::string TempPath(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  return dir + "/dppr_skeleton_rows_test_" + name + ".spill";
}

TEST(SkeletonRowsDeath, TamperedRowRankDiesInTheFold) {
  // Rows come off disk, so the fold checks each row's last rank against its
  // block's hub count. Build a one-machine index into a named spill, rewrite
  // one row with an extra entry at rank == hub count, reopen, and query the
  // row's node.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = TempPath("tampered");
  Graph g = RandomDigraph(100, 3.0, 8);
  HgpaOptions options = SmallOptions();
  DistPrecomputeOptions dist;
  dist.num_machines = 1;
  dist.storage.backend = StorageBackend::kDisk;
  dist.storage.spill_path = path;
  DistributedPrecompute::Result result =
      DistributedPrecompute::RunHgpa(g, options, dist);
  { PpvStore closed = std::move(result.stores[0]); }

  const std::string segment = path + ".skeleton_row";
  std::ifstream in(segment, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();
  ByteReader reader(bytes);
  ByteWriter rewritten;
  NodeId tampered = kInvalidNode;
  while (!reader.AtEnd()) {
    VectorRecord record = VectorRecord::Deserialize(reader);
    ASSERT_EQ(record.kind, VectorKind::kSkeletonRow);
    if (tampered == kInvalidNode) {
      // One machine: the block id is the subgraph id.
      const NodeId hubs = static_cast<NodeId>(
          result.hierarchy->subgraph(record.sub).hubs.size());
      std::vector<SparseVector::Entry> entries(record.vec.entries().begin(),
                                               record.vec.entries().end());
      entries.push_back({hubs, 1.0});
      record.vec = SparseVector::FromSortedUnique(std::move(entries));
      tampered = record.node;
    }
    record.SerializeTo(rewritten);
  }
  ASSERT_NE(tampered, kInvalidNode);
  {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(rewritten.bytes().data()),
              static_cast<std::streamsize>(rewritten.bytes().size()));
  }

  // The reopened spill passes every open-time check: the record is well
  // formed; only its rank is out of its block.
  result.stores[0] = PpvStore::OpenSpill(path);
  HgpaQueryEngine engine(HgpaIndex::FromDistributed(std::move(result)));
  EXPECT_DEATH((void)engine.Query(tampered), "DPPR_CHECK failed");

  std::remove(path.c_str());
  for (const char* suffix : {"hub_partial", "skeleton_row", "own_vector"}) {
    std::remove((path + "." + suffix).c_str());
  }
}

}  // namespace
}  // namespace dppr
