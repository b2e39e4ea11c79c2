// The one placement every phase reads: Eq. 7 hub ownership, leaf packing and
// homes, and the block ids skeleton rows and replicas are keyed by, on deep
// (HGPA) and flat (GPA) hierarchies.

#include "dppr/core/placement.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;

std::shared_ptr<const Hierarchy> Hgpa(const Graph& g) {
  HierarchyOptions options;
  options.max_levels = 4;
  options.min_subgraph_size = 4;
  return std::make_shared<const Hierarchy>(Hierarchy::Build(g, options));
}

std::shared_ptr<const Hierarchy> Gpa(const Graph& g) {
  return std::make_shared<const Hierarchy>(
      Hierarchy::BuildFlat(g, 4, PartitionOptions{}));
}

void ExpectConsistent(const Placement& placement) {
  const Hierarchy& h = placement.hierarchy();
  const size_t n = placement.num_machines();

  // The owners' hub lists partition each subgraph's hubs in rank order, and
  // the rank-th hub sits with Owner(sub, rank), which also holds its own
  // vector (its partial).
  size_t groups = 0;
  for (const auto& sub : h.subgraphs()) {
    std::vector<size_t> next(n, 0);
    for (size_t rank = 0; rank < sub.hubs.size(); ++rank) {
      const size_t owner = placement.Owner(sub.id, rank);
      ASSERT_LT(owner, n);
      const std::span<const NodeId> owned = placement.OwnedHubs(sub.id, owner);
      ASSERT_LT(next[owner], owned.size()) << "sub " << sub.id;
      EXPECT_EQ(owned[next[owner]++], sub.hubs[rank]) << "sub " << sub.id;
      EXPECT_EQ(placement.OwnMachine(sub.hubs[rank]), owner);
    }
    for (size_t m = 0; m < n; ++m) {
      EXPECT_EQ(next[m], placement.OwnedHubs(sub.id, m).size())
          << "sub " << sub.id << " machine " << m;
      groups += next[m] > 0;
    }
  }
  // HubsOn(m) is exactly m's nonempty OwnedHubs groups.
  size_t listed = 0;
  for (size_t m = 0; m < n; ++m) {
    for (const auto& [sub, hubs] : placement.HubsOn(m)) {
      const std::span<const NodeId> owned = placement.OwnedHubs(sub, m);
      EXPECT_EQ(std::vector<NodeId>(owned.begin(), owned.end()), hubs);
      ++listed;
    }
  }
  EXPECT_EQ(listed, groups);

  // Every leaf is packed onto exactly one machine, its home, which holds
  // every one of its nodes' own vectors.
  std::vector<size_t> packed(h.num_subgraphs(), 0);
  for (size_t m = 0; m < n; ++m) {
    for (SubgraphId leaf : placement.LeavesOn(m)) {
      ++packed[leaf];
      EXPECT_EQ(placement.Home(leaf), m) << "leaf " << leaf;
      for (NodeId u : h.subgraph(leaf).nodes) {
        EXPECT_EQ(placement.OwnMachine(u), m) << "node " << u;
      }
    }
  }
  for (const auto& sub : h.subgraphs()) {
    EXPECT_EQ(packed[sub.id], sub.children.empty() ? 1u : 0u);
    EXPECT_LT(placement.Home(sub.id), n);
  }

  // Block ids are unique and dense over [0, num_subgraphs · n), and nothing
  // starts out replicated.
  std::vector<size_t> seen(h.num_subgraphs() * n, 0);
  for (const auto& sub : h.subgraphs()) {
    for (size_t m = 0; m < n; ++m) {
      const SubgraphId block = placement.Block(sub.id, m);
      ASSERT_LT(block, seen.size());
      ++seen[block];
      EXPECT_FALSE(placement.Replicated(sub.id, m));
    }
  }
  for (size_t count : seen) EXPECT_EQ(count, 1u);
  EXPECT_EQ(placement.num_replicated_hubs(), 0u);
}

TEST(Placement, ConsistentOnHgpaAndGpaHierarchies) {
  Graph g = RandomDigraph(120, 3.0, 31);
  for (const auto& hierarchy : {Hgpa(g), Gpa(g)}) {
    ASSERT_GT(hierarchy->TotalHubCount(), 0u);
    for (size_t machines : {1u, 2u, 5u}) {
      SCOPED_TRACE(::testing::Message() << machines << " machines");
      ExpectConsistent(Placement(hierarchy, machines));
    }
  }
}

TEST(Placement, MarkReplicatedFlagsOneBlockAndCountsItsHubs) {
  Graph g = RandomDigraph(120, 3.0, 31);
  Placement placement(Hgpa(g), 3);
  const SubgraphId root = placement.hierarchy().root();
  const size_t hubs = placement.OwnedHubs(root, 1).size();
  ASSERT_GT(hubs, 0u);
  placement.MarkReplicated(root, 1);
  EXPECT_TRUE(placement.Replicated(root, 1));
  EXPECT_FALSE(placement.Replicated(root, 0));
  EXPECT_FALSE(placement.Replicated(root, 2));
  EXPECT_EQ(placement.num_replicated_hubs(), hubs);
}

TEST(PlacementDeath, BlockOutsideTheClusterOrHierarchyDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Graph g = RandomDigraph(60, 3.0, 9);
  Placement placement(Hgpa(g), 4);
  const auto num_subgraphs =
      static_cast<SubgraphId>(placement.hierarchy().num_subgraphs());
  EXPECT_DEATH((void)placement.Block(0, 4), "DPPR_CHECK failed");
  EXPECT_DEATH((void)placement.Block(num_subgraphs, 0), "DPPR_CHECK failed");
  EXPECT_DEATH((void)placement.Replicated(0, 4), "DPPR_CHECK failed");
}

TEST(PlacementDeath, BlockIdsPastTheKeyFieldDieAtConstruction) {
  // num_subgraphs · n > 2^30: some block id would not fit the key's 30-bit
  // subgraph field. The check runs before any per-machine table is sized.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Graph g = RandomDigraph(60, 3.0, 9);
  std::shared_ptr<const Hierarchy> hierarchy = Hgpa(g);
  const size_t machines = (size_t{1} << 30) / hierarchy->num_subgraphs() + 1;
  EXPECT_DEATH(Placement(hierarchy, machines), "DPPR_CHECK failed");
}

}  // namespace
}  // namespace dppr
