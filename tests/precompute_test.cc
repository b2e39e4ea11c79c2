#include "dppr/core/precompute.h"

#include <gtest/gtest.h>

#include "dppr/store/vector_record.h"
#include "dppr/graph/datasets.h"
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

TEST(Precompute, EveryHubAndLeafNodeHasItems) {
  Graph g = RandomDigraph(120, 3.0, 7);
  auto pre = HgpaPrecomputation::RunHgpa(g, SmallOptions());
  const Hierarchy& h = pre->hierarchy();
  for (const auto& sub : h.subgraphs()) {
    for (NodeId hub : sub.hubs) {
      EXPECT_NE(pre->FindItem(VectorKind::kHubPartial, sub.id, hub), nullptr);
      EXPECT_NE(pre->FindItem(VectorKind::kSkeletonColumn, sub.id, hub), nullptr);
    }
    if (sub.children.empty()) {
      for (NodeId u : sub.nodes) {
        EXPECT_NE(pre->FindItem(VectorKind::kOwnVector, sub.id, u), nullptr);
      }
    }
  }
}

TEST(Precompute, ItemCountMatchesLayoutFormula) {
  Graph g = RandomDigraph(100, 3.0, 21);
  auto pre = HgpaPrecomputation::RunHgpa(g, SmallOptions());
  size_t expected = 0;
  for (const auto& sub : pre->hierarchy().subgraphs()) {
    expected += 2 * sub.hubs.size();
    if (sub.children.empty()) expected += sub.nodes.size();
  }
  EXPECT_EQ(pre->items().size(), expected);
}

TEST(Precompute, PartialVectorSupportStaysInsideSubgraph) {
  Graph g = RandomDigraph(150, 3.0, 33);
  auto pre = HgpaPrecomputation::RunHgpa(g, SmallOptions());
  const Hierarchy& h = pre->hierarchy();
  for (const auto& item : pre->items()) {
    const auto& sub = h.subgraph(item.sub);
    for (const auto& entry : item.vec.entries()) {
      bool inside = std::binary_search(sub.nodes.begin(), sub.nodes.end(),
                                       entry.index);
      ASSERT_TRUE(inside) << "vector of kind " << static_cast<int>(item.kind)
                          << " for node " << item.node << " leaks outside "
                          << "subgraph " << item.sub;
    }
  }
}

TEST(Precompute, HubPartialVectorsDropAllHubCoordinates) {
  // Stored hub partials carry no hub coordinates of their subgraph (those
  // are reconstructed from skeleton columns at query time).
  Graph g = RandomDigraph(150, 3.0, 90);
  auto pre = HgpaPrecomputation::RunHgpa(g, SmallOptions());
  const Hierarchy& h = pre->hierarchy();
  for (const auto& item : pre->items()) {
    if (item.kind != VectorKind::kHubPartial) continue;
    const auto& sub = h.subgraph(item.sub);
    for (NodeId hub : sub.hubs) {
      EXPECT_DOUBLE_EQ(item.vec.ValueAt(hub), 0.0)
          << "partial of hub " << item.node << " touches hub coordinate " << hub;
    }
  }
}

TEST(Precompute, DeterministicAcrossRuns) {
  Graph g = RandomDigraph(100, 3.0, 55);
  auto a = HgpaPrecomputation::RunHgpa(g, SmallOptions());
  auto b = HgpaPrecomputation::RunHgpa(g, SmallOptions());
  ASSERT_EQ(a->items().size(), b->items().size());
  for (size_t i = 0; i < a->items().size(); ++i) {
    EXPECT_EQ(a->items()[i].vec, b->items()[i].vec) << "item " << i;
    EXPECT_EQ(a->items()[i].node, b->items()[i].node);
  }
}

TEST(Precompute, BytesMatchSerializedSizes) {
  Graph g = RandomDigraph(90, 3.0, 12);
  auto pre = HgpaPrecomputation::RunHgpa(g, SmallOptions());
  size_t total = 0;
  for (const auto& item : pre->items()) {
    EXPECT_EQ(item.bytes, item.vec.SerializedBytes());
    total += item.bytes;
  }
  EXPECT_EQ(pre->TotalBytes(), total);
}

TEST(Precompute, StoragePruneShrinksEveryKind) {
  Graph g = RandomDigraph(200, 3.0, 18);
  HgpaOptions options = SmallOptions();
  options.ppr.tolerance = 1e-7;
  auto exact = HgpaPrecomputation::RunHgpa(g, options);
  auto pruned = exact->PrunedCopy(1e-3);
  ASSERT_EQ(exact->items().size(), pruned->items().size());
  EXPECT_LT(pruned->TotalBytes(), exact->TotalBytes());
  for (size_t i = 0; i < pruned->items().size(); ++i) {
    for (const auto& e : pruned->items()[i].vec.entries()) {
      EXPECT_GT(std::abs(e.value), 1e-3);
    }
  }
}

TEST(Precompute, GpaFlatHierarchyHasSingleSplitLevel) {
  Graph g = RandomDigraph(100, 3.0, 42);
  auto pre = HgpaPrecomputation::RunGpa(g, 4, SmallOptions());
  EXPECT_LE(pre->hierarchy().num_levels(), 2u);
  // Root holds all hubs; every other subgraph is a leaf.
  for (const auto& sub : pre->hierarchy().subgraphs()) {
    if (sub.id != pre->hierarchy().root()) {
      EXPECT_TRUE(sub.children.empty());
    }
  }
}

}  // namespace
}  // namespace dppr
