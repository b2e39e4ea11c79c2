#include "dppr/partition/hierarchy.h"

#include <gtest/gtest.h>

#include "dppr/graph/datasets.h"
#include "dppr/graph/generators.h"
#include "dppr/partition/hub_selection.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;

HierarchyOptions Defaults(uint32_t max_levels = 16) {
  HierarchyOptions options;
  options.max_levels = max_levels;
  options.min_subgraph_size = 2;
  return options;
}

TEST(HubSelection, CoversEveryCutEdge) {
  Graph g = RandomDigraph(200, 3.0, 3);
  LocalGraph lg = LocalGraph::Whole(g);
  PartitionOptions options;
  std::vector<uint32_t> part = PartitionLocalGraph(lg, 2, options);
  HubSelection selection = SelectHubs(lg, part, 2);
  EXPECT_TRUE(VerifySeparation(lg, part, selection.hubs).ok());
  EXPECT_GT(selection.num_cut_pairs, 0u);
  EXPECT_LE(selection.hubs.size(), selection.num_cut_pairs);
}

TEST(HubSelection, NoCutNoHubs) {
  // Two disconnected cliques split perfectly.
  GraphBuilder builder(8);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      if (u != v) {
        builder.AddEdge(u, v);
        builder.AddEdge(u + 4, v + 4);
      }
    }
  }
  Graph g = builder.Build();
  LocalGraph lg = LocalGraph::Whole(g);
  std::vector<uint32_t> part{0, 0, 0, 0, 1, 1, 1, 1};
  HubSelection selection = SelectHubs(lg, part, 2);
  EXPECT_TRUE(selection.hubs.empty());
  EXPECT_EQ(selection.num_cut_pairs, 0u);
}

TEST(HubSelection, KonigBeatsNaiveEndpointCover) {
  // Star crossing: one part-0 node connected to many part-1 nodes. Minimum
  // cover is 1 (the center), not the number of edges.
  GraphBuilder builder(10);
  for (NodeId v = 1; v < 10; ++v) builder.AddEdge(0, v);
  Graph g = builder.Build();
  LocalGraph lg = LocalGraph::Whole(g);
  std::vector<uint32_t> part(10, 1);
  part[0] = 0;
  HubSelection selection = SelectHubs(lg, part, 2);
  ASSERT_EQ(selection.hubs.size(), 1u);
  EXPECT_EQ(selection.hubs[0], 0u);
}

TEST(Hierarchy, ValidatesOnPaperToyGraph) {
  Graph g = PaperFigure3Graph();
  Hierarchy h = Hierarchy::Build(g, Defaults(4));
  EXPECT_TRUE(h.Validate(g).ok());
  EXPECT_GE(h.num_levels(), 2u);
}

TEST(Hierarchy, EveryNodeHasExactlyOneFinalSubgraph) {
  Graph g = RandomDigraph(300, 3.0, 17);
  Hierarchy h = Hierarchy::Build(g, Defaults());
  ASSERT_TRUE(h.Validate(g).ok());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    SubgraphId f = h.final_subgraph(u);
    ASSERT_NE(f, kInvalidSubgraph);
    const auto& sub = h.subgraph(f);
    if (h.is_hub(u)) {
      EXPECT_TRUE(std::binary_search(sub.hubs.begin(), sub.hubs.end(), u));
    } else {
      EXPECT_TRUE(sub.children.empty()) << "non-hub must land in a leaf";
      EXPECT_TRUE(std::binary_search(sub.nodes.begin(), sub.nodes.end(), u));
    }
  }
}

TEST(Hierarchy, ChainsWalkRootToFinal) {
  Graph g = RandomDigraph(250, 3.0, 29);
  Hierarchy h = Hierarchy::Build(g, Defaults());
  for (NodeId u = 0; u < g.num_nodes(); u += 17) {
    std::vector<SubgraphId> chain = h.Chain(u);
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.front(), h.root());
    EXPECT_EQ(chain.back(), h.final_subgraph(u));
    for (size_t i = 1; i < chain.size(); ++i) {
      EXPECT_EQ(h.subgraph(chain[i]).parent, chain[i - 1]);
      EXPECT_EQ(h.subgraph(chain[i]).level, i);
    }
  }
}

TEST(Hierarchy, LevelsNestByHalving) {
  Graph g = RandomDigraph(400, 3.0, 5);
  Hierarchy h = Hierarchy::Build(g, Defaults(3));
  EXPECT_LE(h.num_levels(), 4u);
  // Each split subgraph has at most `fanout` children.
  for (const auto& sub : h.subgraphs()) {
    EXPECT_LE(sub.children.size(), 2u);
  }
}

TEST(Hierarchy, DeepPartitioningTerminatesWithEdgeFreeLeaves) {
  Graph g = RandomDigraph(150, 2.0, 23);
  HierarchyOptions options = Defaults(32);
  Hierarchy h = Hierarchy::Build(g, options);
  ASSERT_TRUE(h.Validate(g).ok());
  // The paper partitions "until no edges exist within each subgraph": with a
  // generous level cap every leaf is edge-free or too small for a
  // non-degenerate split (a couple of nodes whose cover would consume the
  // whole subgraph).
  for (SubgraphId leaf : h.leaves()) {
    const auto& sub = h.subgraph(leaf);
    LocalGraph lg = LocalGraph::Induce(g, sub.nodes);
    size_t non_self_loop = 0;
    for (NodeId u = 0; u < lg.num_nodes(); ++u) {
      for (NodeId v : lg.OutNeighbors(u)) non_self_loop += (u != v);
    }
    EXPECT_TRUE(non_self_loop == 0 || sub.nodes.size() <= 4)
        << "leaf " << leaf << " (" << sub.nodes.size() << " nodes) still has "
        << non_self_loop << " edges";
  }
}

TEST(Hierarchy, HubCountPerLevelSumsToTotal) {
  Graph g = RandomDigraph(300, 3.0, 7);
  Hierarchy h = Hierarchy::Build(g, Defaults());
  std::vector<size_t> per_level = h.HubCountPerLevel();
  size_t sum = 0;
  for (size_t c : per_level) sum += c;
  EXPECT_EQ(sum, h.TotalHubCount());
  size_t hub_nodes = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) hub_nodes += h.is_hub(u);
  EXPECT_EQ(hub_nodes, h.TotalHubCount());
}

TEST(Hierarchy, HubsAreMuchFewerThanNodesOnCommunityGraphs) {
  // Key premise of the paper (|H| << |V|, Appendix E).
  Graph g = CommunityDigraph(2000, 16, 3.0, 0.9, 13);
  Hierarchy h = Hierarchy::Build(g, Defaults(4));
  EXPECT_LT(h.TotalHubCount(), g.num_nodes() / 4);
}

TEST(Hierarchy, FlatBuildMatchesGpaShape) {
  Graph g = RandomDigraph(300, 3.0, 19);
  Hierarchy h = Hierarchy::BuildFlat(g, 6, PartitionOptions{});
  ASSERT_TRUE(h.Validate(g).ok());
  EXPECT_LE(h.num_levels(), 2u);
  size_t leaf_nodes = 0;
  for (SubgraphId leaf : h.leaves()) {
    if (leaf != h.root()) leaf_nodes += h.subgraph(leaf).nodes.size();
  }
  EXPECT_EQ(leaf_nodes + h.TotalHubCount(), g.num_nodes());
}

TEST(Hierarchy, MultiwayFanoutProducesMoreChildren) {
  Graph g = RandomDigraph(500, 3.0, 37);
  HierarchyOptions options = Defaults(2);
  options.fanout = 4;
  Hierarchy h = Hierarchy::Build(g, options);
  ASSERT_TRUE(h.Validate(g).ok());
  EXPECT_GE(h.subgraph(h.root()).children.size(), 3u);
}

// FNV-1a over every subgraph's level, parent, nodes and hubs: equal hashes
// mean equal hierarchies.
uint64_t HierarchyHash(const Hierarchy& h) {
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ull;
    }
  };
  mix(h.num_subgraphs());
  for (const auto& sub : h.subgraphs()) {
    mix(sub.level);
    mix(sub.parent);
    mix(sub.nodes.size());
    for (NodeId u : sub.nodes) mix(u);
    mix(sub.hubs.size());
    for (NodeId u : sub.hubs) mix(u);
  }
  return hash;
}

TEST(Hierarchy, BuildIsPinnedOnFixedGraphs) {
  // FmRefine updates neighbour gains incrementally instead of rescanning
  // each neighbour's adjacency; that is exact only if every hierarchy comes
  // out the same. These hashes are the ones the full-rescan FmRefine
  // produced on the same graphs with default options.
  EXPECT_EQ(HierarchyHash(Hierarchy::Build(WebLike(0.1), HierarchyOptions{})),
            0x209d12b9b8d34c5dull);
  EXPECT_EQ(HierarchyHash(Hierarchy::Build(RandomDigraph(3000, 4.0, 11),
                                           HierarchyOptions{})),
            0x4a5f7ff582a56856ull);
}

class HierarchyDatasetTest : public ::testing::TestWithParam<const char*> {};

TEST_P(HierarchyDatasetTest, ValidatesOnScaledDatasets) {
  Graph g = DatasetByName(GetParam(), 0.05);
  Hierarchy h = Hierarchy::Build(g, Defaults(8));
  EXPECT_TRUE(h.Validate(g).ok()) << GetParam();
  EXPECT_LT(h.TotalHubCount(), g.num_nodes()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Datasets, HierarchyDatasetTest,
                         ::testing::Values("email", "web", "youtube", "meetup1"));

}  // namespace
}  // namespace dppr
