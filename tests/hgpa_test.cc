#include "dppr/core/hgpa.h"

#include <gtest/gtest.h>

#include "dppr/core/skeleton_rows.h"
#include "dppr/graph/datasets.h"
#include "dppr/ppr/dense_solver.h"
#include "dppr/ppr/metrics.h"
#include "dppr/ppr/power_iteration.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;

HgpaOptions TightOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-10;
  options.hierarchy.max_levels = 4;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

TEST(Hgpa, MatchesDenseOracleOnPaperFigure3Graph) {
  Graph g = PaperFigure3Graph();
  auto pre = HgpaPrecomputation::RunHgpa(g, TightOptions());
  HgpaIndex index = HgpaIndex::Distribute(pre, 2);
  HgpaQueryEngine engine(index);
  for (NodeId q = 0; q < g.num_nodes(); ++q) {
    std::vector<double> got = engine.QueryDense(q);
    std::vector<double> oracle = ExactPpvDense(g, q, TightOptions().ppr);
    EXPECT_LT(LInfNorm(got, oracle), 1e-7) << "query " << q;
  }
}

TEST(Hgpa, HubAndNonHubQueriesBothExact) {
  Graph g = RandomDigraph(90, 3.0, 1234);
  auto pre = HgpaPrecomputation::RunHgpa(g, TightOptions());
  HgpaIndex index = HgpaIndex::Distribute(pre, 3);
  HgpaQueryEngine engine(index);

  size_t hub_queries = 0;
  size_t leaf_queries = 0;
  for (NodeId q = 0; q < g.num_nodes(); ++q) {
    std::vector<double> got = engine.QueryDense(q);
    std::vector<double> oracle = ExactPpvDense(g, q, TightOptions().ppr);
    ASSERT_LT(LInfNorm(got, oracle), 1e-6)
        << "query " << q << " is_hub=" << index.hierarchy().is_hub(q);
    if (index.hierarchy().is_hub(q)) {
      ++hub_queries;
    } else {
      ++leaf_queries;
    }
  }
  // The graph must actually have exercised both code paths.
  EXPECT_GT(hub_queries, 0u);
  EXPECT_GT(leaf_queries, 0u);
}

TEST(Hgpa, MachineCountDoesNotChangeTheAnswer) {
  Graph g = RandomDigraph(80, 3.0, 77);
  auto pre = HgpaPrecomputation::RunHgpa(g, TightOptions());
  HgpaIndex one = HgpaIndex::Distribute(pre, 1);
  std::vector<double> reference = HgpaQueryEngine(one).QueryDense(13);
  for (size_t machines : {2u, 3u, 5u, 7u, 11u}) {
    HgpaIndex index = HgpaIndex::Distribute(pre, machines);
    std::vector<double> got = HgpaQueryEngine(index).QueryDense(13);
    EXPECT_LT(LInfNorm(got, reference), 1e-12) << machines << " machines";
  }
}

TEST(Hgpa, GpaMatchesHgpa) {
  // Theorem 3: the hierarchical construction computes exactly Eq. 5.
  Graph g = RandomDigraph(100, 3.0, 2024);
  HgpaOptions options = TightOptions();
  auto hgpa = HgpaPrecomputation::RunHgpa(g, options);
  auto gpa = HgpaPrecomputation::RunGpa(g, 4, options);
  HgpaQueryEngine hgpa_engine{HgpaIndex::Distribute(hgpa, 3)};
  HgpaQueryEngine gpa_engine{HgpaIndex::Distribute(gpa, 3)};
  for (NodeId q : {NodeId{0}, NodeId{33}, NodeId{99}}) {
    std::vector<double> a = hgpa_engine.QueryDense(q);
    std::vector<double> b = gpa_engine.QueryDense(q);
    EXPECT_LT(LInfNorm(a, b), 1e-6) << "query " << q;
  }
}

TEST(Hgpa, CommunicationMetricsArePopulated) {
  Graph g = RandomDigraph(120, 3.0, 5);
  auto pre = HgpaPrecomputation::RunHgpa(g, TightOptions());
  HgpaIndex index = HgpaIndex::Distribute(pre, 4);
  HgpaQueryEngine engine(index);
  QueryMetrics metrics;
  engine.Query(17, &metrics);
  // At most one message per machine (Theorem 4; routing may skip
  // non-contributing machines), non-trivial payloads overall.
  EXPECT_GE(metrics.comm.messages, 1u);
  EXPECT_LE(metrics.comm.messages, 4u);
  EXPECT_GT(metrics.comm.bytes, 4u);
  EXPECT_GT(metrics.simulated_seconds, 0.0);
  EXPECT_GE(metrics.simulated_seconds,
            metrics.max_machine_seconds + metrics.coordinator_seconds);
}

TEST(Hgpa, OfflineLedgerConservesTotalComputeTime) {
  Graph g = RandomDigraph(100, 3.0, 31);
  auto pre = HgpaPrecomputation::RunHgpa(g, TightOptions());
  for (size_t machines : {1u, 3u, 6u}) {
    HgpaIndex index = HgpaIndex::Distribute(pre, machines);
    EXPECT_NEAR(index.offline_ledger().TotalSeconds(), pre->total_seconds(), 1e-9);
    EXPECT_LE(index.offline_ledger().MaxSeconds(),
              pre->total_seconds() + 1e-12);
  }
}

TEST(Hgpa, StorageAccountingIsDistributionInvariant) {
  // Partials and own vectors are placed as they are, so their bytes do not
  // depend on the machine count. Skeletons are stored as rows, one per node
  // and (subgraph, owner) block, so their bytes do; but on every machine
  // count the rows hold exactly the columns' nonzeros.
  Graph g = RandomDigraph(100, 3.0, 92);
  auto pre = HgpaPrecomputation::RunHgpa(g, TightOptions());
  size_t partial_own_bytes = 0;
  size_t column_entries = 0;
  for (const auto& item : pre->items()) {
    if (item.kind == VectorKind::kSkeletonColumn) {
      column_entries += item.vec.size();
    } else {
      partial_own_bytes += item.bytes;
    }
  }
  for (size_t machines : {1u, 2u, 5u}) {
    HgpaIndex index = HgpaIndex::Distribute(pre, machines);
    size_t placed_partial_own = 0;
    size_t row_bytes = 0;
    size_t row_entries = 0;
    for (size_t m = 0; m < machines; ++m) {
      const PpvStore& store = index.store(m);
      EXPECT_EQ(store.SerializedBytesByKind(VectorKind::kSkeletonColumn), 0u);
      placed_partial_own += store.SerializedBytesByKind(VectorKind::kHubPartial) +
                            store.SerializedBytesByKind(VectorKind::kOwnVector);
      row_bytes += store.SerializedBytesByKind(VectorKind::kSkeletonRow);
      for (const auto& [sub, hubs] : index.hubs_on_machine(m)) {
        const SubgraphId block = SkeletonRowBlock(sub, m, machines);
        for (NodeId u : index.hierarchy().subgraph(sub).nodes) {
          if (PpvRef row = store.Find(VectorKind::kSkeletonRow, block, u)) {
            row_entries += row->size();
          }
        }
      }
    }
    EXPECT_EQ(placed_partial_own, partial_own_bytes) << machines;
    EXPECT_EQ(row_entries, column_entries) << machines;
    EXPECT_EQ(index.TotalBytes(), partial_own_bytes + row_bytes) << machines;
    EXPECT_GE(index.MaxMachineBytes() * machines, index.TotalBytes());
  }
}

TEST(Hgpa, MoreMachinesReduceMaxStorage) {
  Graph g = RandomDigraph(200, 3.0, 46);
  auto pre = HgpaPrecomputation::RunHgpa(g, TightOptions());
  size_t one = HgpaIndex::Distribute(pre, 1).MaxMachineBytes();
  size_t eight = HgpaIndex::Distribute(pre, 8).MaxMachineBytes();
  EXPECT_LT(eight, one);
}

TEST(Hgpa, PrunedCopyStaysClose) {
  Graph g = RandomDigraph(100, 3.0, 3);
  HgpaOptions options;
  options.ppr.tolerance = 1e-6;
  options.hierarchy.max_levels = 4;
  auto exact = HgpaPrecomputation::RunHgpa(g, options);
  auto pruned = exact->PrunedCopy(1e-4);
  EXPECT_LT(pruned->TotalBytes(), exact->TotalBytes());

  HgpaQueryEngine exact_engine{HgpaIndex::Distribute(exact, 2)};
  HgpaQueryEngine pruned_engine{HgpaIndex::Distribute(pruned, 2)};
  std::vector<double> a = exact_engine.QueryDense(10);
  std::vector<double> b = pruned_engine.QueryDense(10);
  // HGPA_ad drops entries below 1e-4; the error stays near that scale.
  EXPECT_LT(LInfNorm(a, b), 5e-2);
  EXPECT_LT(AverageL1(a, b), 1e-2);
}

TEST(Hgpa, FixedPointSkeletonGivesSameAnswers) {
  Graph g = RandomDigraph(70, 3.0, 58);
  HgpaOptions reverse_opts = TightOptions();
  HgpaOptions fixed_opts = TightOptions();
  fixed_opts.skeleton_method = SkeletonMethod::kFixedPoint;
  HgpaQueryEngine a{HgpaIndex::Distribute(
      HgpaPrecomputation::RunHgpa(g, reverse_opts), 2)};
  HgpaQueryEngine b{HgpaIndex::Distribute(
      HgpaPrecomputation::RunHgpa(g, fixed_opts), 2)};
  for (NodeId q : {NodeId{4}, NodeId{42}}) {
    EXPECT_LT(LInfNorm(a.QueryDense(q), b.QueryDense(q)), 1e-6);
  }
}

TEST(Hgpa, PreferenceSetQueryIsLinearCombination) {
  // Jeh-Widom linearity: r_P = Σ w_u · r_u, answered in one round.
  Graph g = RandomDigraph(100, 3.0, 64);
  auto pre = HgpaPrecomputation::RunHgpa(g, TightOptions());
  HgpaQueryEngine engine(HgpaIndex::Distribute(pre, 4));

  std::vector<HgpaQueryEngine::Preference> prefs{{5, 0.5}, {42, 0.3}, {77, 0.2}};
  QueryMetrics metrics;
  SparseVector combined = engine.QueryPreferenceSet(prefs, &metrics);
  // Still one round: at most one message per machine.
  EXPECT_GE(metrics.comm.messages, 1u);
  EXPECT_LE(metrics.comm.messages, 4u);

  std::vector<double> expected(g.num_nodes(), 0.0);
  for (const auto& p : prefs) {
    std::vector<double> single = engine.QueryDense(p.node);
    for (NodeId v = 0; v < g.num_nodes(); ++v) expected[v] += p.weight * single[v];
  }
  std::vector<double> got(g.num_nodes(), 0.0);
  combined.AddScaledTo(got, 1.0);
  EXPECT_LT(LInfNorm(got, expected), 1e-12);

  // And it matches the dense oracle of the weighted teleport vector.
  std::vector<double> oracle(g.num_nodes(), 0.0);
  for (const auto& p : prefs) {
    std::vector<double> single = ExactPpvDense(g, p.node, TightOptions().ppr);
    for (NodeId v = 0; v < g.num_nodes(); ++v) oracle[v] += p.weight * single[v];
  }
  EXPECT_LT(LInfNorm(got, oracle), 1e-6);
}

TEST(Hgpa, PreferenceSetMatchesDenseSolverWeightedTeleport) {
  // Stronger oracle than combining single-node solves: solve the Eq. 1
  // system (I - (1-α) Pᵀ) r = α w directly for the weighted teleport
  // vector w and compare against the one-round distributed answer.
  Graph g = PaperFigure3Graph();
  auto pre = HgpaPrecomputation::RunHgpa(g, TightOptions());
  HgpaQueryEngine engine(HgpaIndex::Distribute(pre, 3));

  std::vector<HgpaQueryEngine::Preference> prefs{{0, 0.6}, {3, 0.3}, {5, 0.1}};
  std::vector<double> got(g.num_nodes(), 0.0);
  engine.QueryPreferenceSet(prefs).AddScaledTo(got, 1.0);

  std::vector<std::pair<NodeId, double>> teleport;
  for (const auto& p : prefs) teleport.emplace_back(p.node, p.weight);
  std::vector<double> oracle = ExactPpvDense(g, teleport, TightOptions().ppr);
  EXPECT_LT(LInfNorm(got, oracle), 1e-7);
}

TEST(Hgpa, PreferenceSetWithZeroAndDuplicateWeights) {
  Graph g = RandomDigraph(60, 3.0, 11);
  auto pre = HgpaPrecomputation::RunHgpa(g, TightOptions());
  HgpaQueryEngine engine(HgpaIndex::Distribute(pre, 3));
  std::vector<HgpaQueryEngine::Preference> prefs{{7, 0.0}, {9, 0.5}, {9, 0.5}};
  std::vector<double> got(g.num_nodes(), 0.0);
  engine.QueryPreferenceSet(prefs).AddScaledTo(got, 1.0);
  std::vector<double> single = engine.QueryDense(9);
  EXPECT_LT(LInfNorm(got, single), 1e-12);  // 0.5 + 0.5 of the same node
}

class HgpaSeedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HgpaSeedPropertyTest, ExactAgainstPowerIterationOnRandomGraphs) {
  uint64_t seed = GetParam();
  Graph g = RandomDigraph(60 + seed % 50, 2.5 + (seed % 3), seed);
  auto pre = HgpaPrecomputation::RunHgpa(g, TightOptions());
  ASSERT_TRUE(pre->hierarchy().Validate(g).ok());
  HgpaIndex index = HgpaIndex::Distribute(pre, 1 + seed % 6);
  HgpaQueryEngine engine(index);

  PowerIterationOptions pi;
  pi.ppr.tolerance = 1e-11;
  pi.dangling = PowerDangling::kAbsorb;
  NodeId q = static_cast<NodeId>(seed % g.num_nodes());
  std::vector<double> got = engine.QueryDense(q);
  std::vector<double> reference = PowerIterationPpv(g, q, pi).ppv;
  EXPECT_LT(LInfNorm(got, reference), 1e-6) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HgpaSeedPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

}  // namespace
}  // namespace dppr
