#include <gtest/gtest.h>

#include "dppr/common/rng.h"
#include "dppr/core/hgpa.h"
#include "dppr/graph/datasets.h"
#include "dppr/ppr/metrics.h"
#include "dppr/ppr/power_iteration.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::StorageUnderTest;
using ::dppr::testing::TransportUnderTest;

/// End-to-end pipeline on scaled paper datasets at the paper's default
/// tolerance (1e-4): build hierarchy -> precompute -> distribute -> query,
/// compared against power iteration as the paper's §6.2.6 does.
class PipelineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineTest, HgpaTracksPowerIterationAtPaperTolerance) {
  Graph g = DatasetByName(GetParam(), 0.08);
  HgpaOptions options;  // paper defaults: α=0.15, ε=1e-4
  options.hierarchy.max_levels = 6;
  auto pre = HgpaPrecomputation::RunHgpa(g, options);
  ASSERT_TRUE(pre->hierarchy().Validate(g).ok());
  HgpaIndex index = HgpaIndex::Distribute(pre, 6, StorageUnderTest());
  HgpaQueryEngine engine(index, {}, TransportUnderTest());

  PowerIterationOptions pi;
  pi.dangling = PowerDangling::kAbsorb;
  pi.ppr.tolerance = 1e-4;

  Rng rng(42);
  double worst_l1 = 0.0;
  for (int i = 0; i < 5; ++i) {
    NodeId q = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
    std::vector<double> hgpa = engine.QueryDense(q);
    std::vector<double> power = PowerIterationPpv(g, q, pi).ppv;
    worst_l1 = std::max(worst_l1, AverageL1(hgpa, power));
    // Both methods run at tolerance 1e-4; per §6.2.6 the norms land around
    // the tolerance's order of magnitude.
    EXPECT_LT(LInfNorm(hgpa, power), 3e-3) << GetParam() << " query " << q;
  }
  EXPECT_LT(worst_l1, 1e-4) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Datasets, PipelineTest,
                         ::testing::Values("email", "web", "youtube"));

TEST(Integration, MachineSweepKeepsCommBoundedAndBalanced) {
  Graph g = EmailLike(0.15);
  HgpaOptions options;
  options.hierarchy.max_levels = 5;
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  size_t previous_max_bytes = SIZE_MAX;
  for (size_t machines : {2u, 4u, 8u}) {
    HgpaIndex index = HgpaIndex::Distribute(pre, machines, StorageUnderTest());
    HgpaQueryEngine engine(index, {}, TransportUnderTest());
    QueryMetrics metrics;
    engine.Query(1, &metrics);
    // Theorem 4: at most one message per machine (routing may skip
    // non-contributing machines), bounded by O(n|V|).
    EXPECT_GE(metrics.comm.messages, 1u);
    EXPECT_LE(metrics.comm.messages, machines);
    EXPECT_LT(metrics.comm.bytes, machines * g.num_nodes() * 16);

    // Storage drops (or at worst stays) as machines are added.
    EXPECT_LE(index.MaxMachineBytes(), previous_max_bytes);
    previous_max_bytes = index.MaxMachineBytes();

    // Load balance: no machine hoards more than ~3x the mean bytes.
    size_t total = index.TotalBytes();
    EXPECT_LT(index.MaxMachineBytes(), 3 * total / machines + 4096)
        << machines << " machines";
  }
}

TEST(Integration, GpaAndHgpaAgreeOnRealisticDataset) {
  Graph g = YoutubeLike(0.05);
  HgpaOptions options;
  options.ppr.tolerance = 1e-6;
  options.hierarchy.max_levels = 5;
  auto hgpa = HgpaPrecomputation::RunHgpa(g, options);
  auto gpa = HgpaPrecomputation::RunGpa(g, 6, options);
  HgpaQueryEngine hgpa_engine{
      HgpaIndex::Distribute(hgpa, 4, StorageUnderTest()), {},
      TransportUnderTest()};
  HgpaQueryEngine gpa_engine{HgpaIndex::Distribute(gpa, 4, StorageUnderTest()),
                             {}, TransportUnderTest()};
  for (NodeId q : {NodeId{3}, NodeId{100}, NodeId{500}}) {
    std::vector<double> a = hgpa_engine.QueryDense(q);
    std::vector<double> b = gpa_engine.QueryDense(q);
    EXPECT_LT(LInfNorm(a, b), 1e-4) << "query " << q;
  }
}

TEST(Integration, HierarchicalStorageBeatsFlatGpa) {
  // §4.5: HGPA's space cost is at most GPA's (same leaf partitioning).
  Graph g = WebLike(0.08);
  HgpaOptions options;
  options.hierarchy.max_levels = 6;
  auto hgpa = HgpaPrecomputation::RunHgpa(g, options);
  auto gpa = HgpaPrecomputation::RunGpa(
      g, static_cast<uint32_t>(hgpa->hierarchy().leaves().size()), options);
  EXPECT_LT(hgpa->TotalBytes(), gpa->TotalBytes());
}

TEST(Integration, DeeperHierarchiesShrinkOfflineCost) {
  // Figures 15-16 shape: more levels => less precomputation space/time.
  Graph g = WebLike(0.06);
  HgpaOptions shallow;
  shallow.hierarchy.max_levels = 1;
  HgpaOptions deep;
  deep.hierarchy.max_levels = 6;
  auto pre_shallow = HgpaPrecomputation::RunHgpa(g, shallow);
  auto pre_deep = HgpaPrecomputation::RunHgpa(g, deep);
  EXPECT_LT(pre_deep->TotalBytes(), pre_shallow->TotalBytes());
}

}  // namespace
}  // namespace dppr
