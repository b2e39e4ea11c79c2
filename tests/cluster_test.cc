#include "dppr/dist/cluster.h"

#include <gtest/gtest.h>

#include "dppr/dist/network.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::TransportUnderTest;

TEST(NetworkModel, TransferTimeScalesWithBytes) {
  NetworkModel net;
  double small = net.TransferSeconds(1024);
  double large = net.TransferSeconds(1024 * 1024);
  EXPECT_GT(large, small);
  EXPECT_GE(small, net.latency_seconds);
}

TEST(NetworkModel, PaperScaleSanity) {
  // ~1.5 MB over a 100 Mb switch should take on the order of 100 ms — the
  // regime the paper's Figure 13/28 discussion relies on.
  NetworkModel net;
  double t = net.TransferSeconds(1'500'000);
  EXPECT_GT(t, 0.05);
  EXPECT_LT(t, 0.5);
}

TEST(CommStats, AccumulatesMessages) {
  CommStats stats;
  stats.Record(1000);
  stats.Record(24);
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_EQ(stats.bytes, 1024u);
  EXPECT_DOUBLE_EQ(stats.kilobytes(), 1.0);

  CommStats more;
  more.Record(1024 * 1024);
  stats += more;
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_DOUBLE_EQ(stats.megabytes(), 1.0 + 1.0 / 1024.0);
}

TEST(MachineTimeLedger, TracksPerMachineTotals) {
  MachineTimeLedger ledger(3);
  ledger.Add(0, 1.0);
  ledger.Add(1, 2.5);
  ledger.Add(0, 0.5);
  EXPECT_DOUBLE_EQ(ledger.Seconds(0), 1.5);
  EXPECT_DOUBLE_EQ(ledger.MaxSeconds(), 2.5);
  EXPECT_DOUBLE_EQ(ledger.TotalSeconds(), 4.0);
}

TEST(RoundMetrics, SimulatedSecondsComposesAllTerms) {
  RoundMetrics metrics;
  metrics.machine_seconds = {0.010, 0.030, 0.020};
  metrics.to_coordinator.Record(125'000);  // 10 ms at 12.5 MB/s
  metrics.to_coordinator.Record(125'000);
  metrics.coordinator_seconds = 0.005;
  NetworkModel net;
  double expected = 0.030 + (250'000 / 12.5e6) + 2 * net.latency_seconds + 0.005;
  EXPECT_NEAR(metrics.SimulatedSeconds(net), expected, 1e-12);
}

TEST(SimCluster, RunsTaskOnEveryMachine) {
  SimCluster cluster(5, NetworkModel{}, /*sequential=*/false,
                     TransportUnderTest());
  auto result = cluster.RunRound([](size_t machine) {
    return std::vector<uint8_t>(machine + 1, static_cast<uint8_t>(machine));
  });
  ASSERT_EQ(result.payloads.size(), 5u);
  for (size_t m = 0; m < 5; ++m) {
    EXPECT_EQ(result.payloads[m].size(), m + 1);
    if (!result.payloads[m].empty()) {
      EXPECT_EQ(result.payloads[m][0], static_cast<uint8_t>(m));
    }
  }
  EXPECT_EQ(result.metrics.to_coordinator.messages, 5u);
  EXPECT_EQ(result.metrics.to_coordinator.bytes, 1u + 2 + 3 + 4 + 5);
  EXPECT_EQ(result.metrics.machine_seconds.size(), 5u);
}

TEST(SimCluster, ManyMoreMachinesThanCores) {
  SimCluster cluster(64, NetworkModel{}, /*sequential=*/false,
                     TransportUnderTest());
  std::atomic<int> calls{0};
  auto result = cluster.RunRound([&](size_t) {
    calls.fetch_add(1);
    return std::vector<uint8_t>{1};
  });
  EXPECT_EQ(calls.load(), 64);
  EXPECT_EQ(result.metrics.to_coordinator.messages, 64u);
}

}  // namespace
}  // namespace dppr
