#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "dppr/common/timer.h"
#include "dppr/dist/cluster.h"
#include "dppr/dist/network.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::TransportUnderTest;

// A deterministic machine task with a payload that depends only on the
// machine index (so any run order must yield the same bytes).
std::vector<uint8_t> DeterministicPayload(size_t machine) {
  std::vector<uint8_t> payload((machine * 7) % 13 + 1);
  std::iota(payload.begin(), payload.end(), static_cast<uint8_t>(machine));
  return payload;
}

TEST(SimClusterDeterminism, SequentialModeIsByteIdenticalAcrossRuns) {
  SimCluster cluster(17, NetworkModel{}, /*sequential=*/true,
                     TransportUnderTest());
  ASSERT_TRUE(cluster.sequential());
  auto first = cluster.RunRound(DeterministicPayload);
  auto second = cluster.RunRound(DeterministicPayload);
  EXPECT_EQ(first.payloads, second.payloads);
  EXPECT_EQ(first.metrics.Traffic().messages,
            second.metrics.Traffic().messages);
  EXPECT_EQ(first.metrics.Traffic().bytes,
            second.metrics.Traffic().bytes);
}

TEST(SimClusterDeterminism, ParallelModeMatchesSequentialPayloads) {
  // Payload slots are indexed by machine, so scheduling (however many pool
  // threads run the round) must not change the gathered bytes or CommStats.
  SimCluster sequential(23, NetworkModel{}, /*sequential=*/true,
                        TransportUnderTest());
  SimCluster parallel(23, NetworkModel{}, /*sequential=*/false,
                      TransportUnderTest());
  auto seq = sequential.RunRound(DeterministicPayload);
  auto par = parallel.RunRound(DeterministicPayload);
  EXPECT_EQ(seq.payloads, par.payloads);
  EXPECT_EQ(seq.metrics.Traffic().messages,
            par.metrics.Traffic().messages);
  EXPECT_EQ(seq.metrics.Traffic().bytes,
            par.metrics.Traffic().bytes);
}

TEST(SimClusterDeterminism, SequentialModeAdmitsSharedMutableState) {
  // Tasks that append to shared state observe machine order 0..n-1.
  SimCluster cluster(8, NetworkModel{}, /*sequential=*/true,
                     TransportUnderTest());
  std::vector<size_t> order;
  cluster.RunRound([&](size_t machine) {
    order.push_back(machine);
    return std::vector<uint8_t>{static_cast<uint8_t>(machine)};
  });
  std::vector<size_t> expected(8);
  std::iota(expected.begin(), expected.end(), size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(SimClusterDeterminism, MultiRoundStatsAccumulateAcrossRounds) {
  SimCluster cluster(4, NetworkModel{}, /*sequential=*/true,
                     TransportUnderTest());
  MultiRoundStats stats;
  size_t reduced_payloads = 0;
  for (int round = 0; round < 3; ++round) {
    SimCluster::RoundResult r = cluster.RunRound(DeterministicPayload);
    WallTimer reduce;
    reduced_payloads += r.payloads.size();
    r.metrics.coordinator_seconds = reduce.ElapsedSeconds();
    stats.Accumulate(r.metrics, cluster.network());
  }
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.comm.messages, 12u);
  EXPECT_EQ(reduced_payloads, 12u);
  auto one = cluster.RunRound(DeterministicPayload);
  EXPECT_EQ(stats.comm.bytes, 3 * one.metrics.Traffic().bytes);
  // Each round pays at least one latency per message, and the timed reduce
  // lands in coordinator_seconds.
  EXPECT_GE(stats.simulated_seconds,
            12 * cluster.network().latency_seconds);
  EXPECT_GE(stats.coordinator_seconds, 0.0);
  EXPECT_GE(stats.simulated_seconds, stats.coordinator_seconds);
}

}  // namespace
}  // namespace dppr
