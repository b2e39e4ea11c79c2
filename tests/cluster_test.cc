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
  NetworkModel net;
  // A gather: one destination, the coordinator's ingress link.
  RoundMetrics gather;
  gather.machine_seconds = {0.010, 0.030, 0.020};
  gather.ingress.resize(1);
  gather.ingress[0].Record(125'000);  // 10 ms at 12.5 MB/s
  gather.ingress[0].Record(125'000);
  gather.coordinator_seconds = 0.005;
  double expected = 0.030 + (250'000 / 12.5e6) + 2 * net.latency_seconds + 0.005;
  EXPECT_NEAR(gather.SimulatedSeconds(net), expected, 1e-12);

  // An exchange on 3 machines: each destination's ingress link drains in
  // parallel and the slowest one gates the barrier. Machine 0 takes 250 KB
  // in 2 messages (22 ms with latency), machine 1 takes 500 KB in 2 messages
  // (42 ms), machine 2 takes 2 empty payloads (2 ms).
  RoundMetrics exchange;
  exchange.kind = FrameKind::kExchange;
  exchange.machine_seconds = {0.010, 0.030, 0.020};
  exchange.ingress.resize(3);
  exchange.ingress[0].Record(125'000);
  exchange.ingress[0].Record(125'000);
  exchange.ingress[1].Record(500'000);
  exchange.ingress[1].Record(0);
  exchange.ingress[2].Record(0);
  exchange.ingress[2].Record(0);
  exchange.coordinator_seconds = 0.005;
  EXPECT_NEAR(exchange.SimulatedSeconds(net), 0.030 + 0.042 + 0.005, 1e-12);
  EXPECT_EQ(exchange.Traffic().messages, 6u);
  EXPECT_EQ(exchange.Traffic().bytes, 750'000u);

  // The same traffic from a real exchange, plus 2.5 MB each machine keeps
  // for itself: a self-addressed payload never crosses the network, so it
  // enters no destination's ingress and costs no transfer time (counted, it
  // would make machine 0's link the slowest at 223 ms).
  SimCluster cluster(3, net, /*sequential=*/true, TransportUnderTest());
  SimCluster::ExchangeResult round = cluster.RunExchange([](size_t machine) {
    std::vector<std::vector<uint8_t>> outbox(3);
    outbox[machine].assign(2'500'000, 1);
    if (machine == 0) outbox[1].assign(500'000, 2);
    if (machine != 0) outbox[0].assign(125'000, 3);
    return outbox;
  });
  ASSERT_EQ(round.metrics.ingress.size(), 3u);
  for (size_t dst = 0; dst < 3; ++dst) {
    EXPECT_EQ(round.metrics.ingress[dst].messages,
              exchange.ingress[dst].messages) << "dst " << dst;
    EXPECT_EQ(round.metrics.ingress[dst].bytes, exchange.ingress[dst].bytes)
        << "dst " << dst;
  }
  EXPECT_NEAR(round.metrics.SimulatedSeconds(net) -
                  round.metrics.MaxMachineSeconds(),
              0.042, 1e-12);
}

TEST(MultiRoundStats, AccumulatesOneGatherAndOneExchange) {
  NetworkModel net;
  RoundMetrics gather;
  gather.machine_seconds = {0.010, 0.030};
  gather.ingress.resize(1);
  gather.ingress[0].Record(100);
  gather.ingress[0].Record(200);
  gather.coordinator_seconds = 0.001;

  RoundMetrics exchange;
  exchange.kind = FrameKind::kExchange;
  exchange.machine_seconds = {0.040, 0.020};
  exchange.ingress.resize(2);
  exchange.ingress[0].Record(1'000);
  exchange.ingress[1].Record(3'000);
  exchange.coordinator_seconds = 0.002;

  MultiRoundStats stats;
  stats.Accumulate(gather, net);
  stats.Accumulate(exchange, net);
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ(stats.exchange_rounds, 1u);
  // Coordinator ingress comes from the gather only, shuffle traffic from the
  // exchange only.
  EXPECT_EQ(stats.comm.messages, 2u);
  EXPECT_EQ(stats.comm.bytes, 300u);
  EXPECT_EQ(stats.shuffled.messages, 2u);
  EXPECT_EQ(stats.shuffled.bytes, 4'000u);
  EXPECT_DOUBLE_EQ(stats.max_machine_seconds, 0.030 + 0.040);
  EXPECT_DOUBLE_EQ(stats.coordinator_seconds, 0.001 + 0.002);
  EXPECT_DOUBLE_EQ(stats.simulated_seconds, gather.SimulatedSeconds(net) +
                                                exchange.SimulatedSeconds(net));
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
  EXPECT_EQ(result.metrics.kind, FrameKind::kGather);
  ASSERT_EQ(result.metrics.ingress.size(), 1u);
  EXPECT_EQ(result.metrics.ingress[0].messages, 5u);
  EXPECT_EQ(result.metrics.ingress[0].bytes, 1u + 2 + 3 + 4 + 5);
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
  EXPECT_EQ(result.metrics.Traffic().messages, 64u);
}

}  // namespace
}  // namespace dppr
