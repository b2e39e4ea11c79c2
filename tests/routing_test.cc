#include "dppr/core/routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "dppr/core/hgpa.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;
using ::dppr::testing::StorageUnderTest;
using ::dppr::testing::TransportUnderTest;

HgpaOptions RoutingTestOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 4;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

std::shared_ptr<const HgpaPrecomputation> Precompute(const Graph& graph,
                                                     bool hgpa = true) {
  HgpaOptions options = RoutingTestOptions();
  if (!hgpa) options.hierarchy.max_levels = 1;  // GPA: flat hierarchy
  return HgpaPrecomputation::RunHgpa(graph, options);
}

HgpaQueryEngine MakeEngine(std::shared_ptr<const HgpaPrecomputation> pre,
                           size_t machines, RoutingMode mode,
                           size_t replicate_bytes = 0) {
  ReplicationOptions replication;
  replication.budget_bytes = replicate_bytes;
  return HgpaQueryEngine(
      HgpaIndex::Distribute(std::move(pre), machines, StorageUnderTest(),
                            replication),
      NetworkModel{}, TransportUnderTest(), RoutingOptions{mode});
}

/// The core invariant: routed answers are BIT-identical to broadcast for
/// every query node — same fold order per owner, owner-ascending coordinator
/// reduce, so the floating-point sums match exactly.
void ExpectRoutedMatchesBroadcast(const Graph& graph, size_t machines,
                                  bool hgpa, size_t replicate_bytes) {
  auto pre = Precompute(graph, hgpa);
  HgpaQueryEngine routed =
      MakeEngine(pre, machines, RoutingMode::kRoute, replicate_bytes);
  HgpaQueryEngine broadcast =
      MakeEngine(pre, machines, RoutingMode::kBroadcast);
  ASSERT_EQ(routed.routing_mode(), RoutingMode::kRoute);
  ASSERT_EQ(broadcast.routing_mode(), RoutingMode::kBroadcast);
  // The broadcast engine runs the full plan: every machine, each its own
  // single owner.
  for (NodeId q = 0; q < graph.num_nodes(); ++q) {
    NodeId sources[] = {q};
    QueryRouter::Plan plan = broadcast.router()->Route(sources);
    ASSERT_EQ(plan.machines.size(), machines) << "query " << q;
    ASSERT_EQ(plan.owners.size(), machines) << "query " << q;
    EXPECT_EQ(plan.contributors, machines) << "query " << q;
    for (size_t m = 0; m < machines; ++m) {
      EXPECT_EQ(plan.machines[m], m) << "query " << q;
      EXPECT_EQ(plan.owners[m], std::vector<size_t>{m}) << "query " << q;
    }
  }

  uint64_t routed_messages = 0, broadcast_messages = 0;
  for (NodeId q = 0; q < graph.num_nodes(); ++q) {
    QueryMetrics routed_metrics, broadcast_metrics;
    SparseVector a = routed.Query(q, &routed_metrics);
    SparseVector b = broadcast.Query(q, &broadcast_metrics);
    EXPECT_EQ(a, b) << "query " << q;
    EXPECT_LE(routed_metrics.machines_contacted,
              broadcast_metrics.machines_contacted)
        << "query " << q;
    EXPECT_GE(routed_metrics.machines_contacted, 1u) << "query " << q;
    EXPECT_EQ(broadcast_metrics.machines_contacted, machines);
    routed_messages += routed_metrics.comm.messages;
    broadcast_messages += broadcast_metrics.comm.messages;
  }
  EXPECT_LE(routed_messages, broadcast_messages);
}

TEST(QueryRouting, RoutedBitIdenticalToBroadcastHgpa) {
  ExpectRoutedMatchesBroadcast(RandomDigraph(90, 3.0, 17), 4, /*hgpa=*/true,
                               /*replicate_bytes=*/0);
}

TEST(QueryRouting, RoutedBitIdenticalToBroadcastGpa) {
  ExpectRoutedMatchesBroadcast(RandomDigraph(90, 3.0, 29), 4, /*hgpa=*/false,
                               /*replicate_bytes=*/0);
}

TEST(QueryRouting, RoutedBitIdenticalWithReplication) {
  // A generous budget replicates most hub groups: plans collapse toward the
  // source's own machine, and answers must STILL be bit-identical.
  ExpectRoutedMatchesBroadcast(RandomDigraph(90, 3.0, 17), 4, /*hgpa=*/true,
                               /*replicate_bytes=*/64 << 20);
}

TEST(QueryRouting, ManyMachinesLeaveNonContributors) {
  // More machines than any one chain touches: routing must skip machines
  // outright: a skipped machine runs nothing and ships no message.
  Graph graph = RandomDigraph(40, 1.5, 7);
  auto pre = Precompute(graph);
  HgpaQueryEngine routed = MakeEngine(pre, 8, RoutingMode::kRoute);
  HgpaQueryEngine broadcast = MakeEngine(pre, 8, RoutingMode::kBroadcast);
  bool any_skipped = false;
  for (NodeId q = 0; q < graph.num_nodes(); ++q) {
    QueryMetrics metrics;
    SparseVector a = routed.Query(q, &metrics);
    EXPECT_EQ(a, broadcast.Query(q)) << "query " << q;
    if (metrics.machines_contacted < 8) {
      any_skipped = true;
      EXPECT_EQ(metrics.comm.messages, metrics.machines_contacted)
          << "query " << q;
    }
  }
  EXPECT_TRUE(any_skipped);
}

TEST(QueryRouting, PreferenceSetsMatchBroadcast) {
  Graph graph = RandomDigraph(80, 3.0, 5);
  auto pre = Precompute(graph);
  HgpaQueryEngine routed = MakeEngine(pre, 3, RoutingMode::kRoute);
  HgpaQueryEngine broadcast = MakeEngine(pre, 3, RoutingMode::kBroadcast);
  using Preference = HgpaQueryEngine::Preference;

  std::vector<std::vector<Preference>> sets{
      {{7, 1.0}},
      {{3, 0.5}, {40, 0.5}},
      {{12, 0.25}, {13, 0.25}, {60, 0.5}},
  };
  for (size_t i = 0; i < sets.size(); ++i) {
    QueryMetrics metrics;
    SparseVector got = routed.QueryPreferenceSet(sets[i], &metrics);
    EXPECT_EQ(got, broadcast.QueryPreferenceSet(sets[i])) << "set " << i;
    EXPECT_GE(metrics.comm.messages, 1u) << "set " << i;
    EXPECT_EQ(metrics.comm.messages, metrics.machines_contacted) << "set " << i;
  }
}

TEST(QueryRouting, ZeroWeightPreferencesContactNoMachines) {
  // Under both plans a source set with no nonzero weight skips the round.
  Graph graph = RandomDigraph(40, 3.0, 9);
  auto pre = Precompute(graph);
  for (RoutingMode mode : {RoutingMode::kRoute, RoutingMode::kBroadcast}) {
    HgpaQueryEngine engine = MakeEngine(pre, 3, mode);
    QueryMetrics metrics;
    SparseVector ppv = engine.QueryPreferenceSet(
        std::vector<HgpaQueryEngine::Preference>{{5, 0.0}}, &metrics);
    EXPECT_EQ(ppv.size(), 0u);
    EXPECT_EQ(metrics.machines_contacted, 0u);
    EXPECT_EQ(metrics.comm.messages, 0u);
  }
}

TEST(QueryRouting, PlanInvariants) {
  Graph graph = RandomDigraph(90, 3.0, 17);
  auto pre = Precompute(graph);
  HgpaIndex index = HgpaIndex::Distribute(pre, 5, StorageUnderTest());
  QueryRouter router(index.placement());
  for (NodeId q = 0; q < graph.num_nodes(); ++q) {
    NodeId sources[] = {q};
    QueryRouter::Plan plan = router.Route(sources);
    ASSERT_GE(plan.machines.size(), 1u);
    ASSERT_EQ(plan.owners.size(), plan.machines.size());
    // Participants sorted strictly ascending; every participant covers at
    // least itself; owner lists sorted; owners covered exactly once overall.
    std::vector<bool> covered(index.num_machines(), false);
    size_t owners_total = 0;
    for (size_t i = 0; i < plan.machines.size(); ++i) {
      if (i > 0) EXPECT_LT(plan.machines[i - 1], plan.machines[i]);
      ASSERT_LT(plan.machines[i], index.num_machines());
      ASSERT_GE(plan.owners[i].size(), 1u);
      for (size_t j = 0; j < plan.owners[i].size(); ++j) {
        if (j > 0) EXPECT_LT(plan.owners[i][j - 1], plan.owners[i][j]);
        EXPECT_FALSE(covered[plan.owners[i][j]]);
        covered[plan.owners[i][j]] = true;
      }
      owners_total += plan.owners[i].size();
      EXPECT_TRUE(covered[plan.machines[i]]) << "machine must cover itself";
    }
    EXPECT_EQ(owners_total, plan.contributors);
    // The source's own-vector machine always participates or is absorbed.
    EXPECT_TRUE(covered[index.placement()->OwnMachine(q)]);
  }
}

// The router as it was when it kept its own snapshot of the placement: per
// subgraph, the machines owning hubs there (from HubsOn), each absorbable
// when its block is replicated; per node, whether its own term is readable
// everywhere (a hub whose partial's block, found by searching HubsOn, is
// replicated). Plans one source with the same anchor rules.
class SnapshotRouter {
 public:
  explicit SnapshotRouter(const Placement& placement) : placement_(placement) {
    const Hierarchy& h = placement.hierarchy();
    contributors_.resize(h.num_subgraphs());
    for (size_t m = 0; m < placement.num_machines(); ++m) {
      for (const auto& [sub, hubs] : placement.HubsOn(m)) {
        contributors_[sub].push_back({m, placement.Replicated(sub, m)});
      }
    }
    own_replicated_.assign(h.num_nodes(), false);
    for (NodeId u = 0; u < h.num_nodes(); ++u) {
      if (!h.is_hub(u)) continue;
      const SubgraphId sub = h.final_subgraph(u);
      for (size_t m = 0; m < placement.num_machines(); ++m) {
        auto it = placement.HubsOn(m).find(sub);
        if (it == placement.HubsOn(m).end()) continue;
        if (std::find(it->second.begin(), it->second.end(), u) !=
            it->second.end()) {
          own_replicated_[u] = placement.Replicated(sub, m);
        }
      }
    }
  }

  QueryRouter::Plan Route(NodeId u) const {
    const size_t n = placement_.num_machines();
    std::vector<int> state(n, 0);  // 0 none, 1 absorbable, 2 must run
    for (SubgraphId sub : placement_.hierarchy().Chain(u)) {
      for (const auto& [machine, absorbable] : contributors_[sub]) {
        state[machine] = std::max(state[machine], absorbable ? 1 : 2);
      }
    }
    const size_t own = placement_.OwnMachine(u);
    state[own] = std::max(state[own], own_replicated_[u] ? 1 : 2);

    QueryRouter::Plan plan;
    std::vector<size_t> absorbed;
    for (size_t m = 0; m < n; ++m) {
      if (state[m] == 2) plan.machines.push_back(m);
      if (state[m] == 1) absorbed.push_back(m);
    }
    plan.contributors = plan.machines.size() + absorbed.size();
    if (plan.contributors == 0) return plan;
    size_t anchor = own;
    if (plan.machines.empty()) {
      plan.machines.push_back(own);
    } else if (state[own] != 2) {
      anchor = plan.machines.front();
    }
    for (size_t m : plan.machines) {
      plan.owners.push_back({m});
      if (m != anchor) continue;
      for (size_t a : absorbed) {
        if (a != anchor) plan.owners.back().push_back(a);
      }
      std::sort(plan.owners.back().begin(), plan.owners.back().end());
    }
    return plan;
  }

 private:
  const Placement& placement_;
  std::vector<std::vector<std::pair<size_t, bool>>> contributors_;
  std::vector<bool> own_replicated_;
};

TEST(QueryRouting, RouteMatchesSnapshotOracle) {
  Graph graph = RandomDigraph(90, 3.0, 23);
  for (bool hgpa : {true, false}) {
    auto pre = Precompute(graph, hgpa);
    for (size_t machines : {3u, 5u}) {
      const size_t full =
          HgpaIndex::Distribute(pre, machines, StorageUnderTest())
              .MaxMachineBytes();
      // No replication, some blocks replicated, and every block replicated.
      for (size_t budget : {size_t{0}, full, size_t{64} << 20}) {
        ReplicationOptions replication;
        replication.budget_bytes = budget;
        HgpaIndex index = HgpaIndex::Distribute(
            pre, machines, StorageUnderTest(), replication);
        if (budget > 0) EXPECT_GT(index.num_replicated_hubs(), 0u);
        QueryRouter router(index.placement());
        SnapshotRouter oracle(*index.placement());
        for (NodeId q = 0; q < graph.num_nodes(); ++q) {
          EXPECT_EQ(router.Route({&q, 1}), oracle.Route(q))
              << (hgpa ? "hgpa" : "gpa") << " machines " << machines
              << " budget " << budget << " query " << q;
        }
      }
    }
  }
}

TEST(QueryRouting, ReplicationBookkeeping) {
  Graph graph = RandomDigraph(90, 3.0, 17);
  auto pre = Precompute(graph);
  constexpr size_t kBudget = 1 << 16;
  ReplicationOptions replication;
  replication.budget_bytes = kBudget;
  HgpaIndex plain = HgpaIndex::Distribute(pre, 4, StorageUnderTest());
  HgpaIndex replicated =
      HgpaIndex::Distribute(pre, 4, StorageUnderTest(), replication);

  EXPECT_EQ(plain.num_replicated_hubs(), 0u);
  EXPECT_EQ(plain.replica_bytes_per_machine(), 0u);
  EXPECT_GT(replicated.num_replicated_hubs(), 0u);
  EXPECT_GT(replicated.replica_bytes_per_machine(), 0u);
  EXPECT_LE(replicated.replica_bytes_per_machine(), kBudget);
  // Replicas are whole (sub, owner) blocks, so the replicated hubs are
  // exactly the hubs of the replicated blocks.
  const Placement& placement = *replicated.placement();
  size_t hubs_in_replicated_blocks = 0;
  for (size_t m = 0; m < replicated.num_machines(); ++m) {
    for (const auto& [sub, hubs] : placement.HubsOn(m)) {
      if (placement.Replicated(sub, m)) hubs_in_replicated_blocks += hubs.size();
    }
  }
  EXPECT_EQ(hubs_in_replicated_blocks, replicated.num_replicated_hubs());
  // Replication inflates per-machine bytes by exactly the replica ledger.
  std::vector<size_t> plain_bytes = plain.BytesPerMachine();
  std::vector<size_t> repl_bytes = replicated.BytesPerMachine();
  for (size_t m = 0; m < 4; ++m) {
    EXPECT_GE(repl_bytes[m], plain_bytes[m]);
    EXPECT_LE(repl_bytes[m] - plain_bytes[m],
              replicated.replica_bytes_per_machine());
  }
}

}  // namespace
}  // namespace dppr
