// Acceptance suite for the transport subsystem: the full offline
// precomputation and the whole query surface (single-node, preference-set,
// top-k; GPA and HGPA) must be bit-identical whether the cluster's payloads
// move through the in-process hand-off or real localhost TCP sockets — same
// vectors, same byte ledgers, same answers. The transport may only change
// where bytes travel, never what they say.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dppr/core/dist_precompute.h"
#include "dppr/core/hgpa.h"
#include "dppr/core/skeleton_rows.h"
#include "dppr/serve/query_server.h"
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

TransportOptions Backend(TransportBackend backend) {
  TransportOptions options;
  options.backend = backend;
  return options;
}

DistributedPrecompute::Result RunOffline(const Graph& g, const Hierarchy& h,
                                         const HgpaOptions& options,
                                         TransportBackend backend,
                                         size_t machines) {
  DistPrecomputeOptions dist;
  dist.num_machines = machines;
  dist.transport = Backend(backend);
  return DistributedPrecompute::Run(g, h, options, dist);
}

// Every stored vector of `b` must equal its `a` counterpart bit for bit, and
// both must hold the same vectors and bytes per machine. The walk mirrors
// the placement plan: hubs' partial vectors on the machine owning the hub,
// each (subgraph, owner) block's skeleton rows on the owner, own vectors on
// the machine owning the node.
void ExpectStoresIdentical(const HgpaIndex& a, const HgpaIndex& b) {
  ASSERT_EQ(a.num_machines(), b.num_machines());
  ASSERT_EQ(a.own_machine(), b.own_machine());
  for (size_t m = 0; m < a.num_machines(); ++m) {
    EXPECT_EQ(a.store(m).num_vectors(), b.store(m).num_vectors())
        << "machine " << m;
    EXPECT_EQ(a.store(m).TotalSerializedBytes(),
              b.store(m).TotalSerializedBytes())
        << "machine " << m;
  }
  const Hierarchy& h = a.hierarchy();
  auto expect_same = [&](VectorKind kind, SubgraphId sub, NodeId node) {
    const size_t machine = a.own_vector_machine(node);
    PpvRef x = a.store(machine).Find(kind, sub, node);
    PpvRef y = b.store(machine).Find(kind, sub, node);
    ASSERT_TRUE(x);
    ASSERT_TRUE(y);
    EXPECT_EQ(*x, *y) << "kind " << static_cast<int>(kind) << " sub " << sub
                      << " node " << node;
  };
  for (const auto& sub : h.subgraphs()) {
    for (NodeId hub : sub.hubs) {
      expect_same(VectorKind::kHubPartial, sub.id, hub);
    }
  }
  const size_t n = a.num_machines();
  for (size_t m = 0; m < n; ++m) {
    for (const auto& [sub, hubs] : a.hubs_on_machine(m)) {
      const SubgraphId block = SkeletonRowBlock(sub, m, n);
      for (NodeId u : h.subgraph(sub).nodes) {
        PpvRef x = a.store(m).Find(VectorKind::kSkeletonRow, block, u);
        PpvRef y = b.store(m).Find(VectorKind::kSkeletonRow, block, u);
        ASSERT_EQ(static_cast<bool>(x), static_cast<bool>(y))
            << "row of node " << u << " in block (" << sub << ", " << m << ")";
        if (x) EXPECT_EQ(*x, *y) << "row of node " << u;
      }
    }
  }
  for (SubgraphId leaf : h.leaves()) {
    for (NodeId u : h.subgraph(leaf).nodes) {
      if (h.is_hub(u)) continue;  // hubs' own vectors are their partials
      expect_same(VectorKind::kOwnVector, leaf, u);
    }
  }
}

void ExpectOfflineLedgersIdentical(const DistributedPrecompute::Result& inproc,
                                   const DistributedPrecompute::Result& tcp) {
  // The paper's offline metrics — rounds, coordinator ingress, per-machine
  // space — are payload-derived and must not see the backend at all.
  EXPECT_EQ(inproc.offline.rounds, tcp.offline.rounds);
  EXPECT_EQ(inproc.offline.comm.messages, tcp.offline.comm.messages);
  EXPECT_EQ(inproc.offline.comm.bytes, tcp.offline.comm.bytes);
  EXPECT_EQ(inproc.TotalBytes(), tcp.TotalBytes());
  EXPECT_EQ(inproc.MaxMachineBytes(), tcp.MaxMachineBytes());
  for (size_t m = 0; m < inproc.num_machines(); ++m) {
    EXPECT_EQ(inproc.stores[m].TotalSerializedBytes(),
              tcp.stores[m].TotalSerializedBytes())
        << "machine " << m;
    EXPECT_EQ(inproc.stores[m].num_vectors(), tcp.stores[m].num_vectors())
        << "machine " << m;
  }
}

// Bit-equality of the query surface, including each query's fragment-level
// byte accounting.
void ExpectQuerySurfaceIdentical(const Graph& g, const HgpaQueryEngine& inproc,
                                 const HgpaQueryEngine& tcp) {
  for (NodeId q = 0; q < g.num_nodes(); q += 5) {
    QueryMetrics im, tm;
    EXPECT_EQ(inproc.Query(q, &im), tcp.Query(q, &tm)) << "query " << q;
    EXPECT_EQ(im.comm.bytes, tm.comm.bytes) << "query " << q;
    EXPECT_EQ(im.comm.messages, tm.comm.messages) << "query " << q;
  }
  std::vector<HgpaQueryEngine::Preference> prefs{
      {0, 0.5}, {static_cast<NodeId>(g.num_nodes() / 2), 0.3}, {7, 0.2}};
  EXPECT_EQ(inproc.QueryPreferenceSet(prefs), tcp.QueryPreferenceSet(prefs));
}

TEST(NetEquivalence, HgpaOfflineAndQueriesMatchOverTcp) {
  Graph g = RandomDigraph(110, 3.0, 13);
  HgpaOptions options = SmallOptions();
  Hierarchy h = Hierarchy::Build(g, options.hierarchy);

  auto inproc_result =
      RunOffline(g, h, options, TransportBackend::kInProcess, 4);
  auto tcp_result = RunOffline(g, h, options, TransportBackend::kTcp, 4);
  ExpectOfflineLedgersIdentical(inproc_result, tcp_result);

  HgpaQueryEngine inproc(HgpaIndex::FromDistributed(std::move(inproc_result)),
                         NetworkModel{}, Backend(TransportBackend::kInProcess));
  HgpaQueryEngine tcp(HgpaIndex::FromDistributed(std::move(tcp_result)),
                      NetworkModel{}, Backend(TransportBackend::kTcp));
  ExpectStoresIdentical(inproc.index(), tcp.index());
  ExpectQuerySurfaceIdentical(g, inproc, tcp);
}

TEST(NetEquivalence, GpaOfflineAndQueriesMatchOverTcp) {
  Graph g = RandomDigraph(90, 3.0, 29);
  HgpaOptions options = SmallOptions();
  Hierarchy flat = Hierarchy::BuildFlat(g, 4, options.hierarchy.partition);

  auto inproc_result =
      RunOffline(g, flat, options, TransportBackend::kInProcess, 3);
  auto tcp_result = RunOffline(g, flat, options, TransportBackend::kTcp, 3);
  ExpectOfflineLedgersIdentical(inproc_result, tcp_result);

  HgpaQueryEngine inproc(HgpaIndex::FromDistributed(std::move(inproc_result)),
                         NetworkModel{}, Backend(TransportBackend::kInProcess));
  HgpaQueryEngine tcp(HgpaIndex::FromDistributed(std::move(tcp_result)),
                      NetworkModel{}, Backend(TransportBackend::kTcp));
  ExpectStoresIdentical(inproc.index(), tcp.index());
  ExpectQuerySurfaceIdentical(g, inproc, tcp);
}

TEST(NetEquivalence, SequentialAndParallelTcpOfflineAgree) {
  // Sequential mode (deterministic scheduling) and the ThreadPool path must
  // ship the same bytes over sockets — payload content never depends on
  // which worker ran first.
  Graph g = RandomDigraph(70, 3.0, 57);
  HgpaOptions options = SmallOptions();
  Hierarchy h = Hierarchy::Build(g, options.hierarchy);

  DistPrecomputeOptions sequential;
  sequential.num_machines = 3;
  sequential.sequential = true;
  sequential.transport = Backend(TransportBackend::kTcp);
  DistPrecomputeOptions parallel = sequential;
  parallel.sequential = false;

  auto a = DistributedPrecompute::Run(g, h, options, sequential);
  auto b = DistributedPrecompute::Run(g, h, options, parallel);
  ExpectOfflineLedgersIdentical(a, b);
  ExpectStoresIdentical(HgpaIndex::FromDistributed(std::move(a)),
                        HgpaIndex::FromDistributed(std::move(b)));
}

TEST(NetEquivalence, LocalityMatchesCentralizedAcrossTransportsAndStores) {
  // The locality pipeline's acceptance matrix: the distributed offline run,
  // crossed with both transports and both storage backends, must store
  // exactly what the centralized oracle distributes under the same placement
  // plan and answer the query surface bit for bit. The shuffle may only
  // change who computes and which link the record crosses — never its bytes.
  Graph g = RandomDigraph(100, 3.0, 67);
  HgpaOptions options = SmallOptions();
  Hierarchy h = Hierarchy::Build(g, options.hierarchy);
  auto pre = HgpaPrecomputation::Run(g, h, options);

  for (TransportBackend transport :
       {TransportBackend::kInProcess, TransportBackend::kTcp}) {
    for (StorageBackend storage :
         {StorageBackend::kMemoryOwned, StorageBackend::kDisk}) {
      DistPrecomputeOptions dist;
      dist.num_machines = 4;
      dist.transport = Backend(transport);
      dist.storage = StorageOptions{};
      dist.storage.backend = storage;
      auto locality = DistributedPrecompute::Run(g, h, options, dist);
      EXPECT_GT(locality.offline.exchange_rounds, 0u);
      HgpaQueryEngine oracle(HgpaIndex::Distribute(pre, 4, StorageOptions{}),
                             NetworkModel{}, Backend(transport));
      HgpaQueryEngine engine(HgpaIndex::FromDistributed(std::move(locality)),
                             NetworkModel{}, Backend(transport));
      ExpectStoresIdentical(oracle.index(), engine.index());
      ExpectQuerySurfaceIdentical(g, oracle, engine);
    }
  }
}

TEST(NetEquivalence, GpaLocalityMatchesCentralizedOverTcp) {
  Graph g = RandomDigraph(80, 3.0, 71);
  HgpaOptions options = SmallOptions();
  Hierarchy flat = Hierarchy::BuildFlat(g, 4, options.hierarchy.partition);
  auto pre = HgpaPrecomputation::Run(g, flat, options);

  auto locality = RunOffline(g, flat, options, TransportBackend::kTcp, 3);
  HgpaQueryEngine oracle(HgpaIndex::Distribute(pre, 3, StorageOptions{}),
                         NetworkModel{}, Backend(TransportBackend::kTcp));
  HgpaQueryEngine engine(HgpaIndex::FromDistributed(std::move(locality)),
                         NetworkModel{}, Backend(TransportBackend::kTcp));
  ExpectStoresIdentical(oracle.index(), engine.index());
  ExpectQuerySurfaceIdentical(g, oracle, engine);
}

TEST(NetEquivalence, LocalityShuffledBytesIdenticalAcrossBackends) {
  // The shuffle ledger column is payload-derived like the gather one: the
  // same bytes must be reported whether the exchange rode the in-process
  // mailbox or TCP sockets, sequential or parallel.
  Graph g = RandomDigraph(90, 3.0, 83);
  HgpaOptions options = SmallOptions();
  Hierarchy h = Hierarchy::Build(g, options.hierarchy);

  std::vector<DistributedPrecompute::Result> runs;
  for (TransportBackend transport :
       {TransportBackend::kInProcess, TransportBackend::kTcp}) {
    for (bool sequential : {false, true}) {
      DistPrecomputeOptions dist;
      dist.num_machines = 4;
      dist.sequential = sequential;
      dist.transport = Backend(transport);
      runs.push_back(DistributedPrecompute::Run(g, h, options, dist));
    }
  }
  const auto& first = runs.front();
  EXPECT_GT(first.offline.shuffled.bytes, 0u);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].offline.shuffled.bytes, first.offline.shuffled.bytes);
    EXPECT_EQ(runs[i].offline.shuffled.messages,
              first.offline.shuffled.messages);
    EXPECT_EQ(runs[i].offline.rounds, first.offline.rounds);
    EXPECT_EQ(runs[i].offline.exchange_rounds, first.offline.exchange_rounds);
    ASSERT_EQ(runs[i].levels.size(), first.levels.size());
    for (size_t l = 0; l < first.levels.size(); ++l) {
      EXPECT_EQ(runs[i].levels[l].shuffled_bytes, first.levels[l].shuffled_bytes);
      EXPECT_EQ(runs[i].levels[l].local_bytes, first.levels[l].local_bytes);
      EXPECT_EQ(runs[i].levels[l].induces, first.levels[l].induces);
    }
  }
}

TEST(NetEquivalence, ServedTopKAndStatsMatchOverTcp) {
  Graph g = RandomDigraph(100, 3.0, 41);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  QueryServer inproc_server(
      HgpaQueryEngine(HgpaIndex::Distribute(pre, 3), NetworkModel{},
                      Backend(TransportBackend::kInProcess)));
  QueryServer tcp_server(
      HgpaQueryEngine(HgpaIndex::Distribute(pre, 3), NetworkModel{},
                      Backend(TransportBackend::kTcp)));

  for (NodeId q = 0; q < g.num_nodes(); q += 11) {
    QueryServer::TopKResponse a = inproc_server.QueryTopK(q, 10);
    QueryServer::TopKResponse b = tcp_server.QueryTopK(q, 10);
    ASSERT_EQ(a.top.size(), b.top.size()) << "query " << q;
    for (size_t i = 0; i < a.top.size(); ++i) {
      EXPECT_EQ(a.top[i].index, b.top[i].index) << "query " << q << " rank " << i;
      EXPECT_EQ(a.top[i].value, b.top[i].value) << "query " << q << " rank " << i;
    }
  }

  // The servers ran the same requests, so the coordinator byte ledger must
  // agree exactly across backends.
  ServerStats a = inproc_server.Stats();
  ServerStats b = tcp_server.Stats();
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.comm.bytes, b.comm.bytes);
  EXPECT_EQ(a.comm.messages, b.comm.messages);
}

}  // namespace
}  // namespace dppr
