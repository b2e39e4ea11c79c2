// Acceptance suite for the storage-backend refactor: a disk-backed index
// must answer single-node, preference-set, and top-k queries bit-identically
// to the in-memory owning store on GPA and HGPA — including with a cache
// budget smaller than the largest single vector, where every machine-side
// lookup is a miss served straight off the spill file.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dppr/core/dist_precompute.h"
#include "dppr/core/hgpa.h"
#include "dppr/serve/query_server.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::DistOptionsUnderTest;
using ::dppr::testing::RandomDigraph;
using ::dppr::testing::TransportUnderTest;

HgpaOptions SmallOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 3;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

StorageOptions Backend(StorageBackend backend, size_t cache_bytes = 64 << 20) {
  StorageOptions options;
  options.backend = backend;
  options.cache_bytes = cache_bytes;
  return options;
}

DistributedPrecompute::Result RunOffline(const Graph& g, const Hierarchy& h,
                                         const HgpaOptions& options,
                                         const StorageOptions& storage,
                                         size_t machines) {
  DistPrecomputeOptions dist = DistOptionsUnderTest();
  dist.num_machines = machines;
  dist.storage = storage;
  return DistributedPrecompute::Run(g, h, options, dist);
}

// Store lookups each engine's queries charged, summed over their
// QueryMetrics::storage.
struct Lookups {
  StorageStats memory;
  StorageStats disk;
};

// Bit-equality of the full query surface between an owning in-memory index
// and a disk index over the same offline run.
Lookups ExpectQuerySurfaceIdentical(const Graph& g, HgpaQueryEngine& memory,
                                    HgpaQueryEngine& disk) {
  Lookups lookups;
  auto count = [&](const QueryMetrics& m, const QueryMetrics& d) {
    lookups.memory += m.storage;
    lookups.disk += d.storage;
  };
  for (NodeId q = 0; q < g.num_nodes(); q += 5) {
    QueryMetrics m, d;
    EXPECT_EQ(memory.Query(q, &m), disk.Query(q, &d)) << "query " << q;
    count(m, d);
  }
  std::vector<HgpaQueryEngine::Preference> prefs{
      {0, 0.5}, {static_cast<NodeId>(g.num_nodes() / 2), 0.3}, {7, 0.2}};
  QueryMetrics m, d;
  EXPECT_EQ(memory.QueryPreferenceSet(prefs, &m),
            disk.QueryPreferenceSet(prefs, &d));
  count(m, d);
  return lookups;
}

TEST(StoreEquivalence, HgpaDiskMatchesMemoryOwned) {
  Graph g = RandomDigraph(110, 3.0, 13);
  HgpaOptions options = SmallOptions();
  Hierarchy h = Hierarchy::Build(g, options.hierarchy);

  auto mem_result =
      RunOffline(g, h, options, Backend(StorageBackend::kMemoryOwned), 4);
  // Tiny cache: smaller than any vector's record, so every access misses.
  auto disk_result =
      RunOffline(g, h, options, Backend(StorageBackend::kDisk, 1), 4);
  EXPECT_EQ(mem_result.TotalBytes(), disk_result.TotalBytes());
  EXPECT_EQ(mem_result.MaxMachineBytes(), disk_result.MaxMachineBytes());

  HgpaQueryEngine memory(HgpaIndex::FromDistributed(std::move(mem_result)),
                         {}, TransportUnderTest());
  HgpaQueryEngine disk(HgpaIndex::FromDistributed(std::move(disk_result)),
                       {}, TransportUnderTest());
  const Lookups lookups = ExpectQuerySurfaceIdentical(g, memory, disk);

  const StorageStats& stats = lookups.disk;
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.disk_bytes_read, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);  // budget 1 can never keep anything
  EXPECT_EQ(lookups.memory.cache_misses, 0u);
}

TEST(StoreEquivalence, GpaDiskMatchesMemoryOwned) {
  Graph g = RandomDigraph(90, 3.0, 29);
  HgpaOptions options = SmallOptions();
  Hierarchy flat = Hierarchy::BuildFlat(g, 4, options.hierarchy.partition);

  auto mem_result =
      RunOffline(g, flat, options, Backend(StorageBackend::kMemoryOwned), 3);
  auto disk_result =
      RunOffline(g, flat, options, Backend(StorageBackend::kDisk, 1), 3);

  HgpaQueryEngine memory(HgpaIndex::FromDistributed(std::move(mem_result)),
                         {}, TransportUnderTest());
  HgpaQueryEngine disk(HgpaIndex::FromDistributed(std::move(disk_result)),
                       {}, TransportUnderTest());
  EXPECT_GT(ExpectQuerySurfaceIdentical(g, memory, disk).disk.cache_misses, 0u);
}

TEST(StoreEquivalence, CentralizedDistributeOnDiskMatchesMemory) {
  // The centralized oracle path itself can spill: Distribute with the disk
  // backend serializes every placed vector, and queries still agree bit for
  // bit with the in-memory distribution of the same precomputation.
  Graph g = RandomDigraph(100, 3.0, 41);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  HgpaQueryEngine memory(
      HgpaIndex::Distribute(pre, 4, Backend(StorageBackend::kMemoryOwned)), {},
      TransportUnderTest());
  HgpaQueryEngine disk(
      HgpaIndex::Distribute(pre, 4, Backend(StorageBackend::kDisk, 1)), {},
      TransportUnderTest());
  ExpectQuerySurfaceIdentical(g, memory, disk);
}

TEST(StoreEquivalence, TopKThroughServerMatchesAndReportsColdServing) {
  Graph g = RandomDigraph(100, 3.0, 57);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  QueryServer memory_server(HgpaQueryEngine(
      HgpaIndex::Distribute(pre, 3, Backend(StorageBackend::kMemoryOwned)), {},
      TransportUnderTest()));
  QueryServer disk_server(HgpaQueryEngine(
      HgpaIndex::Distribute(pre, 3, Backend(StorageBackend::kDisk, 1)), {},
      TransportUnderTest()));

  for (NodeId q = 0; q < g.num_nodes(); q += 11) {
    QueryServer::TopKResponse a = memory_server.QueryTopK(q, 10);
    QueryServer::TopKResponse b = disk_server.QueryTopK(q, 10);
    ASSERT_EQ(a.top.size(), b.top.size()) << "query " << q;
    for (size_t i = 0; i < a.top.size(); ++i) {
      EXPECT_EQ(a.top[i].index, b.top[i].index) << "query " << q << " rank " << i;
      EXPECT_EQ(a.top[i].value, b.top[i].value) << "query " << q << " rank " << i;
    }
  }

  // Cold vs. warm serving is observable: the disk server's window shows
  // misses and spill reads, the in-memory one only hits.
  ServerStats disk_stats = disk_server.Stats();
  EXPECT_GT(disk_stats.cache_misses, 0u);
  EXPECT_GT(disk_stats.disk_bytes_read, 0u);
  ServerStats memory_stats = memory_server.Stats();
  EXPECT_EQ(memory_stats.cache_misses, 0u);
  EXPECT_EQ(memory_stats.disk_bytes_read, 0u);
  EXPECT_GT(memory_stats.cache_hits, 0u);
}

TEST(StoreEquivalence, WarmCacheIsAlsoBitIdentical) {
  // A budget large enough to keep the working set resident must of course
  // agree too — the cache only changes where bytes are read from.
  Graph g = RandomDigraph(80, 3.0, 71);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  HgpaQueryEngine memory(
      HgpaIndex::Distribute(pre, 3, Backend(StorageBackend::kMemoryOwned)), {},
      TransportUnderTest());
  HgpaQueryEngine disk(
      HgpaIndex::Distribute(pre, 3, Backend(StorageBackend::kDisk)), {},
      TransportUnderTest());

  // Two passes: pass one loads (misses), pass two hits; both bit-identical.
  StorageStats stats;
  for (int pass = 0; pass < 2; ++pass) {
    for (NodeId q = 0; q < g.num_nodes(); q += 7) {
      QueryMetrics metrics;
      EXPECT_EQ(memory.Query(q), disk.Query(q, &metrics))
          << "pass " << pass << " query " << q;
      stats += metrics.storage;
    }
  }
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(disk.index().ResidentBytesTotal(), 0u);
}

}  // namespace
}  // namespace dppr
