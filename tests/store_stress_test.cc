// Concurrent pin/evict stress on the disk backend's residency cache: many
// threads hammering lookups through a cache budget of ~one vector, so every
// access races loads, insertions, and evictions of the same entries. Run
// under TSAN in CI (see .github/workflows/ci.yml); the assertions double as
// a bit-identity check — eviction pressure must never change an answer.

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "dppr/common/rng.h"
#include "dppr/core/hgpa.h"
#include "dppr/serve/query_server.h"
#include "dppr/store/ppv_store.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;
using ::dppr::testing::RandomSparseVector;

TEST(StoreStress, ConcurrentPinEvictThroughOneVectorBudget) {
  constexpr size_t kVectors = 8;
  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 300;

  StorageOptions options;
  options.backend = StorageBackend::kDisk;
  // Roughly one record resident: almost every lookup races a load against
  // another thread's eviction of the same entry.
  options.cache_bytes = 600;
  PpvStore store(options);
  std::vector<SparseVector> expected;
  for (NodeId node = 0; node < kVectors; ++node) {
    expected.push_back(RandomSparseVector(node, 50));
    store.PutOwned(VectorKind::kOwnVector, 0, node, expected.back(),
                   expected.back().SerializedBytes());
  }

  std::vector<std::thread> threads;
  std::vector<uint8_t> ok(kThreads, 0);
  // One sink per thread: a scope's sink is written unsynchronized.
  std::vector<StorageStats> sinks(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      StorageStatsScope scope(&sinks[t]);
      Rng rng(1000 + t);
      bool all_good = true;
      for (size_t i = 0; i < kIters; ++i) {
        NodeId node = static_cast<NodeId>(rng.Uniform(kVectors));
        PpvRef ref = store.Find(VectorKind::kOwnVector, 0, node);
        // The pin must keep the vector intact while other threads churn the
        // cache underneath it.
        all_good = all_good && ref && *ref == expected[node];
      }
      ok[t] = all_good ? 1 : 0;
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[t]) << "thread " << t;

  StorageStats stats;
  for (const StorageStats& sink : sinks) stats += sink;
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, kThreads * kIters);
  EXPECT_GT(stats.cache_misses, 0u);
}

TEST(StoreStress, ConcurrentColdMissesOfOneKeyKeepOneCacheEntry) {
  // T threads miss the same cold vector at once. Each reads the extent
  // itself unless another thread's read already reached the cache, so the
  // number of reads is racy; what must hold regardless of interleaving is
  // that every lookup counts once, as a hit or a miss, every miss bills one
  // extent read, and the cache holds the key once. Runs under TSAN in CI.
  StorageOptions options;
  options.backend = StorageBackend::kDisk;
  options.cache_bytes = 64 << 20;
  PpvStore store(options);
  SparseVector expected = RandomSparseVector(7, 80);
  store.PutOwned(VectorKind::kOwnVector, 0, 7, expected,
                 expected.SerializedBytes());

  // Learn the record's on-disk extent length from a solo cold read.
  PpvStore probe = store;  // clone: shares the spill file, fresh cache
  StorageStats solo;
  {
    StorageStatsScope scope(&solo);
    (void)probe.Find(VectorKind::kOwnVector, 0, 7);
  }
  const uint64_t extent_bytes = solo.disk_bytes_read;
  ASSERT_GT(extent_bytes, 0u);

  constexpr size_t kThreads = 8;
  PpvStore cold = store;  // fresh cache: every thread starts at a miss
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  std::vector<uint8_t> ok(kThreads, 0);
  std::vector<StorageStats> sinks(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      StorageStatsScope scope(&sinks[t]);
      start.arrive_and_wait();
      PpvRef ref = cold.Find(VectorKind::kOwnVector, 0, 7);
      ok[t] = (ref && *ref == expected) ? 1 : 0;
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[t]) << "thread " << t;

  StorageStats stats;
  for (const StorageStats& sink : sinks) stats += sink;
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, kThreads);
  EXPECT_GE(stats.cache_misses, 1u);
  EXPECT_EQ(stats.disk_bytes_read, stats.cache_misses * extent_bytes);
  EXPECT_EQ(cold.ResidentBytes(), extent_bytes);  // one cache entry
}

TEST(StoreStress, ConcurrentQueriesThroughTinyCacheStayBitIdentical) {
  // Whole-stack version: K client threads against a QueryServer whose index
  // lives on disk behind a pathologically small cache. Answers must match
  // the in-memory engine bit for bit, interleaving notwithstanding.
  Graph g = RandomDigraph(80, 3.0, 5);
  HgpaOptions options;
  options.ppr.tolerance = 1e-7;
  options.hierarchy.max_levels = 2;
  options.hierarchy.min_subgraph_size = 4;
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  StorageOptions memory;
  memory.backend = StorageBackend::kMemoryOwned;
  HgpaQueryEngine oracle(HgpaIndex::Distribute(pre, 3, memory));
  std::vector<SparseVector> want;
  for (NodeId q = 0; q < g.num_nodes(); ++q) want.push_back(oracle.Query(q));

  StorageOptions disk;
  disk.backend = StorageBackend::kDisk;
  disk.cache_bytes = 1;  // every machine-side lookup reads the spill file
  QueryServer server(HgpaQueryEngine(HgpaIndex::Distribute(pre, 3, disk)));

  constexpr size_t kThreads = 6;
  constexpr size_t kQueriesPerThread = 40;
  std::vector<std::thread> threads;
  std::vector<uint8_t> ok(kThreads, 0);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(77 + t);
      bool all_good = true;
      for (size_t i = 0; i < kQueriesPerThread; ++i) {
        NodeId q = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
        all_good = all_good && server.Query(q).ppv == want[q];
      }
      ok[t] = all_good ? 1 : 0;
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[t]) << "thread " << t;

  ServerStats stats = server.Stats();
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.disk_bytes_read, 0u);
}

}  // namespace
}  // namespace dppr
