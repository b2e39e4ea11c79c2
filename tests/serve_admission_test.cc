#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "dppr/core/hgpa.h"
#include "dppr/serve/query_server.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;
using ::dppr::testing::StorageUnderTest;
using ::dppr::testing::TransportUnderTest;

HgpaOptions ServeTestOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 4;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

HgpaQueryEngine MakeEngine(const Graph& graph, size_t machines) {
  auto pre = HgpaPrecomputation::RunHgpa(graph, ServeTestOptions());
  return HgpaQueryEngine(
      HgpaIndex::Distribute(pre, machines, StorageUnderTest()), {},
      TransportUnderTest());
}

TEST(ResultCaching, HitIsBitIdenticalAndSkipsTheRound) {
  Graph graph = RandomDigraph(80, 3.0, 11);
  HgpaQueryEngine engine = MakeEngine(graph, 3);
  ServeOptions options;
  options.result_cache_bytes = 4 << 20;
  QueryServer server(std::move(engine), options);

  QueryServer::Response miss = server.Query(9);
  EXPECT_FALSE(miss.cache_hit);
  QueryServer::Response hit = server.Query(9);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.ppv, miss.ppv);
  EXPECT_EQ(hit.metrics.comm.bytes, 0u);
  EXPECT_EQ(hit.metrics.machines_contacted, 0u);

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.result_cache_hits, 1u);
  EXPECT_EQ(stats.result_cache_misses, 1u);
  EXPECT_GT(stats.result_cache_bytes, 0u);
}

TEST(ResultCaching, PreferenceSetsAreNeverCached) {
  Graph graph = RandomDigraph(60, 3.0, 13);
  HgpaQueryEngine engine = MakeEngine(graph, 3);
  ServeOptions options;
  options.result_cache_bytes = 4 << 20;
  QueryServer server(std::move(engine), options);

  std::vector<HgpaQueryEngine::Preference> prefs{{5, 0.6}, {44, 0.4}};
  EXPECT_FALSE(server.QueryPreferenceSet(prefs).cache_hit);
  EXPECT_FALSE(server.QueryPreferenceSet(prefs).cache_hit);
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.result_cache_hits, 0u);
  EXPECT_EQ(stats.rounds, 2u);
}

TEST(ResultCaching, TinyBudgetEvictsLru) {
  Graph graph = RandomDigraph(80, 3.0, 23);
  HgpaQueryEngine engine = MakeEngine(graph, 3);
  ServeOptions options;
  // One shard, budget smaller than two PPVs: inserting a second entry must
  // evict the first.
  options.result_cache_bytes = 0;
  QueryServer server(std::move(engine), options);
  SparseVector sample = server.Query(0).ppv;
  const size_t one_entry = sample.MemoryBytes() + 256;

  // Unique registry label per construction: the metrics registry is
  // process-global, so a reused label would accumulate counts across
  // --gtest_repeat iterations.
  static std::atomic<int> instance{0};
  ResultCache cache(ResultCache::Options{one_entry, 1},
                    "{server=\"evict" +
                        std::to_string(instance.fetch_add(1)) + "\"}");
  ASSERT_TRUE(cache.enabled());
  cache.Insert(1, sample);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_NE(cache.Find(1), nullptr);
  cache.Insert(2, sample);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.Find(1), nullptr);
  auto hit = cache.Find(2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, sample);
  EXPECT_EQ(cache.evictions(), 1u);
  // The pinned shared_ptr stays valid after its entry is evicted.
  cache.Insert(3, sample);
  EXPECT_EQ(cache.Find(2), nullptr);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(*hit, sample);
}

TEST(ResultCaching, TopKServesFromCache) {
  Graph graph = RandomDigraph(70, 3.0, 41);
  HgpaQueryEngine engine = MakeEngine(graph, 3);
  ServeOptions options;
  options.result_cache_bytes = 4 << 20;
  QueryServer server(std::move(engine), options);

  QueryServer::TopKResponse cold = server.QueryTopK(8, 5);
  EXPECT_FALSE(cold.cache_hit);
  QueryServer::TopKResponse warm = server.QueryTopK(8, 5);
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_EQ(warm.top.size(), cold.top.size());
  for (size_t i = 0; i < warm.top.size(); ++i) {
    EXPECT_EQ(warm.top[i].index, cold.top[i].index);
    EXPECT_EQ(warm.top[i].value, cold.top[i].value);
  }
}

TEST(AdmissionControl, ShedsWhenQueueIsFull) {
  Graph graph = RandomDigraph(150, 3.0, 31);
  HgpaQueryEngine engine = MakeEngine(graph, 3);
  ServeOptions options;
  options.max_pending = 2;
  options.shed_on_overload = true;
  QueryServer server(std::move(engine), options);

  constexpr size_t kThreads = 12;
  constexpr size_t kPerThread = 8;
  constexpr size_t kMaxBursts = 20;
  std::atomic<size_t> shed{0}, served{0};
  // Shedding needs the burst to genuinely overlap, which thread scheduling
  // (especially on one core) doesn't guarantee for any single burst: repeat
  // saturating bursts until one overflows the 2-deep queue. The accounting
  // invariants hold across all attempts regardless of timing.
  for (size_t burst = 0; burst < kMaxBursts && shed.load() == 0; ++burst) {
    // Start barrier: without it, thread creation is slow enough that each
    // client can finish its whole loop before the next client exists.
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (size_t i = 0; i < kPerThread; ++i) {
          QueryServer::Response r =
              server.Query(static_cast<NodeId>((t * kPerThread + i) % 150));
          if (r.shed) {
            EXPECT_EQ(r.ppv.size(), 0u);
            shed.fetch_add(1);
          } else {
            served.fetch_add(1);
          }
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& c : clients) c.join();
  }

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.shed, shed.load());
  EXPECT_EQ(stats.queries, served.load());
  // A saturating burst against a 2-deep queue must eventually shed, and the
  // requests holding round slots always get through.
  EXPECT_GT(shed.load(), 0u);
  EXPECT_GT(served.load(), 0u);
}

TEST(AdmissionControl, BlockPolicyServesEverything) {
  Graph graph = RandomDigraph(80, 3.0, 37);
  HgpaQueryEngine engine = MakeEngine(graph, 3);

  std::vector<SparseVector> expected(80);
  for (NodeId q = 0; q < 80; ++q) expected[q] = engine.Query(q);

  ServeOptions options;
  options.max_pending = 2;
  options.shed_on_overload = false;
  QueryServer server(std::move(engine), options);

  constexpr size_t kThreads = 10;
  std::vector<std::thread> clients;
  std::atomic<size_t> mismatches{0};
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (NodeId q = t; q < 80; q += kThreads) {
        QueryServer::Response r = server.Query(q);
        EXPECT_FALSE(r.shed);
        if (!(r.ppv == expected[q])) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0u);
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.queries, 80u);
  EXPECT_EQ(stats.shed, 0u);
}

// TSAN-targeted stress: cache hits, misses, shedding, and stats reads all
// racing on one server.
TEST(AdmissionControl, ConcurrentCacheAndAdmissionStress) {
  Graph graph = RandomDigraph(60, 3.0, 43);
  HgpaQueryEngine engine = MakeEngine(graph, 3);
  ServeOptions options;
  options.max_pending = 3;
  options.shed_on_overload = true;
  options.result_cache_bytes = 1 << 20;
  QueryServer server(std::move(engine), options);

  constexpr size_t kThreads = 8;
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < 30; ++i) {
        NodeId q = static_cast<NodeId>((t + i) % 12);  // hot set: many hits
        server.Query(q);
        if (i % 10 == 0) server.Stats();
      }
    });
  }
  for (auto& c : clients) c.join();
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.queries + stats.shed, kThreads * 30);
}

}  // namespace
}  // namespace dppr
