#include "dppr/serve/query_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "dppr/common/thread_pool.h"
#include "dppr/core/hgpa.h"
#include "dppr/obs/trace.h"
#include "json_util.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::JsonParser;
using ::dppr::testing::JsonValue;
using ::dppr::testing::RandomDigraph;

HgpaOptions ServeTestOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 4;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

// `graph` must stay alive in the caller's scope: the precomputation keeps a
// pointer to it.
HgpaQueryEngine MakeEngine(const Graph& graph, size_t machines) {
  auto pre = HgpaPrecomputation::RunHgpa(graph, ServeTestOptions());
  return HgpaQueryEngine(HgpaIndex::Distribute(pre, machines));
}

TEST(ConcurrentServing, EngineQueriesBitIdenticalToSequentialRun) {
  Graph graph = RandomDigraph(90, 3.0, 17);
  HgpaQueryEngine engine = MakeEngine(graph, 4);
  const size_t n = engine.index().graph().num_nodes();

  std::vector<SparseVector> expected(n);
  std::vector<CommStats> expected_comm(n);
  for (NodeId q = 0; q < n; ++q) {
    QueryMetrics metrics;
    expected[q] = engine.Query(q, &metrics);
    expected_comm[q] = metrics.comm;
  }

  constexpr size_t kThreads = 8;
  std::vector<SparseVector> got(n);
  std::vector<CommStats> got_comm(n);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (NodeId q = t; q < n; q += kThreads) {
        QueryMetrics metrics;
        got[q] = engine.Query(q, &metrics);
        got_comm[q] = metrics.comm;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (NodeId q = 0; q < n; ++q) {
    EXPECT_EQ(got[q], expected[q]) << "query " << q;
    EXPECT_EQ(got_comm[q].bytes, expected_comm[q].bytes) << "query " << q;
    EXPECT_EQ(got_comm[q].messages, expected_comm[q].messages) << "query " << q;
  }
}

TEST(ConcurrentServing, ServerAnswersBitIdenticalUnderContention) {
  Graph graph = RandomDigraph(90, 3.0, 23);
  HgpaQueryEngine engine = MakeEngine(graph, 4);
  const size_t n = engine.index().graph().num_nodes();

  std::vector<SparseVector> expected(n);
  std::vector<CommStats> expected_comm(n);
  uint64_t expected_total_bytes = 0;
  for (NodeId q = 0; q < n; ++q) {
    QueryMetrics metrics;
    expected[q] = engine.Query(q, &metrics);
    expected_comm[q] = metrics.comm;
    expected_total_bytes += metrics.comm.bytes;
  }

  QueryServer server(std::move(engine), ServeOptions{});

  constexpr size_t kThreads = 8;
  std::vector<SparseVector> got(n);
  std::vector<CommStats> got_comm(n);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (NodeId q = t; q < n; q += kThreads) {
        QueryServer::Response response = server.Query(q);
        got[q] = std::move(response.ppv);
        got_comm[q] = response.metrics.comm;
      }
    });
  }
  for (auto& thread : clients) thread.join();

  for (NodeId q = 0; q < n; ++q) {
    EXPECT_EQ(got[q], expected[q]) << "query " << q;
    EXPECT_EQ(got_comm[q].bytes, expected_comm[q].bytes) << "query " << q;
    EXPECT_EQ(got_comm[q].messages, expected_comm[q].messages) << "query " << q;
  }

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.queries, n);
  EXPECT_EQ(stats.rounds, stats.queries);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GE(stats.p95_latency_ms, stats.p50_latency_ms);
  // Contention never changes coordinator ingress.
  EXPECT_EQ(stats.comm.bytes, expected_total_bytes);
}

TEST(ConcurrentServing, ServerPreferenceSetMatchesEngine) {
  Graph graph = RandomDigraph(70, 3.0, 31);
  HgpaQueryEngine engine = MakeEngine(graph, 3);
  std::vector<HgpaQueryEngine::Preference> prefs{{5, 0.6}, {44, 0.4}};
  SparseVector expected = engine.QueryPreferenceSet(prefs);
  QueryServer server(std::move(engine));
  QueryServer::Response response = server.QueryPreferenceSet(prefs);
  EXPECT_EQ(response.ppv, expected);
  EXPECT_GE(response.latency_seconds, 0.0);
}

TEST(ConcurrentServing, TopKReturnsHighestScoresInOrder) {
  Graph graph = RandomDigraph(70, 3.0, 41);
  HgpaQueryEngine engine = MakeEngine(graph, 3);
  SparseVector full = engine.Query(8);
  QueryServer server(std::move(engine));

  constexpr size_t kK = 5;
  QueryServer::TopKResponse topk = server.QueryTopK(8, kK);
  ASSERT_EQ(topk.top.size(), std::min(kK, full.size()));
  for (size_t i = 1; i < topk.top.size(); ++i) {
    EXPECT_GE(topk.top[i - 1].value, topk.top[i].value);
  }
  // Every reported score is a true entry, and no omitted entry beats the cut.
  for (const auto& entry : topk.top) {
    EXPECT_DOUBLE_EQ(full.ValueAt(entry.index), entry.value);
  }
  double cutoff = topk.top.back().value;
  size_t at_least_cutoff = 0;
  for (const auto& entry : full.entries()) {
    if (entry.value >= cutoff) ++at_least_cutoff;
  }
  EXPECT_GE(at_least_cutoff, topk.top.size());
}

/// Most `serve.round` spans open at one instant, over the rounds run on
/// behalf of `trace_ids` (the global tracer may hold other tests' spans).
size_t MaxOverlappingRounds(const std::set<double>& trace_ids) {
  JsonValue doc = JsonParser(obs::Tracer::Global().RenderJson()).Parse();
  // (time, +1 open / -1 close); closes sort first at equal times, so rounds
  // that merely touch do not count as overlapping.
  std::vector<std::pair<double, int>> edges;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != "X" || e.at("name").str != "serve.round") continue;
    if (trace_ids.count(e.at("args").at("trace").number) == 0) continue;
    const double ts = e.at("ts").number;
    edges.emplace_back(ts, +1);
    edges.emplace_back(ts + e.at("dur").number, -1);
  }
  std::sort(edges.begin(), edges.end());
  int open = 0, max_open = 0;
  for (const auto& [time, delta] : edges) {
    open += delta;
    max_open = std::max(max_open, open);
  }
  return static_cast<size_t>(max_open);
}

TEST(ConcurrentServing, RoundsOverlapUpToOnePerPoolThread) {
  const size_t max_rounds = ThreadPool::Default().num_threads();
  if (max_rounds < 2) GTEST_SKIP() << "a 1-thread pool runs one round at a time";

  Graph graph = RandomDigraph(150, 3.0, 47);
  HgpaQueryEngine engine = MakeEngine(graph, 3);
  std::vector<SparseVector> expected(150);
  for (NodeId q = 0; q < 150; ++q) expected[q] = engine.Query(q);
  QueryServer server(std::move(engine), ServeOptions{});

  constexpr size_t kThreads = 12;
  constexpr size_t kPerThread = 8;
  constexpr size_t kMaxBursts = 20;
  std::mutex ids_mu;
  std::set<double> trace_ids;
  std::atomic<size_t> mismatches{0};
  size_t max_in_flight = 0;
  obs::Tracer::Global().set_enabled(true);
  // Overlap needs rounds to genuinely coincide, which scheduling doesn't
  // guarantee for any single burst: repeat saturating bursts until two
  // rounds overlap. The cap must hold across every burst regardless.
  for (size_t burst = 0; burst < kMaxBursts && max_in_flight < 2; ++burst) {
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (size_t i = 0; i < kPerThread; ++i) {
          const NodeId q = static_cast<NodeId>((t * kPerThread + i) % 150);
          QueryServer::Response r = server.Query(q);
          if (r.ppv != expected[q]) mismatches.fetch_add(1);
          std::lock_guard<std::mutex> lock(ids_mu);
          trace_ids.insert(static_cast<double>(r.trace_id));
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& c : clients) c.join();
    max_in_flight = MaxOverlappingRounds(trace_ids);
  }
  obs::Tracer::Global().set_enabled(false);

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(max_in_flight, 2u) << "no two rounds ever overlapped";
  EXPECT_LE(max_in_flight, max_rounds)
      << "more rounds in flight than the pool has threads";

  // One round per request, each under its own transport round id.
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rounds, stats.queries);
  std::set<uint64_t> round_ids;
  for (const QueryProfile& p : server.RecentProfiles()) {
    EXPECT_TRUE(round_ids.insert(p.metrics.round_id).second)
        << "round " << p.metrics.round_id << " answered two requests";
  }
  EXPECT_FALSE(round_ids.empty());
}

TEST(ConcurrentServing, ResetStatsClearsWindow) {
  Graph graph = RandomDigraph(40, 3.0, 3);
  HgpaQueryEngine engine = MakeEngine(graph, 2);
  QueryServer server(std::move(engine));
  server.Query(1);
  server.Query(2);
  EXPECT_EQ(server.Stats().queries, 2u);
  server.ResetStats();
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.comm.bytes, 0u);
}

}  // namespace
}  // namespace dppr
