// Serving throughput: N client threads × M queries against ONE shared
// engine through the QueryServer front door, one round per request. Not a
// paper figure — the paper measures single-query latency — but the regime
// the ROADMAP targets: sustained concurrent traffic. Rows sweep client
// threads; counters report QPS, p50–p999 latency, rounds, and coordinator
// bytes per query.

#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dppr/serve/query_server.h"

namespace {

using namespace dppr;
using namespace dppr::bench;

constexpr double kWebScale = 0.3;
constexpr size_t kMachines = 6;
constexpr size_t kQueriesPerClient = 40;

std::shared_ptr<const HgpaPrecomputation> SharedPrecomputation() {
  // The precomputation keeps a pointer to its graph, so the graph lives on
  // the heap next to it for the whole process.
  static auto holder = [] {
    auto graph = std::make_shared<Graph>(LoadDataset("web", kWebScale));
    auto pre = HgpaPrecomputation::RunHgpa(*graph, HgpaOptions{});
    return std::pair{graph, pre};
  }();
  return holder.second;
}

Counters MeasureServing(size_t clients) {
  auto pre = SharedPrecomputation();
  QueryServer server(HgpaQueryEngine(HgpaIndex::Distribute(pre, kMachines)),
                     ServeOptions{});

  std::vector<NodeId> nodes =
      SampleQueries(pre->graph(), clients * kQueriesPerClient);
  server.ResetStats();
  std::vector<std::thread> workers;
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (size_t i = 0; i < kQueriesPerClient; ++i) {
        server.Query(nodes[c * kQueriesPerClient + i]);
      }
    });
  }
  for (auto& w : workers) w.join();
  ServerStats stats = server.Stats();

  double per_query_kb =
      stats.queries > 0
          ? stats.comm.kilobytes() / static_cast<double>(stats.queries)
          : 0.0;
  return {
      {"qps", stats.qps},
      {"p50_ms", stats.p50_latency_ms},
      {"p95_ms", stats.p95_latency_ms},
      {"p99_ms", stats.p99_latency_ms},
      {"p999_ms", stats.p999_latency_ms},
      {"rounds", static_cast<double>(stats.rounds)},
      {"comm_kb_per_query", per_query_kb},
  };
}

void RegisterRows() {
  for (size_t clients : {1, 2, 4, 8}) {
    AddRow("serving/web/clients=" + std::to_string(clients),
           [clients] { return MeasureServing(clients); });
  }
}

}  // namespace

DPPR_BENCH_MAIN(RegisterRows)
