// The real-socket tax, measured from day one: the same offline
// precomputation and the same concurrent serving workload, once over the
// in-process transport and once over real localhost TCP. Payloads, answers,
// and byte ledgers are bit-identical across rows (net_equivalence_test);
// what differs is the wall clock of actually moving the bytes — framing,
// checksumming, kernel crossings, and the coordinator's receive loop.

#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dppr/common/timer.h"
#include "dppr/core/dist_precompute.h"
#include "dppr/serve/query_server.h"

namespace {

using namespace dppr;
using namespace dppr::bench;

constexpr double kWebScale = 0.3;
constexpr size_t kMachines = 6;
constexpr size_t kClients = 4;
constexpr size_t kQueriesPerClient = 40;

TransportOptions Backend(TransportBackend backend) {
  TransportOptions options;
  options.backend = backend;
  return options;
}

const Graph& SharedWebGraph() {
  static const Graph* graph = new Graph(LoadDataset("web", kWebScale));
  return *graph;
}

std::shared_ptr<const HgpaPrecomputation> SharedPrecomputation() {
  static auto holder = [] {
    return HgpaPrecomputation::RunHgpa(SharedWebGraph(), HgpaOptions{});
  }();
  return holder;
}

// One full offline run; the measured wall time includes every superstep's
// payload movement through the chosen transport.
Counters MeasureOffline(TransportBackend backend) {
  const Graph& g = SharedWebGraph();
  DistPrecomputeOptions dist;
  dist.num_machines = kMachines;
  dist.transport = Backend(backend);
  WallTimer timer;
  DistributedPrecompute::Result result =
      DistributedPrecompute::RunHgpa(g, HgpaOptions{}, dist);
  double wall_s = timer.ElapsedSeconds();
  return {
      {"offline_wall_s", wall_s},
      {"rounds", static_cast<double>(result.offline.rounds)},
      {"shipped_mb", result.offline.comm.megabytes()},
      {"wall_s_per_round", wall_s / static_cast<double>(result.offline.rounds)},
  };
}

// Concurrent serving, one round per request; every round's fragment payloads
// cross the chosen transport.
Counters MeasureServing(TransportBackend backend) {
  auto pre = SharedPrecomputation();
  QueryServer server(HgpaQueryEngine(HgpaIndex::Distribute(pre, kMachines),
                                     NetworkModel{}, Backend(backend)));

  std::vector<NodeId> nodes =
      SampleQueries(SharedWebGraph(), kClients * kQueriesPerClient);
  server.ResetStats();
  std::vector<std::thread> workers;
  for (size_t c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      for (size_t i = 0; i < kQueriesPerClient; ++i) {
        server.Query(nodes[c * kQueriesPerClient + i]);
      }
    });
  }
  for (auto& w : workers) w.join();
  ServerStats stats = server.Stats();
  return {
      {"qps", stats.qps},
      {"p50_ms", stats.p50_latency_ms},
      {"p95_ms", stats.p95_latency_ms},
      {"comm_mb", stats.comm.megabytes()},
  };
}

void RegisterRows() {
  for (TransportBackend backend :
       {TransportBackend::kInProcess, TransportBackend::kTcp}) {
    std::string name = TransportBackendName(backend);
    AddRow("transport/offline/web_m6/" + name,
           [backend] { return MeasureOffline(backend); });
    AddRow("transport/serving/web_c4/" + name,
           [backend] { return MeasureServing(backend); });
  }
}

}  // namespace

DPPR_BENCH_MAIN(RegisterRows)
