// Concurrent serving tour: one precomputed index, one shared QueryServer,
// and a growing pack of client threads hammering it. Shows every request
// running its own cluster round (up to one in flight per pool thread), the
// realized QPS / latency percentiles, and a top-k query — the
// recommendation-shaped request a real front-end sends.
//
// With --disk the index lives in per-machine spill files behind a residency
// cache sized to the max machine ledger: same answers, and the stats line
// shows cold vs. warm serving — first touches read from disk, then the
// working set serves from cache. Sweep the budget down with
// ./build/fig_store_residency to watch the thrash point.
//
// With --transport=tcp every query round's PPV fragments travel through real
// localhost sockets (one listener per simulated machine) instead of the
// in-process hand-off: same answers, same coordinator bytes, real kernel
// crossings. ./build/fig_transport_overhead measures the difference.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "dppr/common/rng.h"
#include "dppr/graph/datasets.h"
#include "dppr/net/transport.h"
#include "dppr/obs/admin_http.h"
#include "dppr/serve/query_server.h"

int main(int argc, char** argv) {
  using namespace dppr;
  bool disk = false;
  long linger_seconds = 0;
  TransportOptions transport = TransportOptions::FromEnv();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--disk") == 0) {
      disk = true;
    } else if (std::strcmp(argv[i], "--transport=tcp") == 0) {
      transport.backend = TransportBackend::kTcp;
    } else if (std::strcmp(argv[i], "--transport=inproc") == 0) {
      transport.backend = TransportBackend::kInProcess;
    } else if (std::strncmp(argv[i], "--linger=", 9) == 0) {
      // Keep the process (and its admin plane) alive after the tour, so
      // curl / Prometheus can scrape a quiesced server (CI smoke does).
      linger_seconds = std::strtol(argv[i] + 9, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--disk] [--transport=inproc|tcp]"
                   " [--linger=SECONDS]\n",
                   argv[0]);
      return 1;
    }
  }
  Graph g = WebLike(0.3);
  std::printf("web-like graph: %zu nodes, %zu edges\n", g.num_nodes(),
              g.num_edges());

  auto pre = HgpaPrecomputation::RunHgpa(g, HgpaOptions{});

  StorageOptions storage = StorageOptions::FromEnv();
  if (disk) {
    // Probe the per-machine ledger with an in-memory (no-spill) placement,
    // then budget the real disk store's cache to it.
    storage.backend = StorageBackend::kDisk;
    storage.cache_bytes =
        HgpaIndex::Distribute(pre, 6, StorageOptions{}).MaxMachineBytes();
  }
  std::printf("precomputation done; serving from 6 simulated machines "
              "(%s store, %s transport)\n\n",
              StorageBackendName(storage.backend),
              TransportBackendName(transport.backend));

  QueryServer server(HgpaQueryEngine(HgpaIndex::Distribute(pre, 6, storage),
                                     NetworkModel{}, transport));

  // DPPR_ADMIN_PORT=<port> starts the admin plane; /statusz gets this
  // server's placement / serving / slow-query section.
  if (obs::AdminHttpServer* admin = obs::AdminHttpServer::GlobalFromEnv()) {
    admin->HandleStatus("server", [&server] { return server.StatusJson(); });
    std::printf("admin plane on http://127.0.0.1:%u (/metrics /healthz "
                "/statusz)\n",
                admin->port());
  }

  Rng rng(7);
  constexpr size_t kQueriesPerClient = 50;
  std::printf("%-9s %10s %10s %10s %8s\n", "clients", "qps", "p50(ms)",
              "p95(ms)", "rounds");
  // Each row resets the stats window, so the whole run's residency is the
  // rows' windows summed.
  StorageStats lookups;
  for (size_t clients : {1, 2, 4, 8}) {
    std::vector<NodeId> nodes;
    for (size_t i = 0; i < clients * kQueriesPerClient; ++i) {
      nodes.push_back(static_cast<NodeId>(rng.Uniform(g.num_nodes())));
    }
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
    std::printf("%-9zu %10.0f %10.2f %10.2f %8llu\n", clients, stats.qps,
                stats.p50_latency_ms, stats.p95_latency_ms,
                static_cast<unsigned long long>(stats.rounds));
    lookups += {stats.cache_hits, stats.cache_misses, stats.disk_bytes_read};
  }

  if (disk) {
    const double total =
        static_cast<double>(lookups.cache_hits + lookups.cache_misses);
    std::printf("\ndisk store: %.1f%% cache hit rate, %.2f MB read from "
                "spill files, %.2f MB resident (budget %.2f MB/machine)\n",
                total > 0 ? 100.0 * static_cast<double>(lookups.cache_hits) / total
                          : 0.0,
                static_cast<double>(lookups.disk_bytes_read) / (1 << 20),
                static_cast<double>(server.engine().index().ResidentBytesTotal()) /
                    (1 << 20),
                static_cast<double>(storage.cache_bytes) / (1 << 20));
  }

  // A preference-set request (user taste profile) and its top neighbours.
  std::vector<QueryServer::Preference> taste{{0, 0.5}, {17, 0.3}, {42, 0.2}};
  QueryServer::Response profile = server.QueryPreferenceSet(taste);
  std::printf("\npreference-set query over %zu seeds: %zu nonzeros, %.1f KB "
              "shipped to the coordinator\n",
              taste.size(), profile.ppv.size(), profile.metrics.comm.kilobytes());

  QueryServer::TopKResponse top = server.QueryTopK(0, 5);
  std::printf("top-5 for node 0:\n");
  for (const auto& entry : top.top) {
    std::printf("  node %-6u score %.6f\n", entry.index, entry.value);
  }

  if (linger_seconds > 0) {
    std::printf("\nlingering %lds for admin-plane scrapes...\n",
                linger_seconds);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(linger_seconds));
  }
  return 0;
}
