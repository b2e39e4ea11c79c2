// Storage-residency sweep: one disk-backed index served through QueryServer
// at cache budgets from ∞ (everything resident after warmup) down to 1% of
// the per-machine byte ledger. Not a paper figure — the paper assumes
// RAM-resident indexes — but the cost curve of the ROADMAP's disk-backed
// store: rows report QPS, p50/p95 latency, realized cache hit rate, and MB
// read back from the spill files, against an in-memory baseline row. Answers
// are bit-identical at every budget (store_equivalence_test); this sweep
// prices what the residency cache buys.

#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dppr/serve/query_server.h"

namespace {

using namespace dppr;
using namespace dppr::bench;

constexpr double kWebScale = 0.3;
constexpr size_t kMachines = 4;
constexpr size_t kClients = 4;
constexpr size_t kQueriesPerClient = 40;

std::shared_ptr<const HgpaPrecomputation> SharedPrecomputation() {
  static auto holder = [] {
    auto graph = std::make_shared<Graph>(LoadDataset("web", kWebScale));
    auto pre = HgpaPrecomputation::RunHgpa(*graph, HgpaOptions{});
    return std::pair{graph, pre};
  }();
  return holder.second;
}

Counters MeasureResidency(StorageBackend backend, size_t cache_bytes) {
  auto pre = SharedPrecomputation();
  StorageOptions storage;
  storage.backend = backend;
  storage.cache_bytes = cache_bytes;
  QueryServer server(
      HgpaQueryEngine(HgpaIndex::Distribute(pre, kMachines, storage)));

  std::vector<NodeId> nodes =
      SampleQueries(pre->graph(), kClients * kQueriesPerClient);
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

  double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
  double hit_rate =
      lookups > 0.0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0;
  return {
      {"qps", stats.qps},
      {"p50_ms", stats.p50_latency_ms},
      {"p95_ms", stats.p95_latency_ms},
      {"cache_hit_rate", hit_rate},
      {"disk_mb_read", static_cast<double>(stats.disk_bytes_read) / (1 << 20)},
      {"resident_mb",
       static_cast<double>(server.engine().index().ResidentBytesTotal()) /
           (1 << 20)},
  };
}

void RegisterRows() {
  AddRow("residency/web/memory-baseline", [] {
    return MeasureResidency(StorageBackend::kMemoryOwned,
                            std::numeric_limits<size_t>::max());
  });
  AddRow("residency/web/disk/budget=inf", [] {
    return MeasureResidency(StorageBackend::kDisk,
                            std::numeric_limits<size_t>::max());
  });
  // Budget as a fraction of the (max) per-machine ledger: 100% keeps a warm
  // working set, 1% forces nearly every lookup back to the spill file. The
  // ledger is placement-determined, so probe it once with an in-memory
  // distribution.
  for (size_t percent : {100, 25, 5, 1}) {
    AddRow("residency/web/disk/budget=" + std::to_string(percent) + "pct",
           [percent] {
             static const size_t ledger =
                 HgpaIndex::Distribute(SharedPrecomputation(), kMachines,
                                       StorageOptions{})
                     .MaxMachineBytes();
             size_t budget = ledger * percent / 100;
             return MeasureResidency(StorageBackend::kDisk,
                                     budget > 0 ? budget : 1);
           });
  }
}

}  // namespace

DPPR_BENCH_MAIN(RegisterRows)
