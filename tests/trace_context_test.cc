// End-to-end query attribution: TraceContext propagation from the serving
// front door through SimCluster machine tasks, on either transport, to
// machine-lane trace spans; QueryProfile
// assembly and its bit-for-bit reconciliation against the registry counters;
// the slow-query JSONL log; and the signal-flush path.

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dppr/core/hgpa.h"
#include "dppr/net/transport.h"
#include "dppr/obs/flush.h"
#include "dppr/obs/metrics.h"
#include "dppr/obs/trace.h"
#include "dppr/serve/query_server.h"
#include "json_util.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::JsonParser;
using ::dppr::testing::JsonValue;
using ::dppr::testing::RandomDigraph;
using ::dppr::testing::StorageUnderTest;
using ::dppr::testing::TransportUnderTest;

// ---------------------------------------------------------------------------
// TraceContext plumbing
// ---------------------------------------------------------------------------

TEST(TraceContext, ScopeEstablishesAndRestores) {
  EXPECT_FALSE(obs::CurrentTraceContext());
  {
    obs::TraceContextScope outer({11});
    EXPECT_EQ(obs::CurrentTraceContext().trace_id, 11u);
    {
      obs::TraceContextScope inner({21});
      EXPECT_EQ(obs::CurrentTraceContext().trace_id, 21u);
    }
    EXPECT_EQ(obs::CurrentTraceContext().trace_id, 11u);
  }
  EXPECT_FALSE(obs::CurrentTraceContext());
}

TEST(TraceContext, NewTraceIdIsUniqueAndNonzero) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    uint64_t id = obs::NewTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate trace id " << id;
  }
}

TEST(TraceContext, SpansCaptureAndRenderTheContext) {
  obs::Tracer tracer(/*enabled=*/true);
  {
    obs::TraceContextScope scope({777});
    obs::TraceSpan span(tracer, obs::MachineLane(0), "traced_work");
  }
  {
    obs::TraceSpan span(tracer, obs::MachineLane(1), "untraced_work");
  }
  JsonValue doc = JsonParser(tracer.RenderJson()).Parse();
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != "X") continue;
    if (e.at("name").str == "traced_work") {
      EXPECT_EQ(e.at("args").at("trace").number, 777.0);
    } else {
      // No context in scope -> no trace arg at all (0 is never rendered).
      EXPECT_EQ(e.object.count("args"), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Served-query propagation: spans on exactly the routed machines
// ---------------------------------------------------------------------------

HgpaOptions SmallOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 4;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

/// Runs one served query under the (test-enabled) global tracer and asserts
/// every machine-lane span tagged with the query's trace id sits on exactly
/// the machines the router selected for it.
void ExpectSpansOnExactlyTheRoutedMachines(TransportBackend backend) {
  Graph graph = RandomDigraph(80, 3.0, 17);
  auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
  TransportOptions transport;
  transport.backend = backend;
  QueryServer server(
      HgpaQueryEngine(HgpaIndex::Distribute(pre, 4, StorageUnderTest()),
                      NetworkModel{}, transport,
                      RoutingOptions{RoutingMode::kRoute}),
      ServeOptions{});
  ASSERT_NE(server.engine().router(), nullptr);

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.set_enabled(true);
  QueryServer::Response response = server.Query(13);
  tracer.set_enabled(false);
  ASSERT_NE(response.trace_id, 0u);
  ASSERT_FALSE(response.ppv.entries().empty());

  const NodeId source = 13;
  QueryRouter::Plan plan = server.engine().router()->Route({&source, 1});
  ASSERT_FALSE(plan.machines.empty());
  EXPECT_EQ(response.metrics.machines, plan.machines);

  std::set<uint32_t> expected_lanes;
  for (size_t m : plan.machines) expected_lanes.insert(obs::MachineLane(m));

  // The global tracer accumulates events across tests; our freshly minted
  // trace id isolates exactly this query's spans.
  JsonValue doc = JsonParser(tracer.RenderJson()).Parse();
  std::set<uint32_t> machine_lanes_with_our_trace;
  std::set<uint32_t> lanes_with_machine_span;
  bool saw_request_span = false;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != "X") continue;
    if (e.object.count("args") == 0 || e.at("args").object.count("trace") == 0)
      continue;
    if (e.at("args").at("trace").number !=
        static_cast<double>(response.trace_id))
      continue;
    const uint32_t pid = static_cast<uint32_t>(e.at("pid").number);
    if (pid != obs::kCoordinatorLane) {
      machine_lanes_with_our_trace.insert(pid);
      if (e.at("name").str == "cluster.machine") {
        lanes_with_machine_span.insert(pid);
      }
    } else if (e.at("name").str == "serve.request") {
      saw_request_span = true;
    }
  }
  EXPECT_TRUE(saw_request_span);
  // Every routed machine ran a cluster.machine span under our trace id, and
  // NO machine lane outside the plan carries any span with it (store and
  // net.tcp.send spans included — they inherit the same context).
  EXPECT_EQ(lanes_with_machine_span, expected_lanes);
  EXPECT_EQ(machine_lanes_with_our_trace, expected_lanes)
      << "spans must land on the routed machines, all of them, and no others";
}

TEST(TracePropagation, RoutedQuerySpansInproc) {
  ExpectSpansOnExactlyTheRoutedMachines(TransportBackend::kInProcess);
}

TEST(TracePropagation, RoutedQuerySpansTcp) {
  ExpectSpansOnExactlyTheRoutedMachines(TransportBackend::kTcp);
}

// ---------------------------------------------------------------------------
// QueryProfile reconciliation against the registry counters
// ---------------------------------------------------------------------------

/// Serves `num_queries` single-source queries one at a time and checks that
/// the profiles — and the responses they were built from — sum bit-for-bit
/// to the server's registry/window deltas.
void ExpectProfilesReconcile(const Graph& graph, size_t num_queries,
                             size_t replicate_bytes) {
  auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
  ReplicationOptions replication;
  replication.budget_bytes = replicate_bytes;
  QueryServer server(
      HgpaQueryEngine(HgpaIndex::Distribute(pre, 4, StorageUnderTest(),
                                            replication),
                      NetworkModel{}, TransportOptions{},
                      RoutingOptions{RoutingMode::kRoute}),
      ServeOptions{});
  server.ResetStats();

  std::vector<uint64_t> trace_ids;
  CommStats response_total;
  for (NodeId q = 0; q < num_queries; ++q) {
    QueryServer::Response r = server.Query(q);
    ASSERT_FALSE(r.shed);
    trace_ids.push_back(r.trace_id);
    response_total += r.metrics.comm;
  }

  std::vector<QueryProfile> profiles = server.RecentProfiles();
  ASSERT_EQ(profiles.size(), num_queries);

  // Every query was its own round and its own profile; RecentProfiles is
  // newest-first.
  CommStats comm_total;
  uint64_t machine_rounds = 0;
  StorageStats storage_total;
  std::set<uint64_t> round_ids;
  for (size_t i = 0; i < num_queries; ++i) {
    const QueryProfile& p = profiles[num_queries - 1 - i];
    const QueryMetrics& m = p.metrics;
    EXPECT_EQ(p.trace_id, trace_ids[i]);
    EXPECT_EQ(p.outcome, QueryProfile::Outcome::kServed);
    EXPECT_EQ(p.source, static_cast<NodeId>(i));
    // Transport rounds are allocated from 0, so round_id itself can be 0 on
    // a fresh transport; what must hold is one distinct round per query.
    round_ids.insert(m.round_id);
    EXPECT_EQ(m.machines.size(), m.machines_contacted);
    // One message per machine that ran, however many owner fragments an
    // absorbing machine packs into it.
    EXPECT_EQ(m.comm.messages, m.machines_contacted) << "query " << i;
    // machine_seconds is full cluster width; non-participants are zero.
    EXPECT_EQ(m.machine_seconds.size(), 4u);
    for (size_t machine = 0; machine < m.machine_seconds.size(); ++machine) {
      const bool participant =
          std::find(m.machines.begin(), m.machines.end(), machine) !=
          m.machines.end();
      if (!participant) EXPECT_EQ(m.machine_seconds[machine], 0.0);
      EXPECT_LE(m.machine_seconds[machine], m.max_machine_seconds);
    }
    comm_total += m.comm;
    machine_rounds += m.machines_contacted;
    storage_total += m.storage;
  }

  // The reconciliation: profile sums equal the registry/window deltas
  // exactly. Profiles are attributions of the same ledgers, never a second
  // measurement, so this holds bit-for-bit.
  ServerStats stats = server.Stats();
  EXPECT_EQ(round_ids.size(), num_queries);
  EXPECT_EQ(stats.queries, num_queries);
  EXPECT_EQ(stats.rounds, num_queries);
  EXPECT_EQ(comm_total.bytes, stats.comm.bytes);
  EXPECT_EQ(comm_total.messages, stats.comm.messages);
  EXPECT_EQ(response_total.bytes, stats.comm.bytes);
  EXPECT_EQ(response_total.messages, stats.comm.messages);
  EXPECT_EQ(machine_rounds, stats.routing_machine_rounds);
  EXPECT_EQ(storage_total.cache_hits, stats.cache_hits);
  EXPECT_EQ(storage_total.cache_misses, stats.cache_misses);
  EXPECT_EQ(storage_total.disk_bytes_read, stats.disk_bytes_read);
}

TEST(QueryProfileReconciliation, TotalsMatchCounterDeltas) {
  ExpectProfilesReconcile(RandomDigraph(80, 3.0, 29), 12,
                          /*replicate_bytes=*/0);

  // A budget that replicates every hub group: most plans collapse onto one
  // machine that absorbs the other owners and ships all their fragments in
  // one message.
  Graph graph = RandomDigraph(90, 3.0, 17);
  {
    auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
    ReplicationOptions replication;
    replication.budget_bytes = 64 << 20;
    QueryRouter router(HgpaIndex::Distribute(pre, 4, StorageUnderTest(),
                                             replication)
                           .placement());
    size_t absorbed = 0;
    for (NodeId q = 0; q < 60; ++q) {
      QueryRouter::Plan plan = router.Route({&q, 1});
      absorbed += plan.contributors - plan.machines.size();
    }
    ASSERT_GT(absorbed, 0u) << "the budget must make routing absorb owners";
  }
  ExpectProfilesReconcile(graph, 60, /*replicate_bytes=*/64 << 20);
}

TEST(QueryProfileReconciliation, StorageIsExactUnderOverlappingRounds) {
  // Eight clients against a disk store whose cache holds almost nothing:
  // rounds overlap, and every one of them misses and reads extents on the
  // same stores. Each profile's metrics.storage must count only its own
  // round's machine tasks, so the sum over the profiles equals the window
  // exactly — a delta of the shared store counters across a round would also
  // pick up its neighbours' reads.
  Graph graph = RandomDigraph(80, 3.0, 43);
  auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
  StorageOptions storage;
  storage.backend = StorageBackend::kDisk;
  storage.cache_bytes = 4096;
  QueryServer server(
      HgpaQueryEngine(HgpaIndex::Distribute(pre, 4, storage), NetworkModel{},
                      TransportOptions{}, RoutingOptions{RoutingMode::kRoute}),
      ServeOptions{});
  server.ResetStats();

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 8;  // 64 profiles: the whole recent ring
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        EXPECT_FALSE(server.Query(static_cast<NodeId>(t * kPerThread + i)).shed);
      }
    });
  }
  for (auto& c : clients) c.join();

  std::vector<QueryProfile> profiles = server.RecentProfiles();
  ASSERT_EQ(profiles.size(), kThreads * kPerThread);
  std::set<uint64_t> round_ids;
  StorageStats total;
  for (const QueryProfile& p : profiles) {
    ASSERT_EQ(p.outcome, QueryProfile::Outcome::kServed);
    EXPECT_TRUE(round_ids.insert(p.metrics.round_id).second)
        << "round " << p.metrics.round_id;
    total += p.metrics.storage;
  }

  ServerStats stats = server.Stats();
  EXPECT_EQ(round_ids.size(), stats.rounds);
  EXPECT_GT(stats.disk_bytes_read, 0u);
  EXPECT_EQ(total.cache_hits, stats.cache_hits);
  EXPECT_EQ(total.cache_misses, stats.cache_misses);
  EXPECT_EQ(total.disk_bytes_read, stats.disk_bytes_read);
}

TEST(QueryProfileReconciliation, StorageCountsOnlyTheServersRounds) {
  // The residency view is fed from the server's own rounds: store lookups
  // made outside them (a direct engine query on the same stores) stay out
  // of the window, even though they miss and read spill extents too.
  Graph graph = RandomDigraph(80, 3.0, 43);
  auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
  StorageOptions storage;
  storage.backend = StorageBackend::kDisk;
  storage.cache_bytes = 4096;
  QueryServer server(HgpaQueryEngine(HgpaIndex::Distribute(pre, 4, storage),
                                     {}, TransportUnderTest()),
                     ServeOptions{});
  server.ResetStats();

  QueryMetrics direct;
  (void)server.engine().Query(5, &direct);
  ASSERT_GT(direct.storage.disk_bytes_read, 0u);
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.disk_bytes_read, 0u);

  const QueryServer::Response served = server.Query(40);
  stats = server.Stats();
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.disk_bytes_read, 0u);
  EXPECT_EQ(stats.cache_misses, served.metrics.storage.cache_misses);
  EXPECT_EQ(stats.disk_bytes_read, served.metrics.storage.disk_bytes_read);
}

// ---------------------------------------------------------------------------
// Slow-query JSONL log
// ---------------------------------------------------------------------------

TEST(SlowQueryLog, WritesParseableJsonlWithTheProfileSchema) {
  Graph graph = RandomDigraph(60, 3.0, 11);
  auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
  const std::string path =
      ::testing::TempDir() + "/dppr_slow_query_test.jsonl";
  std::remove(path.c_str());

  ServeOptions options;
  options.slow_query_us = 0;  // log every request
  options.slow_query_log_path = path;
  QueryServer server(
      HgpaQueryEngine(HgpaIndex::Distribute(pre, 3, StorageUnderTest()), {},
                      TransportUnderTest()),
      std::move(options));

  std::vector<uint64_t> trace_ids;
  for (NodeId q = 0; q < 3; ++q) {
    trace_ids.push_back(server.Query(q).trace_id);
  }
  EXPECT_EQ(server.RecentSlowQueries().size(), 3u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    JsonValue doc = JsonParser(line).Parse();
    ASSERT_EQ(doc.kind, JsonValue::kObject);
    EXPECT_EQ(doc.at("trace_id").number,
              static_cast<double>(trace_ids[lines]));
    EXPECT_EQ(doc.at("outcome").str, "served");
    EXPECT_EQ(doc.at("source").number, static_cast<double>(lines));
    // Catalog spot-checks: the documented keys are all present.
    for (const char* key :
         {"request_id", "latency_seconds", "wait_seconds", "round_id",
          "machines", "machines_contacted", "fragment_messages",
          "fragment_bytes", "machine_seconds", "max_machine_seconds",
          "coordinator_seconds", "store_cache_hits", "disk_bytes_read"}) {
      EXPECT_EQ(doc.object.count(key), 1u) << "missing " << key;
    }
    EXPECT_EQ(doc.at("fragment_messages").number,
              doc.at("machines_contacted").number);
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

TEST(SlowQueryLog, ThresholdDisabledKeepsRingsOnly) {
  Graph graph = RandomDigraph(40, 3.0, 13);
  auto pre = HgpaPrecomputation::RunHgpa(graph, SmallOptions());
  QueryServer server(
      HgpaQueryEngine(HgpaIndex::Distribute(pre, 2, StorageUnderTest()), {},
                      TransportUnderTest()),
      ServeOptions{});  // slow_query_us = -1: log disabled
  server.Query(1);
  EXPECT_EQ(server.RecentProfiles().size(), 1u);
  EXPECT_TRUE(server.RecentSlowQueries().empty());
}

// ---------------------------------------------------------------------------
// Tracer drop accounting
// ---------------------------------------------------------------------------

TEST(TracerDrops, OverflowCountsIntoTheRegistry) {
  obs::Counter* dropped = obs::MetricsRegistry::Global().GetCounter(
      "trace.dropped");
  const uint64_t before = dropped->Value();

  obs::Tracer tracer(/*enabled=*/true);
  // Single-threaded: every event lands in the calling thread's shard, so
  // one-over-capacity overflows that shard deterministically.
  constexpr size_t kPerShard = (4u << 20) / 16;
  for (size_t i = 0; i <= kPerShard; ++i) {
    tracer.RecordComplete("spin", 0.0, 1.0, 0, {});
  }
  EXPECT_EQ(tracer.event_count(), kPerShard);
  EXPECT_EQ(tracer.dropped_events(), 1u);
  EXPECT_EQ(dropped->Value(), before + 1);
}

// ---------------------------------------------------------------------------
// Signal flush
// ---------------------------------------------------------------------------

TEST(SignalFlushDeathTest, SigtermStillWritesTheMetricsDump) {
  const std::string path = ::testing::TempDir() + "/dppr_signal_dump.prom";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        setenv("DPPR_METRICS_DUMP", path.c_str(), 1);
        obs::MetricsRegistry::Global().GetCounter("signal.test")->Add(5);
        obs::InstallSignalFlushOnce();
        std::raise(SIGTERM);
      },
      ::testing::KilledBySignal(SIGTERM), "");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "signal handler must have written " << path;
  bool found = false;
  for (std::string line; std::getline(in, line);) {
    found = found || line == "dppr_signal_test 5";
  }
  EXPECT_TRUE(found) << "no line 'dppr_signal_test 5' in " << path;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dppr
