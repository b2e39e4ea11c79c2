#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dppr/common/rng.h"
#include "dppr/common/thread_pool.h"
#include "dppr/obs/metrics.h"
#include "dppr/obs/trace.h"
#include "json_util.h"

namespace dppr {
namespace {

using dppr::testing::JsonParser;
using dppr::testing::JsonValue;

// ---------------------------------------------------------------------------
// Histogram: bucket geometry and quantiles against a sorted-vector oracle
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundsContainTheirValues) {
  Rng rng(7);
  std::vector<uint64_t> values = {0, 1, 63, 64, 65, 127, 128, 1000,
                                  (uint64_t{1} << 32) + 12345,
                                  ~uint64_t{0}};
  for (int i = 0; i < 2000; ++i) {
    // Log-uniform spread so every octave gets exercised, not just the small
    // ones a plain uniform draw would concentrate in.
    int bits = static_cast<int>(rng.Uniform(64));
    values.push_back(rng.Uniform(uint64_t{1} << bits | 1));
  }
  for (uint64_t v : values) {
    size_t idx = obs::Histogram::BucketIndex(v);
    ASSERT_LT(idx, obs::Histogram::kNumBuckets) << v;
    uint64_t lo = obs::Histogram::BucketLowerBound(idx);
    uint64_t hi = obs::Histogram::BucketUpperBound(idx);
    EXPECT_LE(lo, v) << "bucket " << idx;
    EXPECT_GE(hi, v) << "bucket " << idx;
    // The bounds belong to the bucket they describe.
    EXPECT_EQ(obs::Histogram::BucketIndex(lo), idx);
    EXPECT_EQ(obs::Histogram::BucketIndex(hi), idx);
    // Bounded relative error above the linear range: a bucket spans at most
    // 1/kSubBuckets of its octave.
    if (v >= obs::Histogram::kLinearBuckets) {
      EXPECT_LE(hi - lo + 1, std::max<uint64_t>(lo / obs::Histogram::kSubBuckets, 1))
          << "bucket " << idx << " too wide at value " << v;
    } else {
      EXPECT_EQ(lo, v);  // linear buckets are value-exact
      EXPECT_EQ(hi, v);
    }
  }
}

TEST(Histogram, QuantilesMatchSortedVectorOracle) {
  Rng rng(42);
  obs::Histogram hist;
  std::vector<uint64_t> oracle;
  for (int i = 0; i < 5000; ++i) {
    int bits = static_cast<int>(rng.Uniform(40));
    uint64_t v = rng.Uniform(uint64_t{1} << bits | 1);
    hist.Record(v);
    oracle.push_back(v);
  }
  std::sort(oracle.begin(), oracle.end());

  obs::Histogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.total, oracle.size());
  for (double q : {0.001, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    size_t rank = static_cast<size_t>(std::ceil(q * oracle.size()));
    rank = std::max<size_t>(rank, 1);
    uint64_t exact = oracle[rank - 1];
    uint64_t reported = snap.Quantile(q);
    // Rank-exact at bucket resolution: the reported value is the upper bound
    // of the bucket holding the true order statistic — never below it, and
    // in the same bucket.
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_EQ(obs::Histogram::BucketIndex(reported),
              obs::Histogram::BucketIndex(exact))
        << "q=" << q;
  }
  EXPECT_EQ(obs::Histogram::BucketIndex(snap.Quantile(1.0)),
            obs::Histogram::BucketIndex(oracle.back()));
}

TEST(Histogram, SmallValueQuantilesAreValueExact) {
  // Everything below kLinearBuckets sits in unit buckets, so quantiles of
  // small samples (batch sizes, retry counts) are exact, not approximate.
  obs::Histogram hist;
  std::vector<uint64_t> oracle;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(64);
    hist.Record(v);
    oracle.push_back(v);
  }
  std::sort(oracle.begin(), oracle.end());
  obs::Histogram::Snapshot snap = hist.TakeSnapshot();
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    size_t rank = std::max<size_t>(
        static_cast<size_t>(std::ceil(q * oracle.size())), 1);
    EXPECT_EQ(snap.Quantile(q), oracle[rank - 1]) << "q=" << q;
  }
}

TEST(Histogram, SinceComputesWindowedView) {
  obs::Histogram hist;
  hist.Record(10);
  hist.Record(20);
  obs::Histogram::Snapshot baseline = hist.TakeSnapshot();
  hist.Record(30);
  hist.Record(40);
  obs::Histogram::Snapshot window = hist.TakeSnapshot().Since(baseline);
  EXPECT_EQ(window.total, 2u);
  EXPECT_EQ(window.sum, 70u);
  EXPECT_EQ(window.Quantile(0.5), 30u);
  EXPECT_EQ(window.Quantile(1.0), 40u);
}

TEST(Histogram, EmptySnapshotIsZero) {
  obs::Histogram hist;
  obs::Histogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.Quantile(0.5), 0u);
  EXPECT_EQ(snap.Quantile(1.0), 0u);
  EXPECT_EQ(snap.Mean(), 0.0);
}

// ---------------------------------------------------------------------------
// Registry: concurrency and the one-name-one-metric contract
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, ConcurrentRecordingUnderThreadPool) {
  // Hot-path contract: many threads hammer the same handles with no locks.
  // This is the TSAN leg's target — a data race in Counter/Histogram/Get*
  // shows up here.
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.concurrent.count");
  obs::Histogram* hist = registry.GetHistogram("test.concurrent.lat_us");
  ThreadPool pool(8);
  constexpr size_t kTasks = 64;
  constexpr size_t kPerTask = 1000;
  pool.ParallelFor(kTasks, [&](size_t task) {
    // Resolving the same names concurrently must also be race-free and
    // idempotent.
    obs::Counter* same = registry.GetCounter("test.concurrent.count");
    EXPECT_EQ(same, counter);
    for (size_t i = 0; i < kPerTask; ++i) {
      same->Increment();
      hist->Record(task * kPerTask + i);
    }
  });
  EXPECT_EQ(counter->Value(), kTasks * kPerTask);
  EXPECT_EQ(hist->Count(), kTasks * kPerTask);
}

TEST(MetricsRegistry, HandlesSurviveManyRegistrations) {
  // Regression guard for handle stability: a pointer from an early Get* must
  // stay valid (and keep its value) after many later registrations land in
  // the same shards.
  obs::MetricsRegistry registry;
  obs::Counter* first = registry.GetCounter("stable.first");
  first->Add(41);
  for (int i = 0; i < 2000; ++i) {
    registry.GetCounter("stable.filler." + std::to_string(i))->Increment();
  }
  first->Increment();
  EXPECT_EQ(registry.GetCounter("stable.first"), first);
  EXPECT_EQ(first->Value(), 42u);
}

TEST(MetricsRegistryDeathTest, TypeMismatchDies) {
  obs::MetricsRegistry registry;
  registry.GetCounter("mismatch.name");
  EXPECT_DEATH(registry.GetHistogram("mismatch.name"), "");
}

TEST(MetricsRegistry, RenderTextIsPrometheusShaped) {
  obs::MetricsRegistry registry;
  registry.GetCounter("render.requests{server=\"0\"}")->Add(3);
  registry.GetGauge("render.depth")->Set(-2);
  obs::Histogram* hist = registry.GetHistogram("render.latency_us");
  hist->Record(100);
  hist->Record(200);
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("dppr_render_requests{server=\"0\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dppr_render_depth -2"), std::string::npos) << text;
  EXPECT_NE(text.find("dppr_render_latency_us_count 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledPathRecordsNothing) {
  obs::Tracer tracer(/*enabled=*/false);
  {
    obs::TraceSpan span(tracer, obs::kCoordinatorLane, "noop");
    span.Arg("k", 1);
  }
  tracer.RecordComplete("direct", 0.0, 1.0, 0, {});
  // RecordComplete is the low-level hook — callers gate on enabled(), spans
  // gate themselves; either way nothing must be buffered while disabled.
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST(Tracer, JsonRoundTripsWithWellFormedNesting) {
  obs::Tracer tracer(/*enabled=*/true);
  {
    obs::TraceSpan outer(tracer, obs::kCoordinatorLane, "outer");
    outer.Arg("round", 7);
    {
      obs::TraceSpan inner(tracer, obs::kCoordinatorLane, "inner");
      inner.Arg("machine", 3);
    }
  }
  {
    obs::TraceSpan machine(tracer, obs::MachineLane(2), "machine_work");
    machine.Arg("round", 7);
  }
  ASSERT_EQ(tracer.event_count(), 3u);

  JsonValue doc = JsonParser(tracer.RenderJson()).Parse();
  ASSERT_EQ(doc.kind, JsonValue::kObject);
  EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::kArray);

  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  const JsonValue* machine = nullptr;
  bool saw_coordinator_name = false;
  bool saw_machine_name = false;
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.kind, JsonValue::kObject);
    const std::string& ph = e.at("ph").str;
    if (ph == "M") {
      const std::string& label = e.at("args").at("name").str;
      if (label == "coordinator") saw_coordinator_name = true;
      if (label == "machine 2") saw_machine_name = true;
      continue;
    }
    ASSERT_EQ(ph, "X");
    const std::string& name = e.at("name").str;
    if (name == "outer") outer = &e;
    if (name == "inner") inner = &e;
    if (name == "machine_work") machine = &e;
  }
  EXPECT_TRUE(saw_coordinator_name);
  EXPECT_TRUE(saw_machine_name);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(machine, nullptr);

  // Args survive the round trip.
  EXPECT_EQ(outer->at("args").at("round").number, 7.0);
  EXPECT_EQ(inner->at("args").at("machine").number, 3.0);
  EXPECT_EQ(machine->at("pid").number, obs::MachineLane(2));

  // Well-formed nesting: the inner span is fully contained in the outer one.
  double outer_start = outer->at("ts").number;
  double outer_end = outer_start + outer->at("dur").number;
  double inner_start = inner->at("ts").number;
  double inner_end = inner_start + inner->at("dur").number;
  EXPECT_GE(inner_start, outer_start);
  EXPECT_LE(inner_end, outer_end);
}

TEST(Tracer, ConcurrentSpansAreAllRecorded) {
  obs::Tracer tracer(/*enabled=*/true);
  ThreadPool pool(8);
  constexpr size_t kTasks = 64;
  constexpr size_t kSpansPerTask = 50;
  pool.ParallelFor(kTasks, [&](size_t task) {
    for (size_t i = 0; i < kSpansPerTask; ++i) {
      obs::TraceSpan span(tracer, obs::MachineLane(task % 4), "work");
      span.Arg("i", i);
    }
  });
  EXPECT_EQ(tracer.event_count(), kTasks * kSpansPerTask);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  // The full concurrent dump still parses.
  JsonValue doc = JsonParser(tracer.RenderJson()).Parse();
  size_t spans = 0;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str == "X") ++spans;
  }
  EXPECT_EQ(spans, kTasks * kSpansPerTask);
}

}  // namespace
}  // namespace dppr
