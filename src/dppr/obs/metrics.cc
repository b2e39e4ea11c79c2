#include "dppr/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "dppr/common/env.h"
#include "dppr/common/macros.h"
#include "dppr/obs/flush.h"

namespace dppr::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

uint64_t Histogram::BucketLowerBound(size_t index) {
  DPPR_CHECK_LT(index, kNumBuckets);
  if (index < kLinearBuckets) return index;
  const size_t off = index - kLinearBuckets;
  const int octave = static_cast<int>(off / kSubBuckets) + 6;
  const uint64_t sub = off % kSubBuckets;
  return (uint64_t{1} << octave) + (sub << (octave - 5));
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  DPPR_CHECK_LT(index, kNumBuckets);
  if (index < kLinearBuckets) return index;
  const size_t off = index - kLinearBuckets;
  const int octave = static_cast<int>(off / kSubBuckets) + 6;
  const uint64_t width = uint64_t{1} << (octave - 5);
  // The last bucket's range tops out at UINT64_MAX; the unsigned wrap of
  // lower + width - 1 yields exactly that.
  return BucketLowerBound(index) + width - 1;
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  snap.counts.resize(kNumBuckets);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    snap.counts[i] = c;
    snap.total += c;
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

uint64_t Histogram::Snapshot::Quantile(double q) const {
  if (total == 0 || counts.empty()) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  // 1-based rank of the order statistic the quantile names; q=0.5 over 10
  // samples is rank 5, q=1.0 the maximum.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  rank = std::max<uint64_t>(rank, 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) return BucketUpperBound(i);
  }
  return BucketUpperBound(counts.size() - 1);
}

Histogram::Snapshot Histogram::Snapshot::Since(const Snapshot& baseline) const {
  Snapshot delta;
  delta.counts.resize(kNumBuckets);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t base =
        i < baseline.counts.size() ? baseline.counts[i] : 0;
    DPPR_DCHECK(counts[i] >= base);
    delta.counts[i] = counts[i] - base;
    delta.total += delta.counts[i];
  }
  delta.sum = sum - baseline.sum;
  return delta;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    if (!GetEnvString("DPPR_METRICS_DUMP", "").empty()) {
      // The path is re-read at exit so the hook body stays capture-free
      // (atexit takes a plain function pointer).
      std::atexit([] {
        MetricsRegistry::Global().WriteFile(
            GetEnvString("DPPR_METRICS_DUMP", ""));
      });
      // Ctrl-C'd runs keep their dump too.
      InstallSignalFlushOnce();
    }
    return r;
  }();
  return *registry;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(const std::string& name,
                                                      Kind kind) {
  DPPR_CHECK(!name.empty());
  Shard& shard = shards_[std::hash<std::string>{}(name) % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  for (auto& [existing, entry] : shard.metrics) {
    if (existing == name) {
      // One name, one metric: a counter named like an existing histogram is
      // an instrumentation bug, not a new series.
      DPPR_CHECK(entry.kind == kind);
      return &entry;
    }
  }
  Entry entry{kind, nullptr, nullptr, nullptr};
  switch (kind) {
    case Kind::kCounter: entry.counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: entry.gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram: entry.histogram = std::make_unique<Histogram>(); break;
  }
  shard.metrics.emplace_back(name, std::move(entry));
  return &shard.metrics.back().second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return FindOrCreate(name, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return FindOrCreate(name, Kind::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return FindOrCreate(name, Kind::kHistogram)->histogram.get();
}

std::vector<std::pair<std::string, const MetricsRegistry::Entry*>>
MetricsRegistry::SortedEntries() const {
  std::vector<std::pair<std::string, const Entry*>> all;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    all.reserve(all.size() + shard.metrics.size());
    for (const auto& [name, entry] : shard.metrics) {
      all.emplace_back(name, &entry);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return all;
}

namespace {

/// `serve.query_latency_us{server="0"}` -> base `serve.query_latency_us`,
/// labels `server="0"` (no braces).
void SplitLabels(const std::string& name, std::string* base,
                 std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  DPPR_CHECK(name.back() == '}');
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

/// Prometheus metric name: dppr_ prefix, [a-zA-Z0-9_:] only.
std::string PromName(const std::string& base) {
  std::string out = "dppr_";
  out.reserve(out.size() + base.size());
  for (char c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// {labels} suffix with an optional extra label appended (quantile rows).
std::string PromLabels(const std::string& labels, const std::string& extra) {
  if (labels.empty() && extra.empty()) return "";
  std::string joined = labels;
  if (!extra.empty()) {
    if (!joined.empty()) joined += ",";
    joined += extra;
  }
  return "{" + joined + "}";
}

constexpr double kQuantiles[] = {0.5, 0.95, 0.99, 0.999};
constexpr const char* kQuantileLabels[] = {"0.5", "0.95", "0.99", "0.999"};

}  // namespace

std::string MetricsRegistry::RenderText() const {
  std::string out;
  std::string base, labels, last_typed;
  for (const auto& [name, entry] : SortedEntries()) {
    SplitLabels(name, &base, &labels);
    const std::string prom = PromName(base);
    if (prom != last_typed) {
      // One TYPE line per family; labeled series of one family are adjacent
      // in the name-sorted order.
      out += "# TYPE " + prom;
      switch (entry->kind) {
        case Kind::kCounter: out += " counter\n"; break;
        case Kind::kGauge: out += " gauge\n"; break;
        case Kind::kHistogram: out += " summary\n"; break;
      }
      last_typed = prom;
    }
    char buf[64];
    switch (entry->kind) {
      case Kind::kCounter:
        std::snprintf(buf, sizeof(buf), " %llu\n",
                      static_cast<unsigned long long>(entry->counter->Value()));
        out += prom + PromLabels(labels, "") + buf;
        break;
      case Kind::kGauge:
        std::snprintf(buf, sizeof(buf), " %lld\n",
                      static_cast<long long>(entry->gauge->Value()));
        out += prom + PromLabels(labels, "") + buf;
        break;
      case Kind::kHistogram: {
        const Histogram::Snapshot snap = entry->histogram->TakeSnapshot();
        for (size_t i = 0; i < 4; ++i) {
          std::snprintf(buf, sizeof(buf), " %llu\n",
                        static_cast<unsigned long long>(
                            snap.Quantile(kQuantiles[i])));
          out += prom +
                 PromLabels(labels, std::string("quantile=\"") +
                                        kQuantileLabels[i] + "\"") +
                 buf;
        }
        std::snprintf(buf, sizeof(buf), " %llu\n",
                      static_cast<unsigned long long>(snap.sum));
        out += prom + "_sum" + PromLabels(labels, "") + buf;
        std::snprintf(buf, sizeof(buf), " %llu\n",
                      static_cast<unsigned long long>(snap.total));
        out += prom + "_count" + PromLabels(labels, "") + buf;
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::WriteFile(const std::string& path) const {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "dppr: cannot write metrics dump to %s\n",
                 path.c_str());
    return;
  }
  const std::string body = RenderText();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

}  // namespace dppr::obs
