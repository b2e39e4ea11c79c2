#include "dppr/serve/query_profile.h"

#include <cinttypes>
#include <utility>

namespace dppr {
namespace {

const char* OutcomeName(QueryProfile::Outcome outcome) {
  switch (outcome) {
    case QueryProfile::Outcome::kServed:
      return "served";
    case QueryProfile::Outcome::kCacheHit:
      return "cache_hit";
    case QueryProfile::Outcome::kShed:
      return "shed";
  }
  return "unknown";
}

void AppendU64(std::string& out, const char* key, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 ",", key, value);
  out += buf;
}

void AppendF(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6f,", key, value);
  out += buf;
}

}  // namespace

std::string QueryProfile::ToJson() const {
  std::string out = "{";
  AppendU64(out, "trace_id", trace_id);
  AppendU64(out, "request_id", request_id);
  out += "\"outcome\":\"";
  out += OutcomeName(outcome);
  out += "\",";
  if (source != kInvalidNode) AppendU64(out, "source", source);
  AppendU64(out, "num_preferences", num_preferences);
  AppendF(out, "latency_seconds", latency_seconds);
  AppendF(out, "wait_seconds", wait_seconds);
  AppendU64(out, "round_id", metrics.round_id);
  out += "\"machines\":[";
  for (size_t i = 0; i < metrics.machines.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%zu", i == 0 ? "" : ",",
                  metrics.machines[i]);
    out += buf;
  }
  out += "],";
  AppendU64(out, "machines_contacted", metrics.machines_contacted);
  AppendU64(out, "fragment_messages", metrics.comm.messages);
  AppendU64(out, "fragment_bytes", metrics.comm.bytes);
  // Only participants' entries are interesting; the full-width vector is
  // mostly zeros under routing, so emit (machine, seconds) pairs.
  out += "\"machine_seconds\":{";
  bool first = true;
  for (size_t m : metrics.machines) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\"%zu\":%.6f", first ? "" : ",", m,
                  m < metrics.machine_seconds.size()
                      ? metrics.machine_seconds[m]
                      : 0.0);
    out += buf;
    first = false;
  }
  out += "},";
  AppendF(out, "max_machine_seconds", metrics.max_machine_seconds);
  AppendF(out, "coordinator_seconds", metrics.coordinator_seconds);
  AppendU64(out, "store_cache_hits", metrics.storage.cache_hits);
  AppendU64(out, "store_cache_misses", metrics.storage.cache_misses);
  AppendU64(out, "disk_bytes_read", metrics.storage.disk_bytes_read);
  out.pop_back();  // drop the trailing comma
  out += "}";
  return out;
}

ProfileLog::ProfileLog(Options options) : options_(std::move(options)) {}

ProfileLog::~ProfileLog() {
  if (sink_ != nullptr) std::fclose(sink_);
}

void ProfileLog::Observe(const QueryProfile& profile) {
  const bool slow =
      options_.slow_threshold_us >= 0 &&
      profile.latency_seconds * 1e6 >=
          static_cast<double>(options_.slow_threshold_us);
  std::string line;
  if (slow) line = profile.ToJson();

  std::lock_guard<std::mutex> lock(mu_);
  recent_.push_back(profile);
  if (recent_.size() > options_.recent_capacity) recent_.pop_front();
  if (!slow) return;
  slow_.push_back(profile);
  if (slow_.size() > options_.slow_capacity) slow_.pop_front();
  if (!options_.path.empty() && sink_ == nullptr && !sink_failed_) {
    sink_ = std::fopen(options_.path.c_str(), "a");
    if (sink_ == nullptr) {
      sink_failed_ = true;  // warn once, then fall back to stderr
      std::fprintf(stderr, "dppr: cannot append slow-query log to %s\n",
                   options_.path.c_str());
    }
  }
  std::FILE* out = sink_ != nullptr ? sink_ : stderr;
  std::fprintf(out, "%s\n", line.c_str());
  std::fflush(out);
}

std::vector<QueryProfile> ProfileLog::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {recent_.rbegin(), recent_.rend()};
}

std::vector<QueryProfile> ProfileLog::RecentSlow() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {slow_.rbegin(), slow_.rend()};
}

}  // namespace dppr
