#include "test_util.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "dppr/common/env.h"
#include "dppr/common/macros.h"
#include "dppr/common/rng.h"

namespace dppr::testing {

TransportOptions TransportUnderTest() {
  TransportOptions options;
  const std::string transport = GetEnvString("DPPR_TRANSPORT", "");
  if (transport == "tcp") {
    options.backend = TransportBackend::kTcp;
  } else if (!transport.empty() && transport != "inproc") {
    std::fprintf(stderr, "unknown DPPR_TRANSPORT value: %s\n",
                 transport.c_str());
    DPPR_CHECK(transport == "tcp" || transport == "inproc");
  }
  return options;
}

StorageOptions StorageUnderTest() {
  StorageOptions options;
  const std::string store = GetEnvString("DPPR_STORE", "");
  if (store == "disk") {
    options.backend = StorageBackend::kDisk;
    options.cache_bytes = 4096;
  } else if (!store.empty() && store != "memory") {
    std::fprintf(stderr, "unknown DPPR_STORE value: %s\n", store.c_str());
    DPPR_CHECK(store == "disk" || store == "memory");
  }
  return options;
}

DistPrecomputeOptions DistOptionsUnderTest() {
  DistPrecomputeOptions options;
  options.storage = StorageUnderTest();
  options.transport = TransportUnderTest();
  return options;
}

ScopedEnv::ScopedEnv(const std::string& name, const std::string& value)
    : name_(name) {
  if (const char* previous = std::getenv(name.c_str())) previous_ = previous;
  ::setenv(name.c_str(), value.c_str(), 1);
}

ScopedEnv::~ScopedEnv() {
  if (previous_) {
    ::setenv(name_.c_str(), previous_->c_str(), 1);
  } else {
    ::unsetenv(name_.c_str());
  }
}

Graph RandomDigraph(size_t num_nodes, double avg_degree, uint64_t seed,
                    bool self_loop_dangling) {
  Rng rng(seed);
  GraphBuilder builder(num_nodes);
  size_t num_edges = static_cast<size_t>(avg_degree * static_cast<double>(num_nodes));
  for (size_t i = 0; i < num_edges; ++i) {
    builder.AddEdge(static_cast<NodeId>(rng.Uniform(num_nodes)),
                    static_cast<NodeId>(rng.Uniform(num_nodes)));
  }
  GraphBuildOptions options;
  options.dangling =
      self_loop_dangling ? DanglingPolicy::kSelfLoop : DanglingPolicy::kKeep;
  options.build_in_edges = true;
  return builder.Build(options);
}

SparseVector RandomSparseVector(uint64_t seed, size_t entries) {
  Rng rng(seed);
  std::vector<SparseVector::Entry> out;
  for (size_t i = 0; i < entries; ++i) {
    out.push_back({static_cast<NodeId>(rng.Uniform(1u << 20)),
                   rng.NextDouble() - 0.5});
  }
  return SparseVector::FromEntries(std::move(out));
}

}  // namespace dppr::testing
