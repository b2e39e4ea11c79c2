#include "dppr/store/vector_storage.h"

#include <utility>

#include "dppr/common/env.h"
#include "dppr/store/disk_storage.h"
#include "dppr/store/memory_storage.h"

namespace dppr {
namespace {

thread_local StorageStats* t_storage_sink = nullptr;

}  // namespace

StorageStatsScope::StorageStatsScope(StorageStats* sink)
    : previous_(t_storage_sink) {
  t_storage_sink = sink;
}

StorageStatsScope::~StorageStatsScope() { t_storage_sink = previous_; }

StorageStats* StorageStatsScope::Current() { return t_storage_sink; }

const char* StorageBackendName(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kMemoryOwned:
      return "memory-owned";
    case StorageBackend::kDisk:
      return "disk";
  }
  DPPR_CHECK(false);
  return nullptr;
}

StorageOptions StorageOptions::FromEnv(StorageBackend fallback) {
  StorageOptions options;
  options.backend = fallback;
  std::string store = GetEnvString("DPPR_STORE", "");
  if (store == "disk") {
    options.backend = StorageBackend::kDisk;
  } else if (!store.empty() && store != "memory") {
    // A typo must fail loudly: silently serving from RAM when the operator
    // asked for out-of-core storage defeats the point of the knob.
    std::fprintf(stderr, "unknown DPPR_STORE value: %s\n", store.c_str());
    DPPR_CHECK(store == "disk" || store == "memory");
  }
  int64_t cache = GetEnvInt("DPPR_CACHE_BYTES", static_cast<int64_t>(options.cache_bytes));
  DPPR_CHECK_GE(cache, 0);
  options.cache_bytes = static_cast<size_t>(cache);
  return options;
}

double VectorStorage::IngestFrom(ByteReader& reader) {
  VectorRecord record = VectorRecord::Deserialize(reader);
  size_t bytes = record.vec.SerializedBytes();
  PutOwned(record.kind, record.sub, record.node, std::move(record.vec), bytes);
  return record.seconds;
}

std::unique_ptr<VectorStorage> MakeVectorStorage(const StorageOptions& options) {
  switch (options.backend) {
    case StorageBackend::kMemoryOwned:
      return std::make_unique<MemoryStorage>();
    case StorageBackend::kDisk:
      return std::make_unique<DiskSpillStorage>(options);
  }
  DPPR_CHECK(false);
  return nullptr;
}

}  // namespace dppr
