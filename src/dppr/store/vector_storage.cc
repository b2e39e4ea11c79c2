#include "dppr/store/vector_storage.h"

#include <utility>

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
