#include "dppr/store/ppv_store.h"

#include "dppr/store/disk_storage.h"

namespace dppr {

PpvStore PpvStore::OpenSpill(const std::string& path,
                             const StorageOptions& options) {
  return PpvStore(DiskSpillStorage::OpenExisting(path, options));
}

std::vector<PpvStore> MakeMachineStores(const StorageOptions& options,
                                        size_t num_machines) {
  DPPR_CHECK(options.spill_path.empty() || num_machines <= 1);
  std::vector<PpvStore> stores;
  stores.reserve(num_machines);
  for (size_t m = 0; m < num_machines; ++m) stores.emplace_back(options);
  return stores;
}

}  // namespace dppr
