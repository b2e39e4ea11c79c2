#include "dppr/store/memory_storage.h"

#include <utility>

namespace dppr {

void MemoryStorage::PutOwned(VectorKind kind, SubgraphId sub, NodeId node,
                             SparseVector vec, size_t serialized_bytes) {
  bool inserted =
      map_.emplace(MakeVectorKey(kind, sub, node), std::move(vec)).second;
  DPPR_CHECK(inserted);
  Charge(kind, serialized_bytes);
}

PpvRef MemoryStorage::Find(VectorKind kind, SubgraphId sub, NodeId node) const {
  auto it = map_.find(MakeVectorKey(kind, sub, node));
  if (it == map_.end()) return {};
  Count(&StorageStats::cache_hits, 1);
  return PpvRef::Unowned(&it->second);
}

std::unique_ptr<VectorStorage> MemoryStorage::Clone() const {
  auto clone = std::make_unique<MemoryStorage>();
  clone->map_ = map_;
  clone->CopyLedgerFrom(*this);
  return clone;
}

}  // namespace dppr
