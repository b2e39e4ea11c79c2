#include "dppr/store/memory_storage.h"

namespace dppr {

void MemoryRefStorage::Insert(VectorKind kind, SubgraphId sub, NodeId node,
                              const SparseVector* vec, size_t serialized_bytes) {
  bool inserted = map_.emplace(MakeVectorKey(kind, sub, node), vec).second;
  DPPR_CHECK(inserted);
  Charge(kind, serialized_bytes);
}

void MemoryRefStorage::Put(VectorKind kind, SubgraphId sub, NodeId node,
                           const SparseVector* vec, size_t serialized_bytes) {
  DPPR_CHECK(vec != nullptr);
  Insert(kind, sub, node, vec, serialized_bytes);
}

void MemoryRefStorage::PutOwned(VectorKind kind, SubgraphId sub, NodeId node,
                                SparseVector vec, size_t serialized_bytes) {
  owned_.emplace_back(MakeVectorKey(kind, sub, node), std::move(vec));
  Insert(kind, sub, node, &owned_.back().second, serialized_bytes);
}

PpvRef MemoryRefStorage::Find(VectorKind kind, SubgraphId sub, NodeId node) const {
  auto it = map_.find(MakeVectorKey(kind, sub, node));
  if (it == map_.end()) return {};
  Count(&StorageStats::cache_hits, 1);
  return PpvRef::Unowned(it->second);
}

void MemoryRefStorage::CopyStateFrom(const MemoryRefStorage& other) {
  map_ = other.map_;
  owned_ = other.owned_;
  CopyLedgerFrom(other);
  for (auto& [key, vec] : owned_) map_[key] = &vec;
}

std::unique_ptr<VectorStorage> MemoryRefStorage::Clone() const {
  auto clone = std::make_unique<MemoryRefStorage>();
  clone->CopyStateFrom(*this);
  return clone;
}

void MemoryOwnedStorage::Put(VectorKind kind, SubgraphId sub, NodeId node,
                             const SparseVector* vec, size_t serialized_bytes) {
  DPPR_CHECK(vec != nullptr);
  PutOwned(kind, sub, node, *vec, serialized_bytes);
}

std::unique_ptr<VectorStorage> MemoryOwnedStorage::Clone() const {
  auto clone = std::make_unique<MemoryOwnedStorage>();
  clone->CopyStateFrom(*this);
  return clone;
}

}  // namespace dppr
