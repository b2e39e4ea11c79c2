#include "dppr/store/memory_storage.h"

namespace dppr {
namespace {

/// Strips the kind bits off a packed vector key: the paired index is keyed
/// on (sub, node) alone.
constexpr uint64_t kPairKeyMask = (uint64_t{1} << 60) - 1;

}  // namespace

void MemoryRefStorage::Insert(VectorKind kind, SubgraphId sub, NodeId node,
                              const SparseVector* vec, size_t serialized_bytes) {
  uint64_t key = MakeVectorKey(kind, sub, node);
  bool inserted = map_.emplace(key, vec).second;
  DPPR_CHECK(inserted);
  if (kind == VectorKind::kSkeletonColumn) {
    pair_map_[key & kPairKeyMask].first = vec;
  } else if (kind == VectorKind::kHubPartial) {
    pair_map_[key & kPairKeyMask].second = vec;
  }
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

PpvPair MemoryRefStorage::FindPair(SubgraphId sub, NodeId hub) const {
  auto it = pair_map_.find(MakeVectorKey(VectorKind::kHubPartial, sub, hub) &
                           kPairKeyMask);
  if (it == pair_map_.end()) return {};
  // Same accounting as two Finds: one hit per present member.
  uint64_t present = (it->second.first != nullptr ? 1u : 0u) +
                     (it->second.second != nullptr ? 1u : 0u);
  Count(&StorageStats::cache_hits, present);
  return {PpvRef::Unowned(it->second.first), PpvRef::Unowned(it->second.second)};
}

void MemoryRefStorage::CopyStateFrom(const MemoryRefStorage& other) {
  map_ = other.map_;
  pair_map_ = other.pair_map_;
  owned_ = other.owned_;
  CopyLedgerFrom(other);
  for (auto& [key, vec] : owned_) {
    map_[key] = &vec;
    // Re-point the paired index too — an entry for a copied owned vector
    // must not alias the source store's deque.
    VectorKind kind = VectorKindOfKey(key);
    if (kind == VectorKind::kSkeletonColumn) {
      pair_map_[key & kPairKeyMask].first = &vec;
    } else if (kind == VectorKind::kHubPartial) {
      pair_map_[key & kPairKeyMask].second = &vec;
    }
  }
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
