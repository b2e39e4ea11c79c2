#ifndef DPPR_STORE_MEMORY_STORAGE_H_
#define DPPR_STORE_MEMORY_STORAGE_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>

#include "dppr/store/vector_storage.h"

namespace dppr {

/// Referencing in-memory backend (the legacy PpvStore representation): `Put`
/// aliases a vector owned by the placement-independent HgpaPrecomputation
/// (the centralized oracle path), while `PutOwned`/`Ingest` adopt vectors
/// into an address-stable deque, so one store may mix both per vector.
/// Every present vector is permanently resident: Find is an allocation-free
/// hash lookup returning an unowned pin, and every successful lookup counts
/// as a cache hit (there is no miss path).
class MemoryRefStorage : public VectorStorage {
 public:
  StorageBackend backend() const override { return StorageBackend::kMemoryRef; }

  void Put(VectorKind kind, SubgraphId sub, NodeId node, const SparseVector* vec,
           size_t serialized_bytes) override;
  void PutOwned(VectorKind kind, SubgraphId sub, NodeId node, SparseVector vec,
                size_t serialized_bytes) override;
  PpvRef Find(VectorKind kind, SubgraphId sub, NodeId node) const override;
  std::unique_ptr<VectorStorage> Clone() const override;
  size_t num_owned() const override { return owned_.size(); }

 protected:
  void Insert(VectorKind kind, SubgraphId sub, NodeId node,
              const SparseVector* vec, size_t serialized_bytes);
  /// Deep-copies maps/deque from `other` and re-points map entries at the
  /// copied owned vectors (referencing entries keep aliasing the original
  /// owner). Shared by Clone of both in-memory backends.
  void CopyStateFrom(const MemoryRefStorage& other);

 private:
  std::unordered_map<uint64_t, const SparseVector*> map_;
  /// Owned vectors with their keys; deque for address stability under
  /// growth, keys so Clone can re-point map_ entries.
  std::deque<std::pair<uint64_t, SparseVector>> owned_;
};

/// Owning in-memory backend (the distributed offline path's mode): every
/// vector lives in the store — the referencing `Put` adopts a deep copy, so
/// the store never depends on an external owner's lifetime.
class MemoryOwnedStorage final : public MemoryRefStorage {
 public:
  StorageBackend backend() const override { return StorageBackend::kMemoryOwned; }

  void Put(VectorKind kind, SubgraphId sub, NodeId node, const SparseVector* vec,
           size_t serialized_bytes) override;
  std::unique_ptr<VectorStorage> Clone() const override;
};

}  // namespace dppr

#endif  // DPPR_STORE_MEMORY_STORAGE_H_
