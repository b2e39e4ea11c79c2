#ifndef DPPR_STORE_MEMORY_STORAGE_H_
#define DPPR_STORE_MEMORY_STORAGE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "dppr/store/vector_storage.h"

namespace dppr {

/// In-memory backend: every vector lives in the store's own hash map, whose
/// nodes keep each vector at a stable address for the store's lifetime
/// (growth and moves included). Every present vector is permanently
/// resident: Find is an allocation-free hash lookup returning an unowned
/// pin, and every successful lookup counts as a cache hit (there is no miss
/// path). A clone deep-copies every vector.
class MemoryStorage final : public VectorStorage {
 public:
  StorageBackend backend() const override { return StorageBackend::kMemoryOwned; }

  void PutOwned(VectorKind kind, SubgraphId sub, NodeId node, SparseVector vec,
                size_t serialized_bytes) override;
  PpvRef Find(VectorKind kind, SubgraphId sub, NodeId node) const override;
  std::unique_ptr<VectorStorage> Clone() const override;

 private:
  std::unordered_map<uint64_t, SparseVector> map_;
};

}  // namespace dppr

#endif  // DPPR_STORE_MEMORY_STORAGE_H_
