#ifndef DPPR_STORE_PPV_STORE_H_
#define DPPR_STORE_PPV_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "dppr/store/vector_record.h"
#include "dppr/store/vector_storage.h"

namespace dppr {

/// What PpvStore::FindPair returns (see there).
struct PpvPair {
  PpvRef partial;
};

/// One simulated machine's vector storage: a value-type handle over a
/// pluggable VectorStorage backend (see StorageBackend) that owns every
/// vector put into it. Stores default to kMemoryOwned, and `DPPR_STORE=disk`
/// flips any default-constructed store to the disk-backed spill backend,
/// which is how ctest's disk configurations run the whole suite out of core.
///
/// Lookups return PpvRef pin handles, never raw pointers: the disk backend's
/// residency cache may evict a vector at any moment, and the pin is what
/// keeps it alive while a query folds it.
class PpvStore {
 public:
  /// Backend from the environment (in memory unless DPPR_STORE overrides).
  PpvStore() : PpvStore(StorageOptions::FromEnv()) {}
  explicit PpvStore(const StorageOptions& options)
      : storage_(MakeVectorStorage(options)) {}

  /// Reopens a disk store from the named spill file a store built with
  /// StorageOptions::spill_path wrote: one scan of its back-to-back records
  /// re-validates each one, so a truncated, corrupted or foreign file
  /// DPPR_CHECK-fails here, at open. The reopened store is read-only.
  static PpvStore OpenSpill(const std::string& path,
                            const StorageOptions& options = StorageOptions::FromEnv(
                                StorageBackend::kDisk));

  /// Copying is legal in every backend: in-memory vectors are deep-copied,
  /// disk clones share the immutable spill file, start a fresh residency
  /// cache and are read-only (a put into one dies, so the file keeps one
  /// writer). Self-assignment is a no-op.
  PpvStore(const PpvStore& other) : storage_(other.storage_->Clone()) {}
  PpvStore& operator=(const PpvStore& other) {
    if (this != &other) storage_ = other.storage_->Clone();
    return *this;
  }
  PpvStore(PpvStore&&) = default;
  PpvStore& operator=(PpvStore&&) = default;

  /// Adopts `vec` (spills it under the disk backend).
  void PutOwned(VectorKind kind, SubgraphId sub, NodeId node, SparseVector vec,
                size_t serialized_bytes) {
    storage_->PutOwned(kind, sub, node, std::move(vec), serialized_bytes);
  }

  /// Consumes exactly one wire record from `reader` and stores it — the disk
  /// backend streams the raw wire bytes straight to its spill file. Hostile
  /// bytes DPPR_CHECK-fail before anything is stored. The byte ledger is
  /// charged the vector's serialized size; returns the record's compute
  /// seconds so the caller can charge its offline ledger.
  double IngestFrom(ByteReader& reader) { return storage_->IngestFrom(reader); }

  /// Empty ref when this machine does not hold the vector. Thread-safe once
  /// ingest is done; the ref pins the vector resident while in scope.
  PpvRef Find(VectorKind kind, SubgraphId sub, NodeId node) const {
    return storage_->Find(kind, sub, node);
  }

  /// The hub's partial, from one Find. Kept only because the pinned
  /// benchmark's store.find probe still calls it; skeleton values live in
  /// rows now, so there is no pair left to resolve.
  PpvPair FindPair(SubgraphId sub, NodeId hub) const {
    return {Find(VectorKind::kHubPartial, sub, hub)};
  }

  StorageBackend backend() const { return storage_->backend(); }
  size_t num_vectors() const { return storage_->num_vectors(); }

  /// Serialized size of everything stored here (the paper's per-machine
  /// space metric; backend-invariant).
  size_t TotalSerializedBytes() const { return storage_->TotalSerializedBytes(); }

  /// Ledger breakdown: serialized bytes held per vector kind.
  size_t SerializedBytesByKind(VectorKind kind) const {
    return storage_->SerializedBytesByKind(kind);
  }

  /// Serialized bytes currently resident in RAM (≤ cache budget for disk).
  /// Lookups are counted only in the caller's StorageStatsScope.
  size_t ResidentBytes() const { return storage_->ResidentBytes(); }

 private:
  explicit PpvStore(std::unique_ptr<VectorStorage> storage)
      : storage_(std::move(storage)) {}

  std::unique_ptr<VectorStorage> storage_;
};

/// One store per machine, each built from `options`. A named spill file has
/// one writer, so `options.spill_path` with more than one machine dies here:
/// every store would truncate the same file and write over the others'
/// records.
std::vector<PpvStore> MakeMachineStores(const StorageOptions& options,
                                        size_t num_machines);

}  // namespace dppr

#endif  // DPPR_STORE_PPV_STORE_H_
