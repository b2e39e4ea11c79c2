#ifndef DPPR_STORE_PPV_STORE_H_
#define DPPR_STORE_PPV_STORE_H_

#include <memory>
#include <string>

#include "dppr/store/vector_record.h"
#include "dppr/store/vector_storage.h"

namespace dppr {

/// What PpvStore::FindPair returns (see there).
struct PpvPair {
  PpvRef partial;
};

/// One simulated machine's vector storage: a value-type handle over a
/// pluggable VectorStorage backend (see StorageBackend). Call sites pick a
/// backend per construction — the centralized oracle path defaults to
/// kMemoryRef, the distributed offline path to kMemoryOwned — and
/// `DPPR_STORE=disk` flips any default-constructed store to the disk-backed
/// spill backend, which is how the CI disk leg runs the whole suite
/// out-of-core.
///
/// Lookups return PpvRef pin handles, never raw pointers: the disk backend's
/// residency cache may evict a vector at any moment, and the pin is what
/// keeps it alive while a query folds it.
class PpvStore {
 public:
  /// Backend from the environment (in-memory referencing unless DPPR_STORE
  /// overrides).
  PpvStore() : PpvStore(StorageOptions::FromEnv()) {}
  explicit PpvStore(const StorageOptions& options)
      : storage_(MakeVectorStorage(options)) {}

  /// Reopens a disk store from a named spill file written via
  /// StorageOptions::spill_path. Scanning re-validates every record:
  /// truncated or corrupted spill files DPPR_CHECK-fail here, at open.
  static PpvStore OpenSpill(const std::string& path,
                            const StorageOptions& options = StorageOptions::FromEnv(
                                StorageBackend::kDisk));

  /// Copying is legal in every backend: owned vectors are deep-copied (the
  /// lookup table re-pointed at the copies), disk clones share the immutable
  /// spill file and start a fresh residency cache. Self-assignment is a
  /// no-op.
  PpvStore(const PpvStore& other) : storage_(other.storage_->Clone()) {}
  PpvStore& operator=(const PpvStore& other) {
    if (this != &other) storage_ = other.storage_->Clone();
    return *this;
  }
  PpvStore(PpvStore&&) = default;
  PpvStore& operator=(PpvStore&&) = default;

  /// Referencing put: `vec` must outlive the store under kMemoryRef; the
  /// owning and disk backends adopt a copy instead.
  void Put(VectorKind kind, SubgraphId sub, NodeId node, const SparseVector* vec,
           size_t serialized_bytes) {
    storage_->Put(kind, sub, node, vec, serialized_bytes);
  }

  /// Owning put: adopts `vec` (spills it under the disk backend).
  void PutOwned(VectorKind kind, SubgraphId sub, NodeId node, SparseVector vec,
                size_t serialized_bytes) {
    storage_->PutOwned(kind, sub, node, std::move(vec), serialized_bytes);
  }

  /// Adopts one wire record; the byte ledger is charged the vector's
  /// serialized size. Returns the record's compute seconds so the caller can
  /// charge its offline ledger.
  double Ingest(VectorRecord record) { return storage_->Ingest(std::move(record)); }

  /// Consumes exactly one record from `reader` and stores it — the disk
  /// backend streams the raw wire bytes straight to its spill file. Hostile
  /// bytes DPPR_CHECK-fail before anything is stored.
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
  /// Vectors whose bytes the store itself holds (owned or spilled).
  size_t num_owned() const { return storage_->num_owned(); }

  /// Serialized size of everything stored here (the paper's per-machine
  /// space metric; backend-invariant).
  size_t TotalSerializedBytes() const { return storage_->TotalSerializedBytes(); }

  /// Ledger breakdown: serialized bytes held per vector kind.
  size_t SerializedBytesByKind(VectorKind kind) const {
    return storage_->SerializedBytesByKind(kind);
  }

  /// Serialized bytes currently resident in RAM (≤ cache budget for disk).
  size_t ResidentBytes() const { return storage_->ResidentBytes(); }

  /// Residency counters: hits/misses and bytes read from the spill file.
  StorageStats storage_stats() const { return storage_->stats(); }

 private:
  explicit PpvStore(std::unique_ptr<VectorStorage> storage)
      : storage_(std::move(storage)) {}

  std::unique_ptr<VectorStorage> storage_;
};

}  // namespace dppr

#endif  // DPPR_STORE_PPV_STORE_H_
