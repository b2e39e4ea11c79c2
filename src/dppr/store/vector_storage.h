#ifndef DPPR_STORE_VECTOR_STORAGE_H_
#define DPPR_STORE_VECTOR_STORAGE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "dppr/common/macros.h"
#include "dppr/common/serialize.h"
#include "dppr/store/vector_record.h"

namespace dppr {

/// Pin handle returned by vector lookups. While a PpvRef is alive the vector
/// it refers to stays resident: for the in-memory backend that is trivially
/// true (the store owns the vector for its whole lifetime); for the disk
/// backend the ref shares ownership of the residency-cache entry, so
/// eviction under cache pressure can drop the entry from the cache without
/// invalidating outstanding pins. An empty ref means "not stored here".
///
/// This is the only way a vector leaves a VectorStorage — no raw
/// `const SparseVector*` escapes to callers — which is what makes the disk
/// backend's evict-anytime cache safe to put behind the same API.
class PpvRef {
 public:
  /// Empty (vector not present).
  PpvRef() = default;

  /// Pinned: shares ownership with the residency cache (disk backend).
  explicit PpvRef(std::shared_ptr<const SparseVector> pin) : pin_(std::move(pin)) {}

  /// Non-owning view of a vector whose lifetime is bounded by its store, not
  /// by cache pressure (in-memory backend). Uses the aliasing constructor
  /// with an empty owner, so no control block is allocated: the in-memory
  /// Find stays allocation-free.
  static PpvRef Unowned(const SparseVector* vec) {
    if (vec == nullptr) return {};
    return PpvRef(std::shared_ptr<const SparseVector>(
        std::shared_ptr<const SparseVector>{}, vec));
  }

  const SparseVector& operator*() const {
    DPPR_DCHECK(pin_ != nullptr);
    return *pin_;
  }
  const SparseVector* operator->() const {
    DPPR_DCHECK(pin_ != nullptr);
    return pin_.get();
  }
  explicit operator bool() const { return pin_ != nullptr; }

 private:
  std::shared_ptr<const SparseVector> pin_;
};

/// The pluggable representations behind PpvStore. Either way the store owns
/// every vector put into it.
enum class StorageBackend : uint8_t {
  /// Every vector lives in RAM in the store (the default).
  kMemoryOwned = 0,
  /// Vectors are appended to a per-store spill file in VectorRecord wire
  /// format and served through a byte-budgeted read-through LRU residency
  /// cache; index size is bounded by disk, not RAM.
  kDisk = 1,
};

const char* StorageBackendName(StorageBackend backend);

/// Backend selection + disk-backend knobs, all set in code by whoever builds
/// the store; the default keeps every vector in memory.
struct StorageOptions {
  StorageBackend backend = StorageBackend::kMemoryOwned;
  /// Disk backend: serialized bytes the residency cache may keep in RAM.
  /// A budget smaller than one vector still serves correctly — every access
  /// is a miss that reads the extent from disk.
  size_t cache_bytes = size_t{64} << 20;
  /// Disk backend: directory for the anonymous (unlinked) spill file when
  /// `spill_path` is empty. Empty = $TMPDIR, or /tmp when that is unset.
  std::string spill_dir;
  /// Disk backend: named spill file to create — the store's one record
  /// file, kept on disk and reopenable via PpvStore::OpenSpill. Empty =
  /// anonymous temp file, deleted on close.
  std::string spill_path;
};

/// Residency-cache counts of a set of lookups. A "hit" is a lookup served
/// from RAM, a "miss" one that had to read its extent from the spill file;
/// the in-memory backend serves every present vector from RAM, so it only
/// ever counts hits. Stores keep no lifetime totals: every count lands in the
/// calling thread's StorageStatsScope sink (a query round's
/// QueryMetrics::storage), and lookups made outside a scope are counted
/// nowhere.
struct StorageStats {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t disk_bytes_read = 0;

  StorageStats& operator+=(const StorageStats& other);
  /// Counter delta since `baseline` (ServerStats windows).
  StorageStats Since(const StorageStats& baseline) const;
  bool operator==(const StorageStats&) const = default;
};

/// Every StorageStats counter, for code that treats them uniformly.
inline constexpr std::array<uint64_t StorageStats::*, 3> kStorageCounters{
    &StorageStats::cache_hits, &StorageStats::cache_misses,
    &StorageStats::disk_bytes_read};

inline StorageStats& StorageStats::operator+=(const StorageStats& other) {
  for (uint64_t StorageStats::*counter : kStorageCounters) {
    this->*counter += other.*counter;
  }
  return *this;
}

inline StorageStats StorageStats::Since(const StorageStats& baseline) const {
  StorageStats delta;
  for (uint64_t StorageStats::*counter : kStorageCounters) {
    delta.*counter = this->*counter - baseline.*counter;
  }
  return delta;
}

/// The one ledger of store lookups. While a scope is alive on a thread, every
/// count a store charges on that thread is added to the scope's sink, so a
/// query round learns exactly what its own machine tasks cost even while
/// other rounds hit the same stores. Scopes nest: the innermost sink wins and
/// the previous one is restored on destruction. The sink is written
/// unsynchronized, so give each concurrently running task its own.
class StorageStatsScope {
 public:
  explicit StorageStatsScope(StorageStats* sink);
  ~StorageStatsScope();
  StorageStatsScope(const StorageStatsScope&) = delete;
  StorageStatsScope& operator=(const StorageStatsScope&) = delete;

  /// The calling thread's innermost sink, or null.
  static StorageStats* Current();

 private:
  StorageStats* previous_;
};

/// Storage-backend interface behind PpvStore: one simulated machine's vector
/// storage plus the serialized-bytes ledger (total and per kind) that is the
/// paper's per-machine space metric. The ledger always charges the vector's
/// *serialized* size regardless of representation, so byte metrics are
/// bit-identical across backends.
///
/// Threading contract: writes (PutOwned/IngestFrom) are single-threaded —
/// they happen in the coordinator's ingest phase — while Find is safe from
/// many threads at once after the writes are done (the serving regime). Don't
/// interleave writes with concurrent Finds.
class VectorStorage {
 public:
  virtual ~VectorStorage() = default;

  virtual StorageBackend backend() const = 0;

  /// Adopts `vec`.
  virtual void PutOwned(VectorKind kind, SubgraphId sub, NodeId node,
                        SparseVector vec, size_t serialized_bytes) = 0;

  /// Consumes exactly one wire record from `reader` (validating it — hostile
  /// bytes DPPR_CHECK-fail) and adopts its vector through PutOwned; the byte
  /// ledger is charged the vector's serialized size. Returns the record's
  /// compute seconds so the caller can charge its offline ledger. The disk
  /// backend overrides this to append the raw record bytes straight to its
  /// spill file instead of materializing the vector in RAM beyond the
  /// transient validation parse.
  virtual double IngestFrom(ByteReader& reader);

  /// Empty ref when this machine does not hold the vector.
  virtual PpvRef Find(VectorKind kind, SubgraphId sub, NodeId node) const = 0;

  /// Deep copy with the same ledger; a disk copy starts a fresh residency
  /// cache and is read-only.
  virtual std::unique_ptr<VectorStorage> Clone() const = 0;

  /// Serialized bytes currently resident in RAM: everything for the
  /// in-memory backend, the cache's live footprint for the disk backend.
  virtual size_t ResidentBytes() const { return total_bytes_; }

  size_t num_vectors() const { return num_vectors_; }
  size_t TotalSerializedBytes() const { return total_bytes_; }
  size_t SerializedBytesByKind(VectorKind kind) const {
    return bytes_by_kind_[static_cast<uint8_t>(kind)];
  }

 protected:
  /// The one counting site every backend charges through: adds `n` to the
  /// calling thread's StorageStatsScope sink, if one is installed.
  static void Count(uint64_t StorageStats::*counter, uint64_t n) {
    if (StorageStats* sink = StorageStatsScope::Current()) sink->*counter += n;
  }

  /// Ledger charge shared by every backend's insert path. Stores hold
  /// skeletons as rows only; a column reaching a store skipped the transpose.
  void Charge(VectorKind kind, size_t serialized_bytes) {
    DPPR_CHECK(kind != VectorKind::kSkeletonColumn);
    total_bytes_ += serialized_bytes;
    bytes_by_kind_[static_cast<uint8_t>(kind)] += serialized_bytes;
    ++num_vectors_;
  }
  void CopyLedgerFrom(const VectorStorage& other) {
    total_bytes_ = other.total_bytes_;
    bytes_by_kind_ = other.bytes_by_kind_;
    num_vectors_ = other.num_vectors_;
  }

 private:
  size_t total_bytes_ = 0;
  std::array<size_t, kNumVectorKinds> bytes_by_kind_{};
  size_t num_vectors_ = 0;
};

/// Factory for StorageOptions::backend.
std::unique_ptr<VectorStorage> MakeVectorStorage(const StorageOptions& options);

}  // namespace dppr

#endif  // DPPR_STORE_VECTOR_STORAGE_H_
