#ifndef DPPR_STORE_VECTOR_STORAGE_H_
#define DPPR_STORE_VECTOR_STORAGE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "dppr/common/macros.h"
#include "dppr/common/serialize.h"
#include "dppr/store/vector_record.h"

namespace dppr {

/// Pin handle returned by vector lookups. While a PpvRef is alive the vector
/// it refers to stays resident: for the in-memory backends that is trivially
/// true (the store owns or references the vector for its whole lifetime); for
/// the disk backend the ref shares ownership of the residency-cache entry, so
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
  /// by cache pressure (in-memory backends). Uses the aliasing constructor
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

/// The pluggable representations behind PpvStore.
enum class StorageBackend : uint8_t {
  /// Vectors alias an external owner (the centralized HgpaPrecomputation);
  /// `PutOwned`/`Ingest` still adopt copies, so mixed stores are legal.
  kMemoryRef = 0,
  /// Every vector lives in the store (referencing `Put` deep-copies), the
  /// distributed offline path's mode.
  kMemoryOwned = 1,
  /// Vectors are appended to a per-store spill file in VectorRecord wire
  /// format and served through a byte-budgeted read-through LRU residency
  /// cache; index size is bounded by disk, not RAM.
  kDisk = 2,
};

const char* StorageBackendName(StorageBackend backend);

/// Backend selection + disk-backend knobs. `FromEnv` lets one env switch
/// flip every store in the process (the CI disk leg runs the whole test
/// suite under `DPPR_STORE=disk DPPR_CACHE_BYTES=<small>`):
///
///   DPPR_STORE        "disk" forces the spill backend, "memory" keeps the
///                     call site's in-memory default; unset keeps the default;
///                     anything else DPPR_CHECK-fails (a typo must not
///                     silently serve from RAM).
///   DPPR_CACHE_BYTES  residency-cache budget in bytes (default 64 MiB).
///   DPPR_SPILL_DIR    directory for anonymous spill files (default $TMPDIR
///                     or /tmp).
struct StorageOptions {
  StorageBackend backend = StorageBackend::kMemoryRef;
  /// Disk backend: serialized bytes the residency cache may keep in RAM.
  /// A budget smaller than one vector still serves correctly — every access
  /// is a miss that reads the extent from disk.
  size_t cache_bytes = size_t{64} << 20;
  /// Disk backend: directory for the anonymous (unlinked) spill file when
  /// `spill_path` is empty.
  std::string spill_dir;
  /// Disk backend: named spill file to create (kept on disk, reopenable via
  /// PpvStore::OpenSpill). Empty = anonymous temp file, deleted on close.
  std::string spill_path;

  static StorageOptions FromEnv(StorageBackend fallback = StorageBackend::kMemoryRef);
};

/// Residency-cache counters (monotonic since store construction). A "hit" is
/// a lookup served from RAM, a "miss" one that had to read its extent from
/// the spill file; the in-memory backends serve every present vector from
/// RAM, so they only ever count hits. Cheap enough to keep on the query hot
/// path (relaxed atomics), and what ServerStats' cold/warm view aggregates.
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

/// Per-caller attribution of the store counters. While a scope is alive on a
/// thread, every count a store charges on that thread is also added to the
/// scope's sink, so a query round learns exactly what its own machine tasks
/// cost even while other rounds hit the same stores (a delta of the stores'
/// lifetime counters would include theirs). Scopes nest: the innermost sink
/// wins and the previous one is restored on destruction. The sink is written
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
/// Threading contract: writes (Put/PutOwned/Ingest*) are single-threaded —
/// they happen in the coordinator's ingest phase — while Find is safe from
/// many threads at once after the writes are done (the serving regime). Don't
/// interleave writes with concurrent Finds.
class VectorStorage {
 public:
  virtual ~VectorStorage() = default;

  virtual StorageBackend backend() const = 0;

  /// Referencing put: `vec` must outlive the store. Backends that cannot
  /// alias (owning, disk) adopt a copy instead, so the lifetime requirement
  /// is only real for kMemoryRef.
  virtual void Put(VectorKind kind, SubgraphId sub, NodeId node,
                   const SparseVector* vec, size_t serialized_bytes) = 0;

  /// Owning put: adopts `vec`.
  virtual void PutOwned(VectorKind kind, SubgraphId sub, NodeId node,
                        SparseVector vec, size_t serialized_bytes) = 0;

  /// Adopts one wire record; the byte ledger is charged the vector's
  /// serialized size. Returns the record's compute seconds so the caller can
  /// charge its offline ledger.
  virtual double Ingest(VectorRecord record);

  /// Consumes exactly one record from `reader` (validating it — hostile
  /// bytes DPPR_CHECK-fail) and stores it. The disk backend overrides this
  /// to append the raw record bytes straight to its spill file instead of
  /// materializing the vector in RAM beyond the transient validation parse.
  virtual double IngestFrom(ByteReader& reader);

  /// Empty ref when this machine does not hold the vector.
  virtual PpvRef Find(VectorKind kind, SubgraphId sub, NodeId node) const = 0;

  /// Deep copy with the same ledger; residency cache and stats start fresh.
  virtual std::unique_ptr<VectorStorage> Clone() const = 0;

  /// Vectors whose bytes the store itself holds (owned or spilled).
  virtual size_t num_owned() const = 0;

  /// Serialized bytes currently resident in RAM: everything for the
  /// in-memory backends, the cache's live footprint for the disk backend.
  virtual size_t ResidentBytes() const { return total_bytes_; }

  size_t num_vectors() const { return num_vectors_; }
  size_t TotalSerializedBytes() const { return total_bytes_; }
  size_t SerializedBytesByKind(VectorKind kind) const {
    return bytes_by_kind_[static_cast<uint8_t>(kind)];
  }

  StorageStats stats() const {
    StorageStats out;
    for (uint64_t StorageStats::*counter : kStorageCounters) {
      out.*counter = std::atomic_ref<uint64_t>(counters_.*counter)
                         .load(std::memory_order_relaxed);
    }
    return out;
  }

 protected:
  /// The one counting site every backend charges through: adds `n` to this
  /// store's lifetime counter and to the calling thread's StorageStatsScope
  /// sink, if one is installed. Relaxed, so cheap on the query hot path.
  void Count(uint64_t StorageStats::*counter, uint64_t n) const {
    std::atomic_ref<uint64_t>(counters_.*counter)
        .fetch_add(n, std::memory_order_relaxed);
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
  static_assert(alignof(uint64_t) >=
                std::atomic_ref<uint64_t>::required_alignment);
  /// Lifetime counters, only ever accessed through std::atomic_ref.
  mutable StorageStats counters_;

  size_t total_bytes_ = 0;
  std::array<size_t, kNumVectorKinds> bytes_by_kind_{};
  size_t num_vectors_ = 0;
};

/// Factory for StorageOptions::backend.
std::unique_ptr<VectorStorage> MakeVectorStorage(const StorageOptions& options);

}  // namespace dppr

#endif  // DPPR_STORE_VECTOR_STORAGE_H_
