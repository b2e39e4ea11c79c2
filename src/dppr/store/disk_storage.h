#ifndef DPPR_STORE_DISK_STORAGE_H_
#define DPPR_STORE_DISK_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "dppr/store/vector_storage.h"

namespace dppr {

/// (offset, length) of one VectorRecord inside a spill file.
struct SpillExtent {
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Append-only record file shared by a disk store and its clones. Only the
/// store that created the file appends to it (DiskSpillStorage enforces
/// this). Appends are serialized under a mutex and return the written
/// extent; reads are positional (`pread`), so concurrent readers never share
/// a file offset. Extents are bounds-checked against the bytes actually
/// written — an out-of-range extent DPPR_CHECK-fails instead of reading
/// garbage.
class SpillFile {
 public:
  /// Anonymous spill: mkstemp in `dir` (or $TMPDIR / /tmp when empty), then
  /// unlinked immediately — the file lives exactly as long as its fd.
  static std::shared_ptr<SpillFile> CreateTemp(const std::string& dir);

  /// Named spill kept on disk (reopenable via Open after the store dies).
  /// Truncates any existing file at `path`.
  static std::shared_ptr<SpillFile> CreateAt(const std::string& path);

  /// Opens an existing spill file read-only (O_RDONLY).
  static std::shared_ptr<SpillFile> Open(const std::string& path);

  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Thread-safe append; returns the record's extent.
  SpillExtent Append(std::span<const uint8_t> bytes);

  /// pread of `extent` into `out` (out.size() == extent.length). DPPR_CHECKs
  /// the extent against the current file size and a short read.
  void Read(SpillExtent extent, std::span<uint8_t> out) const;

  /// Runs `scan` over a read-only mmap view of the whole file (index rebuild
  /// on open); the view is unmapped before returning.
  void Scan(const std::function<void(std::span<const uint8_t>)>& scan) const;

  uint64_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  SpillFile(int fd, uint64_t size) : fd_(fd), size_(size) {}

  int fd_;
  std::mutex append_mu_;
  std::atomic<uint64_t> size_;
};

/// Disk-backed spill storage: every put serializes its vector as a
/// VectorRecord and appends it to the store's one spill file, so the file is
/// a plain concatenation of wire records. A block's skeleton rows sit next
/// to each other because PutSkeletonRows writes each block's rows back to
/// back. Skeleton columns are never stored (they die at put). IngestFrom
/// streams the raw wire bytes straight through, so the coordinator never
/// materializes a machine's index in RAM.
///
/// Lookups go through a byte-budgeted read-through LRU residency cache keyed
/// on the vector key. A cache miss preads the record's extent outside the
/// cache lock and re-validates it (the header must match the key — a
/// corrupted or aliased extent dies rather than serving garbage); then,
/// under the lock, it charges the miss and its bytes to the caller's
/// StorageStatsScope sink and inserts the vector, unless another reader
/// inserted that key in the meantime. Each read is billed, but a key has at
/// most one cache entry. A hit takes the same lock, splices the LRU list and
/// adds one to the sink. Eviction drops least-recently-used entries, of any
/// kind, until the budget holds, and outstanding PpvRef pins keep their
/// vectors alive regardless. Plain LRU suits the fold's reads: a query reads
/// one row per chain block, once, while the partials those rows name are
/// read by every query, so they stay recent.
///
/// A named store (options.spill_path) writes its records to that path and
/// keeps the file; PpvStore::OpenSpill rescans it, and a file that is not
/// back-to-back records dies at open. The file has one writer: the store
/// that created it. A reopened store and every copy are read-only, and a
/// put into one dies.
///
/// Find is thread-safe (cache state under a mutex, disk reads outside it);
/// writes follow the single-threaded-ingest contract.
class DiskSpillStorage final : public VectorStorage {
 public:
  /// Fresh store spilling to options.spill_path (kept on disk) or to an
  /// anonymous temp file in options.spill_dir.
  explicit DiskSpillStorage(const StorageOptions& options);

  /// Rebuilds a store from an existing named spill by scanning its records.
  /// Truncated, corrupted or column records DPPR_CHECK-fail here, at open.
  /// The store is read-only: further puts die.
  static std::unique_ptr<DiskSpillStorage> OpenExisting(
      const std::string& path, const StorageOptions& options);

  StorageBackend backend() const override { return StorageBackend::kDisk; }

  /// Spills one record with zero compute seconds.
  void PutOwned(VectorKind kind, SubgraphId sub, NodeId node, SparseVector vec,
                size_t serialized_bytes) override;
  double IngestFrom(ByteReader& reader) override;
  PpvRef Find(VectorKind kind, SubgraphId sub, NodeId node) const override;
  /// Shares the spill file with the clone and starts a fresh cache. The
  /// clone is read-only: its puts die, so a named file never holds two
  /// stores' records.
  std::unique_ptr<VectorStorage> Clone() const override;
  size_t ResidentBytes() const override;

  size_t cache_budget_bytes() const { return cache_budget_; }

 private:
  DiskSpillStorage(std::shared_ptr<SpillFile> file, size_t cache_budget,
                   bool writable)
      : file_(std::move(file)), cache_budget_(cache_budget),
        writable_(writable) {}

  /// Indexes a record's extent under its key and charges the ledger the
  /// vector's serialized size.
  void IndexRecord(VectorKind kind, SubgraphId sub, NodeId node,
                   SpillExtent extent, size_t serialized_bytes);

  /// Inserts a loaded vector into the cache and evicts least-recently-used
  /// entries past the budget. The just-loaded vector may itself be evicted
  /// under a tiny budget; the caller's pin keeps it alive either way. Caller
  /// holds mu_.
  void InsertIntoCacheLocked(uint64_t key, std::shared_ptr<const SparseVector> vec,
                             size_t bytes) const;

  std::shared_ptr<SpillFile> file_;
  size_t cache_budget_;
  /// True only for the store that created file_; every put checks it.
  bool writable_;
  /// key -> record extent in file_. Written during ingest, read-only while
  /// serving.
  std::unordered_map<uint64_t, SpillExtent> extents_;

  struct CacheEntry {
    std::shared_ptr<const SparseVector> vec;
    /// Charged against the budget: the record's on-disk length.
    size_t bytes = 0;
    std::list<uint64_t>::iterator lru_it;
  };
  mutable std::mutex mu_;
  mutable std::unordered_map<uint64_t, CacheEntry> cache_;
  /// Front = most recently used.
  mutable std::list<uint64_t> lru_;
  mutable size_t resident_bytes_ = 0;
};

}  // namespace dppr

#endif  // DPPR_STORE_DISK_STORAGE_H_
