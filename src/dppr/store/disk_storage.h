#ifndef DPPR_STORE_DISK_STORAGE_H_
#define DPPR_STORE_DISK_STORAGE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dppr/store/vector_storage.h"

namespace dppr {

/// (offset, length) of one VectorRecord inside a spill file.
struct SpillExtent {
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Append-only record file shared by a disk store and its clones. Appends are
/// serialized under a mutex and return the written extent; reads are
/// positional (`pread`), so concurrent readers never share a file offset.
/// Extents are bounds-checked against the bytes actually written — an
/// out-of-range extent DPPR_CHECK-fails instead of reading garbage.
class SpillFile {
 public:
  /// Anonymous spill: mkstemp in `dir` (or $TMPDIR / /tmp when empty), then
  /// unlinked immediately — the file lives exactly as long as its fd.
  static std::shared_ptr<SpillFile> CreateTemp(const std::string& dir);

  /// Named spill kept on disk (reopenable via Open after the store dies).
  /// Truncates any existing file at `path`.
  static std::shared_ptr<SpillFile> CreateAt(const std::string& path);

  /// Opens an existing spill file read-only; Append on it dies.
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
  bool writable() const { return writable_; }

 private:
  SpillFile(int fd, uint64_t size, bool writable)
      : fd_(fd), writable_(writable), size_(size) {}

  int fd_;
  bool writable_;
  std::mutex append_mu_;
  std::atomic<uint64_t> size_;
};

/// Disk-backed spill storage: every put serializes its vector as a
/// VectorRecord and appends it to one of three per-kind spill segments —
/// hub partials, skeleton rows, and own vectors each get their own file, so
/// a block's rows sit next to each other instead of interleaving with
/// partials. Skeleton columns are never stored (they die at put).
/// Ingest streams the raw wire bytes straight through, so the coordinator
/// never materializes a machine's index in RAM. Lookups go through a
/// byte-budgeted read-through LRU residency cache keyed on the vector key. A
/// cache miss preads the record's extent, re-validates it (header must match
/// the key — a corrupted or aliased extent dies rather than serving
/// garbage), and inserts the vector; eviction drops least-recently-used
/// entries, of any kind, until the budget holds, and outstanding PpvRef pins
/// keep their vectors alive regardless. Plain LRU suits the fold's reads: a
/// query reads one row per chain block, once, while the partials those rows
/// name are read by every query, so they stay recent.
///
/// A named store (options.spill_path) writes a small text manifest at the
/// path plus one `<path>.<kind>` segment per stored kind (`hub_partial`,
/// `skeleton_row`, `own_vector`); PpvStore::OpenSpill reads the manifest
/// back, and a path holding anything else dies at open.
///
/// The miss path is singleflighted: concurrent misses of the same vector
/// coalesce onto one disk read — the first thread loads, the rest wait for
/// its result instead of each pread-ing the extent (thundering herds on one
/// hot vector used to multiply the I/O). Followers still count as cache
/// misses (the lookup was not served from RAM) but charge no disk bytes;
/// only the loading thread's read is billed.
///
/// Find is thread-safe (cache state under a mutex, disk reads outside it);
/// writes follow the single-threaded-ingest contract.
class DiskSpillStorage final : public VectorStorage {
 public:
  /// Fresh store spilling to options.spill_path (manifest + named segments
  /// kept on disk) or anonymous temp segments in options.spill_dir.
  explicit DiskSpillStorage(const StorageOptions& options);

  /// Rebuilds a store from an existing segment-manifest spill by scanning
  /// its records. A malformed manifest and truncated or corrupted segments
  /// DPPR_CHECK-fail here, at open. The store is read-only: further puts die
  /// in SpillFile::Append.
  static std::unique_ptr<DiskSpillStorage> OpenExisting(
      const std::string& path, const StorageOptions& options);

  StorageBackend backend() const override { return StorageBackend::kDisk; }

  void Put(VectorKind kind, SubgraphId sub, NodeId node, const SparseVector* vec,
           size_t serialized_bytes) override;
  void PutOwned(VectorKind kind, SubgraphId sub, NodeId node, SparseVector vec,
                size_t serialized_bytes) override;
  double Ingest(VectorRecord record) override;
  double IngestFrom(ByteReader& reader) override;
  PpvRef Find(VectorKind kind, SubgraphId sub, NodeId node) const override;
  /// Shares the spill segments with the clone (appends interleave safely;
  /// each store only indexes its own records) and starts a fresh cache.
  std::unique_ptr<VectorStorage> Clone() const override;
  size_t num_owned() const override { return extents_.size(); }
  size_t ResidentBytes() const override;

  size_t cache_budget_bytes() const { return cache_budget_; }

  /// Spill segments, one per stored kind.
  static constexpr size_t kNumSegments = 3;

 private:
  using SegmentArray = std::array<std::shared_ptr<SpillFile>, kNumSegments>;

  DiskSpillStorage(SegmentArray files, size_t cache_budget)
      : files_(std::move(files)), cache_budget_(cache_budget) {}

  /// Serializes one record from loose parts (seconds included — a reopened
  /// store inherits the offline ledger), appends it to its kind's segment,
  /// and indexes the extent under its key. Takes the vector by reference so
  /// referenced vectors spill without an intermediate copy.
  void AppendVector(VectorKind kind, SubgraphId sub, NodeId node, double seconds,
                    const SparseVector& vec, size_t serialized_bytes);
  void IndexExtent(uint64_t key, SpillExtent extent);

  /// The segment holding `kind`'s records (extents never need to remember
  /// their file: a key's kind bits name it).
  SpillFile& SegmentFor(VectorKind kind) const;

  /// One in-flight load that concurrent misses of the same key rendezvous
  /// on. Lives in inflight_ while the leader reads; followers keep it alive
  /// through the shared_ptr after the leader erased the map entry. If the
  /// leader unwinds without a result (e.g. bad_alloc mid-read), it marks the
  /// load failed and wakes everyone; followers retry the lookup from scratch
  /// instead of waiting forever on a result that will never come.
  struct InFlightLoad {
    bool done = false;
    bool failed = false;
    std::shared_ptr<const SparseVector> vec;
    std::condition_variable done_cv;
  };

  /// Leader's miss path: pread + validate + insert into the cache (evicting
  /// LRU past the budget), then publish through `load` and wake followers.
  /// The just-loaded vector may itself be evicted immediately under a tiny
  /// budget; the returned pin keeps it alive either way.
  PpvRef Load(uint64_t key, VectorKind kind, SubgraphId sub, NodeId node,
              SpillExtent extent, std::shared_ptr<InFlightLoad> load) const;

  /// Cache-hit lookup under mu_; returns an empty ref on miss without
  /// touching the singleflight table.
  PpvRef CachedLocked(uint64_t key) const;

  /// Inserts a loaded vector into the cache and evicts least-recently-used
  /// entries past the budget. Caller holds mu_.
  void InsertIntoCacheLocked(uint64_t key, std::shared_ptr<const SparseVector> vec,
                             size_t bytes) const;

  SegmentArray files_;
  size_t cache_budget_;
  /// key -> record extent (within the key's kind segment). Written during
  /// ingest, read-only while serving.
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
  /// Singleflight table: key -> the load currently reading that extent.
  mutable std::unordered_map<uint64_t, std::shared_ptr<InFlightLoad>> inflight_;
};

}  // namespace dppr

#endif  // DPPR_STORE_DISK_STORAGE_H_
