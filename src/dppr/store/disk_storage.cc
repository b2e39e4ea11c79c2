#include "dppr/store/disk_storage.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <utility>
#include <vector>

#include "dppr/common/timer.h"
#include "dppr/obs/metrics.h"
#include "dppr/obs/trace.h"

namespace dppr {
namespace {

/// Process-wide view of every DiskSpillStorage's miss path: how many misses
/// and how long their extent reads took. Hits and bytes read are counted
/// only in the caller's StorageStatsScope sink.
struct DiskMetrics {
  obs::Counter* misses;
  obs::Histogram* miss_extent_read_us;

  static const DiskMetrics& Get() {
    static const DiskMetrics metrics = [] {
      auto& r = obs::MetricsRegistry::Global();
      return DiskMetrics{r.GetCounter("store.disk.misses"),
                         r.GetHistogram("store.disk.miss_extent_read_us")};
    }();
    return metrics;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// SpillFile
// ---------------------------------------------------------------------------

std::shared_ptr<SpillFile> SpillFile::CreateTemp(const std::string& dir) {
  std::string base = dir;
  if (base.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    base = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  }
  std::string templ = base + "/dppr-spill-XXXXXX";
  // mkstemp wants a mutable buffer.
  std::vector<char> path(templ.begin(), templ.end());
  path.push_back('\0');
  int fd = ::mkstemp(path.data());
  DPPR_CHECK_GE(fd, 0);
  // Unlink-after-open: the file has no name, cannot collide, and the kernel
  // reclaims it the moment the last fd closes — spill cleanup is automatic
  // even on abort.
  DPPR_CHECK_EQ(::unlink(path.data()), 0);
  return std::shared_ptr<SpillFile>(new SpillFile(fd, 0));
}

std::shared_ptr<SpillFile> SpillFile::CreateAt(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  DPPR_CHECK_GE(fd, 0);
  return std::shared_ptr<SpillFile>(new SpillFile(fd, 0));
}

std::shared_ptr<SpillFile> SpillFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  DPPR_CHECK_GE(fd, 0);
  struct stat st{};
  DPPR_CHECK_EQ(::fstat(fd, &st), 0);
  return std::shared_ptr<SpillFile>(
      new SpillFile(fd, static_cast<uint64_t>(st.st_size)));
}

SpillFile::~SpillFile() { ::close(fd_); }

SpillExtent SpillFile::Append(std::span<const uint8_t> bytes) {
  std::lock_guard<std::mutex> lock(append_mu_);
  uint64_t offset = size_.load(std::memory_order_relaxed);
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::pwrite(fd_, bytes.data() + written, bytes.size() - written,
                         static_cast<off_t>(offset + written));
    if (n < 0 && errno == EINTR) continue;
    DPPR_CHECK_GT(n, 0);
    written += static_cast<size_t>(n);
  }
  // Release-publish the new size so concurrent readers' bounds checks see
  // every byte the extent covers.
  size_.store(offset + bytes.size(), std::memory_order_release);
  return {offset, bytes.size()};
}

void SpillFile::Read(SpillExtent extent, std::span<uint8_t> out) const {
  DPPR_CHECK_EQ(out.size(), extent.length);
  // Wrap-safe bounds check (offset + length could overflow for hostile
  // extents): both ends must sit inside the bytes written so far.
  uint64_t file_size = size();
  DPPR_CHECK_LE(extent.offset, file_size);
  DPPR_CHECK_LE(extent.length, file_size - extent.offset);
  size_t done = 0;
  while (done < extent.length) {
    ssize_t n = ::pread(fd_, out.data() + done, extent.length - done,
                        static_cast<off_t>(extent.offset + done));
    if (n < 0 && errno == EINTR) continue;
    // A short read inside the checked range means the file shrank under us —
    // corrupt/truncated storage, refuse to serve.
    DPPR_CHECK_GT(n, 0);
    done += static_cast<size_t>(n);
  }
}

void SpillFile::Scan(
    const std::function<void(std::span<const uint8_t>)>& scan) const {
  uint64_t file_size = size();
  if (file_size == 0) {
    scan({});
    return;
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd_, 0);
  DPPR_CHECK(map != MAP_FAILED);
  scan({static_cast<const uint8_t*>(map), static_cast<size_t>(file_size)});
  ::munmap(map, file_size);
}

// ---------------------------------------------------------------------------
// DiskSpillStorage
// ---------------------------------------------------------------------------

DiskSpillStorage::DiskSpillStorage(const StorageOptions& options)
    : DiskSpillStorage(options.spill_path.empty()
                           ? SpillFile::CreateTemp(options.spill_dir)
                           : SpillFile::CreateAt(options.spill_path),
                       options.cache_bytes, /*writable=*/true) {}

std::unique_ptr<DiskSpillStorage> DiskSpillStorage::OpenExisting(
    const std::string& path, const StorageOptions& options) {
  std::unique_ptr<DiskSpillStorage> store(new DiskSpillStorage(
      SpillFile::Open(path), options.cache_bytes, /*writable=*/false));
  // Rebuild the index by walking the record stream once. Every record is
  // fully re-validated (VectorRecord::Deserialize DPPR_CHECKs kinds, id
  // ranges and blob framing, and the ledger charge refuses columns), so a
  // truncated, corrupted or foreign file dies here — at open — rather than
  // serving garbage at query time.
  store->file_->Scan([&](std::span<const uint8_t> bytes) {
    ByteReader reader(bytes.data(), bytes.size());
    while (!reader.AtEnd()) {
      size_t start = reader.position();
      VectorRecord record = VectorRecord::Deserialize(reader);
      store->IndexRecord(record.kind, record.sub, record.node,
                         {start, reader.position() - start},
                         record.vec.SerializedBytes());
    }
  });
  return store;
}

void DiskSpillStorage::IndexRecord(VectorKind kind, SubgraphId sub, NodeId node,
                                   SpillExtent extent, size_t serialized_bytes) {
  bool inserted = extents_.emplace(MakeVectorKey(kind, sub, node), extent).second;
  DPPR_CHECK(inserted);
  // The ledger charges the vector's serialized size, same as the in-memory
  // backend, so the paper's space metrics are backend-invariant; the record
  // header overhead is visible via SpillFile::size() instead.
  Charge(kind, serialized_bytes);
}

void DiskSpillStorage::PutOwned(VectorKind kind, SubgraphId sub, NodeId node,
                                SparseVector vec, size_t serialized_bytes) {
  DPPR_CHECK(writable_);
  ByteWriter writer;
  VectorRecord::Serialize(writer, kind, sub, node, /*seconds=*/0.0, vec);
  IndexRecord(kind, sub, node, file_->Append(writer.bytes()), serialized_bytes);
}

double DiskSpillStorage::IngestFrom(ByteReader& reader) {
  DPPR_CHECK(writable_);
  size_t start = reader.position();
  // Validation parse: hostile wire bytes die here, and the parsed vector is
  // dropped right after — ingest streams the raw record bytes to the spill
  // file, so coordinator RAM stays bounded by one record, not the index.
  VectorRecord record = VectorRecord::Deserialize(reader);
  IndexRecord(record.kind, record.sub, record.node,
              file_->Append(reader.Slice(start, reader.position())),
              record.vec.SerializedBytes());
  return record.seconds;
}

PpvRef DiskSpillStorage::Find(VectorKind kind, SubgraphId sub, NodeId node) const {
  uint64_t key = MakeVectorKey(kind, sub, node);
  auto eit = extents_.find(key);
  if (eit == extents_.end()) return {};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto cit = cache_.find(key);
    if (cit != cache_.end()) {
      Count(&StorageStats::cache_hits, 1);
      lru_.splice(lru_.begin(), lru_, cit->second.lru_it);
      return PpvRef(cit->second.vec);
    }
  }

  // Miss: disk I/O and deserialization happen outside the cache lock so
  // concurrent misses overlap their reads.
  const SpillExtent extent = eit->second;
  std::vector<uint8_t> buf(extent.length);
  VectorRecord record = [&] {
    obs::TraceSpan read_span(obs::kCoordinatorLane, "store.extent_read");
    read_span.Arg("bytes", extent.length);
    WallTimer read_timer;
    file_->Read(extent, buf);
    ByteReader reader(buf.data(), buf.size());
    VectorRecord parsed = VectorRecord::Deserialize(reader);
    DPPR_CHECK(reader.AtEnd());
    DiskMetrics::Get().miss_extent_read_us->Record(
        static_cast<uint64_t>(read_timer.ElapsedSeconds() * 1e6));
    return parsed;
  }();
  // The record must be the one the key promised: a corrupted extent table or
  // spill file fails here instead of returning another vector's data.
  DPPR_CHECK(record.kind == kind);
  DPPR_CHECK_EQ(record.sub, sub);
  DPPR_CHECK_EQ(record.node, node);
  auto vec = std::make_shared<const SparseVector>(std::move(record.vec));

  std::lock_guard<std::mutex> lock(mu_);
  Count(&StorageStats::cache_misses, 1);
  Count(&StorageStats::disk_bytes_read, extent.length);
  DiskMetrics::Get().misses->Increment();
  // A concurrent miss of the same key may have inserted it while this read
  // ran; its entry stays the only one, and this read's copy is just pinned.
  if (!cache_.contains(key)) {
    InsertIntoCacheLocked(key, vec, static_cast<size_t>(extent.length));
  }
  return PpvRef(std::move(vec));
}

void DiskSpillStorage::InsertIntoCacheLocked(
    uint64_t key, std::shared_ptr<const SparseVector> vec, size_t bytes) const {
  lru_.push_front(key);
  cache_.emplace(key, CacheEntry{std::move(vec), bytes, lru_.begin()});
  resident_bytes_ += bytes;
  while (resident_bytes_ > cache_budget_) {
    uint64_t victim = lru_.back();
    lru_.pop_back();
    auto vit = cache_.find(victim);
    resident_bytes_ -= vit->second.bytes;
    // Outstanding PpvRef pins (including the caller's when the budget is
    // smaller than this record) share ownership and stay valid.
    cache_.erase(vit);
  }
}

std::unique_ptr<VectorStorage> DiskSpillStorage::Clone() const {
  std::unique_ptr<DiskSpillStorage> clone(
      new DiskSpillStorage(file_, cache_budget_, /*writable=*/false));
  clone->extents_ = extents_;
  clone->CopyLedgerFrom(*this);
  return clone;
}

size_t DiskSpillStorage::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

}  // namespace dppr
