#include "dppr/store/ppv_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "dppr/store/disk_storage.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomSparseVector;

// Backend pinned explicitly where a test asserts aliasing or address
// stability — those are kMemoryRef guarantees the disk CI leg must not
// reinterpret. Tests built on default-constructed stores run under whatever
// DPPR_STORE selects.
StorageOptions MemRef() {
  StorageOptions options;
  options.backend = StorageBackend::kMemoryRef;
  return options;
}

// Unique path in the test's temp dir for named spill files.
std::string SpillPath(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  return dir + "/dppr_ppv_store_test_" + name + ".spill";
}

TEST(MakeVectorKey, PacksDisjointFields) {
  uint64_t a = MakeVectorKey(VectorKind::kHubPartial, 1, 2);
  uint64_t b = MakeVectorKey(VectorKind::kSkeletonColumn, 1, 2);
  uint64_t c = MakeVectorKey(VectorKind::kHubPartial, 2, 1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

TEST(MakeVectorKey, OverflowingSubgraphDiesEvenInRelease) {
  // Regression: these used to be DPPR_DCHECKs, so a release build silently
  // built an aliased key and returned another vector's data.
  EXPECT_DEATH(MakeVectorKey(VectorKind::kOwnVector, 1u << 30, 0),
               "DPPR_CHECK failed");
}

TEST(MakeVectorKey, OverflowingNodeDiesEvenInRelease) {
  EXPECT_DEATH(MakeVectorKey(VectorKind::kOwnVector, 0, 1u << 30),
               "DPPR_CHECK failed");
}

TEST(PpvStore, OwnedVectorsAreFindable) {
  PpvStore store;
  SparseVector vec = RandomSparseVector(1, 50);
  size_t bytes = vec.SerializedBytes();
  store.PutOwned(VectorKind::kOwnVector, 3, 7, vec, bytes);
  PpvRef found = store.Find(VectorKind::kOwnVector, 3, 7);
  ASSERT_TRUE(found);
  EXPECT_EQ(*found, vec);
  EXPECT_FALSE(store.Find(VectorKind::kHubPartial, 3, 7));
  EXPECT_EQ(store.num_vectors(), 1u);
  EXPECT_EQ(store.num_owned(), 1u);
  EXPECT_EQ(store.TotalSerializedBytes(), bytes);
}

TEST(PpvStore, OwnedAddressesSurviveGrowthAndMove) {
  PpvStore store(MemRef());
  std::vector<const SparseVector*> stored;
  for (NodeId node = 0; node < 200; ++node) {
    SparseVector vec = RandomSparseVector(node, 20);
    store.PutOwned(VectorKind::kOwnVector, 0, node, vec, vec.SerializedBytes());
    stored.push_back(&*store.Find(VectorKind::kOwnVector, 0, node));
  }
  PpvStore moved = std::move(store);
  for (NodeId node = 0; node < 200; ++node) {
    EXPECT_EQ(&*moved.Find(VectorKind::kOwnVector, 0, node), stored[node]);
  }
}

TEST(PpvStore, CopyDeepCopiesOwnedVectors) {
  PpvStore store(MemRef());
  SparseVector vec = RandomSparseVector(9, 30);
  store.PutOwned(VectorKind::kSkeletonRow, 2, 5, vec, vec.SerializedBytes());

  PpvStore copy = store;
  const SparseVector* original = &*store.Find(VectorKind::kSkeletonRow, 2, 5);
  PpvRef copied = copy.Find(VectorKind::kSkeletonRow, 2, 5);
  ASSERT_TRUE(copied);
  EXPECT_NE(&*copied, original);  // must not alias the source store's memory
  EXPECT_EQ(*copied, vec);
  EXPECT_EQ(copy.TotalSerializedBytes(), store.TotalSerializedBytes());

  // The copy stays valid after the source dies.
  { PpvStore doomed = std::move(store); }
  EXPECT_EQ(*copy.Find(VectorKind::kSkeletonRow, 2, 5), vec);
}

TEST(PpvStore, SelfAssignmentIsANoOp) {
  // Regression: the deep-copy re-pointing path was untested for `s = s;`.
  // Without the self-assignment guard the copy would read from the store it
  // is simultaneously overwriting.
  PpvStore store(MemRef());
  SparseVector vec = RandomSparseVector(21, 25);
  store.PutOwned(VectorKind::kOwnVector, 1, 3, vec, vec.SerializedBytes());
  SparseVector external = RandomSparseVector(22, 10);
  store.Put(VectorKind::kHubPartial, 1, 4, &external, external.SerializedBytes());

  PpvStore& alias = store;  // dodge -Wself-assign-overloaded
  store = alias;

  EXPECT_EQ(store.num_vectors(), 2u);
  ASSERT_TRUE(store.Find(VectorKind::kOwnVector, 1, 3));
  EXPECT_EQ(*store.Find(VectorKind::kOwnVector, 1, 3), vec);
  EXPECT_EQ(&*store.Find(VectorKind::kHubPartial, 1, 4), &external);
  EXPECT_EQ(store.TotalSerializedBytes(),
            vec.SerializedBytes() + external.SerializedBytes());
}

TEST(PpvStore, MixedReferencingAndOwnedCopy) {
  SparseVector external = RandomSparseVector(4, 10);
  PpvStore store(MemRef());
  store.Put(VectorKind::kHubPartial, 1, 1, &external, external.SerializedBytes());
  SparseVector owned_vec = RandomSparseVector(5, 10);
  store.PutOwned(VectorKind::kOwnVector, 1, 2, owned_vec,
                 owned_vec.SerializedBytes());

  PpvStore copy = store;
  // Referencing entries still alias the external vector; owned ones don't.
  EXPECT_EQ(&*copy.Find(VectorKind::kHubPartial, 1, 1), &external);
  EXPECT_NE(&*copy.Find(VectorKind::kOwnVector, 1, 2),
            &*store.Find(VectorKind::kOwnVector, 1, 2));
  EXPECT_EQ(*copy.Find(VectorKind::kOwnVector, 1, 2), owned_vec);
}

TEST(PpvStore, BytesLedgerSplitsByKind) {
  PpvStore store;
  SparseVector partial = RandomSparseVector(1, 40);
  SparseVector own = RandomSparseVector(2, 10);
  store.PutOwned(VectorKind::kHubPartial, 0, 1, partial,
                 partial.SerializedBytes());
  store.PutOwned(VectorKind::kOwnVector, 0, 2, own, own.SerializedBytes());
  EXPECT_EQ(store.SerializedBytesByKind(VectorKind::kHubPartial),
            partial.SerializedBytes());
  EXPECT_EQ(store.SerializedBytesByKind(VectorKind::kOwnVector),
            own.SerializedBytes());
  EXPECT_EQ(store.SerializedBytesByKind(VectorKind::kSkeletonRow), 0u);
  EXPECT_EQ(store.TotalSerializedBytes(),
            partial.SerializedBytes() + own.SerializedBytes());
}

TEST(PpvStore, SkeletonColumnPutDies) {
  // Stores hold skeletons as rows (PutSkeletonRows); a column reaching one
  // skipped the transpose, on every backend.
  for (StorageBackend backend :
       {StorageBackend::kMemoryRef, StorageBackend::kMemoryOwned,
        StorageBackend::kDisk}) {
    StorageOptions options;
    options.backend = backend;
    PpvStore store(options);
    SparseVector vec = RandomSparseVector(4, 5);
    EXPECT_DEATH(store.PutOwned(VectorKind::kSkeletonColumn, 0, 0, vec,
                                vec.SerializedBytes()),
                 "DPPR_CHECK failed")
        << StorageBackendName(backend);
  }
}

TEST(PpvStore, DuplicateKeyDies) {
  PpvStore store;
  SparseVector vec = RandomSparseVector(3, 5);
  store.PutOwned(VectorKind::kOwnVector, 0, 0, vec, vec.SerializedBytes());
  EXPECT_DEATH(
      store.PutOwned(VectorKind::kOwnVector, 0, 0, vec, vec.SerializedBytes()),
      "DPPR_CHECK failed");
}

TEST(VectorRecord, RoundTripsAllKinds) {
  for (uint8_t k = 0; k < kNumVectorKinds; ++k) {
    VectorRecord record;
    record.kind = static_cast<VectorKind>(k);
    record.sub = 12345;
    record.node = (1u << 30) - 1;  // max representable id
    record.seconds = 0.125;
    record.vec = RandomSparseVector(k, 100);

    ByteWriter writer;
    record.SerializeTo(writer);
    ByteReader reader(writer.bytes());
    VectorRecord back = VectorRecord::Deserialize(reader);
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(back.kind, record.kind);
    EXPECT_EQ(back.sub, record.sub);
    EXPECT_EQ(back.node, record.node);
    EXPECT_DOUBLE_EQ(back.seconds, record.seconds);
    EXPECT_EQ(back.vec, record.vec);
  }
}

TEST(VectorRecord, ConcatenatedRecordsRoundTrip) {
  // The distributed driver's payloads are record streams read until AtEnd.
  ByteWriter writer;
  std::vector<VectorRecord> records;
  for (NodeId node = 0; node < 5; ++node) {
    VectorRecord record;
    record.kind = VectorKind::kOwnVector;
    record.sub = 7;
    record.node = node;
    record.seconds = node * 0.5;
    record.vec = RandomSparseVector(100 + node, 25);
    record.SerializeTo(writer);
    records.push_back(std::move(record));
  }
  ByteReader reader(writer.bytes());
  for (const VectorRecord& expected : records) {
    VectorRecord got = VectorRecord::Deserialize(reader);
    EXPECT_EQ(got.node, expected.node);
    EXPECT_EQ(got.vec, expected.vec);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(VectorRecord, IngestChargesStoreAndReturnsSeconds) {
  VectorRecord record;
  record.kind = VectorKind::kSkeletonRow;
  record.sub = 4;
  record.node = 9;
  record.seconds = 2.5;
  record.vec = RandomSparseVector(8, 60);
  size_t bytes = record.vec.SerializedBytes();
  SparseVector expected = record.vec;

  PpvStore store;
  EXPECT_DOUBLE_EQ(store.Ingest(std::move(record)), 2.5);
  PpvRef found = store.Find(VectorKind::kSkeletonRow, 4, 9);
  ASSERT_TRUE(found);
  EXPECT_EQ(*found, expected);
  EXPECT_EQ(store.TotalSerializedBytes(), bytes);
}

TEST(VectorRecord, IngestFromConsumesExactlyOneRecord) {
  ByteWriter writer;
  VectorRecord a;
  a.kind = VectorKind::kOwnVector;
  a.sub = 1;
  a.node = 2;
  a.seconds = 1.5;
  a.vec = RandomSparseVector(31, 40);
  a.SerializeTo(writer);
  VectorRecord b = a;
  b.node = 3;
  b.SerializeTo(writer);

  PpvStore store;
  ByteReader reader(writer.bytes());
  EXPECT_DOUBLE_EQ(store.IngestFrom(reader), 1.5);
  EXPECT_EQ(store.num_vectors(), 1u);
  EXPECT_DOUBLE_EQ(store.IngestFrom(reader), 1.5);
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(*store.Find(VectorKind::kOwnVector, 1, 2), a.vec);
  EXPECT_EQ(*store.Find(VectorKind::kOwnVector, 1, 3), b.vec);
}

TEST(VectorRecordDeserialize, UnknownKindDies) {
  ByteWriter writer;
  writer.PutU8(7);  // no such VectorKind
  writer.PutVarU64(0);
  writer.PutVarU64(0);
  writer.PutDouble(0.0);
  writer.PutBlob(nullptr, 0);
  EXPECT_DEATH(
      {
        ByteReader reader(writer.bytes());
        VectorRecord::Deserialize(reader);
      },
      "DPPR_CHECK failed");
}

TEST(VectorRecordDeserialize, OutOfRangeSubgraphDies) {
  ByteWriter writer;
  writer.PutU8(0);
  writer.PutVarU64(1ull << 30);  // exceeds the key's 30-bit subgraph field
  writer.PutVarU64(0);
  writer.PutDouble(0.0);
  writer.PutBlob(nullptr, 0);
  EXPECT_DEATH(
      {
        ByteReader reader(writer.bytes());
        VectorRecord::Deserialize(reader);
      },
      "DPPR_CHECK failed");
}

TEST(VectorRecordDeserialize, TruncatedPayloadDies) {
  VectorRecord record;
  record.kind = VectorKind::kHubPartial;
  record.sub = 1;
  record.node = 2;
  record.vec = RandomSparseVector(11, 20);
  ByteWriter writer;
  record.SerializeTo(writer);
  std::vector<uint8_t> truncated(writer.bytes().begin(),
                                 writer.bytes().end() - 7);
  EXPECT_DEATH(
      {
        ByteReader reader(truncated.data(), truncated.size());
        VectorRecord::Deserialize(reader);
      },
      "DPPR_CHECK failed");
}

TEST(VectorRecordDeserialize, OversizedBlobLengthDies) {
  // Hostile blob length claiming more bytes than remain must die up front
  // (wrap-safe bounds check), not read out of bounds.
  ByteWriter writer;
  writer.PutU8(0);
  writer.PutVarU64(1);
  writer.PutVarU64(1);
  writer.PutDouble(0.0);
  writer.PutVarU64(~0ull);  // blob "length"
  writer.PutU8(0);
  EXPECT_DEATH(
      {
        ByteReader reader(writer.bytes());
        VectorRecord::Deserialize(reader);
      },
      "DPPR_CHECK failed");
}

TEST(VectorRecordDeserialize, TrailingGarbageInsideBlobDies) {
  // A blob longer than the vector it frames hides trailing bytes — corrupt.
  ByteWriter vec_bytes;
  SparseVector vec = RandomSparseVector(13, 3);
  vec.SerializeTo(vec_bytes);
  ByteWriter writer;
  writer.PutU8(2);
  writer.PutVarU64(0);
  writer.PutVarU64(5);
  writer.PutDouble(1.0);
  std::vector<uint8_t> padded = vec_bytes.bytes();
  padded.push_back(0xAB);
  writer.PutBlob(padded.data(), padded.size());
  EXPECT_DEATH(
      {
        ByteReader reader(writer.bytes());
        VectorRecord::Deserialize(reader);
      },
      "DPPR_CHECK failed");
}

// ---------------------------------------------------------------------------
// Hostile spill files: a disk store must refuse truncated/corrupted storage
// at open, and out-of-range extents at read — never serve garbage.
// ---------------------------------------------------------------------------

// Writes a well-formed spill file at `path` and returns its bytes.
std::vector<uint8_t> WriteValidSpill(const std::string& path) {
  StorageOptions options;
  options.backend = StorageBackend::kDisk;
  options.spill_path = path;
  PpvStore store(options);
  for (NodeId node = 0; node < 4; ++node) {
    SparseVector vec = RandomSparseVector(50 + node, 30);
    store.PutOwned(VectorKind::kOwnVector, 2, node, vec, vec.SerializedBytes());
  }
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(DiskSpillHostile, ReopenedSpillServesBitIdenticalVectors) {
  std::string path = SpillPath("reopen");
  WriteValidSpill(path);
  PpvStore reopened = PpvStore::OpenSpill(path);
  EXPECT_EQ(reopened.num_vectors(), 4u);
  for (NodeId node = 0; node < 4; ++node) {
    PpvRef found = reopened.Find(VectorKind::kOwnVector, 2, node);
    ASSERT_TRUE(found);
    EXPECT_EQ(*found, RandomSparseVector(50 + node, 30));
  }
  std::remove(path.c_str());
}

TEST(DiskSpillHostile, TruncatedSpillFileDiesAtOpen) {
  std::string path = SpillPath("truncated");
  std::vector<uint8_t> bytes = WriteValidSpill(path);
  bytes.resize(bytes.size() - 9);  // chop into the last record
  WriteFile(path, bytes);
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  std::remove(path.c_str());
}

TEST(DiskSpillHostile, CorruptedRecordDiesAtOpen) {
  std::string path = SpillPath("corrupt");
  std::vector<uint8_t> bytes = WriteValidSpill(path);
  // Stamp a hostile kind byte over the first record's header: no such
  // VectorKind, so the open-time re-validation scan must refuse the file.
  bytes[0] = 0xFF;
  WriteFile(path, bytes);
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  std::remove(path.c_str());
}

TEST(DiskSpillHostile, OutOfRangeExtentDiesAtRead) {
  std::string path = SpillPath("extent");
  WriteValidSpill(path);
  auto file = SpillFile::Open(path);
  std::vector<uint8_t> buf(16);
  // Offset beyond the file.
  EXPECT_DEATH(file->Read({file->size() + 1, 16}, buf), "DPPR_CHECK failed");
  // Length reaching past the end.
  EXPECT_DEATH(file->Read({file->size() - 4, 16}, buf), "DPPR_CHECK failed");
  // Hostile offset chosen so offset + length wraps uint64 — the wrap-safe
  // bounds check must still refuse it.
  EXPECT_DEATH(file->Read({~0ull - 4, 16}, buf), "DPPR_CHECK failed");
  std::remove(path.c_str());
}

TEST(DiskSpillHostile, AppendToReadOnlySpillDies) {
  std::string path = SpillPath("readonly");
  WriteValidSpill(path);
  PpvStore reopened = PpvStore::OpenSpill(path);
  SparseVector vec = RandomSparseVector(99, 5);
  EXPECT_DEATH(
      reopened.PutOwned(VectorKind::kOwnVector, 9, 9, vec, vec.SerializedBytes()),
      "DPPR_CHECK failed");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dppr
