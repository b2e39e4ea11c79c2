#include "dppr/store/disk_storage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "dppr/store/ppv_store.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomSparseVector;

StorageOptions DiskOptions(size_t cache_bytes) {
  StorageOptions options;
  options.backend = StorageBackend::kDisk;
  options.cache_bytes = cache_bytes;
  return options;
}

TEST(DiskSpillStorage, RoundTripsBitIdenticalVectors) {
  PpvStore store(DiskOptions(1 << 20));
  std::vector<SparseVector> vecs;
  for (NodeId node = 0; node < 20; ++node) {
    vecs.push_back(RandomSparseVector(node, 40 + node));
    store.PutOwned(VectorKind::kOwnVector, 1, node, vecs.back(),
                   vecs.back().SerializedBytes());
  }
  EXPECT_EQ(store.backend(), StorageBackend::kDisk);
  EXPECT_EQ(store.num_vectors(), 20u);
  for (NodeId node = 0; node < 20; ++node) {
    PpvRef found = store.Find(VectorKind::kOwnVector, 1, node);
    ASSERT_TRUE(found);
    EXPECT_EQ(*found, vecs[node]) << "node " << node;
  }
  EXPECT_FALSE(store.Find(VectorKind::kOwnVector, 1, 99));
}

TEST(DiskSpillStorage, LedgerChargesSerializedBytesLikeMemory) {
  // The paper's space metric must be backend-invariant: same vectors, same
  // serialized-bytes ledger, even though disk also pays record headers.
  PpvStore disk(DiskOptions(1 << 20));
  PpvStore memory;
  for (NodeId node = 0; node < 10; ++node) {
    SparseVector vec = RandomSparseVector(100 + node, 25);
    size_t bytes = vec.SerializedBytes();
    disk.PutOwned(VectorKind::kSkeletonRow, 3, node, vec, bytes);
    memory.PutOwned(VectorKind::kSkeletonRow, 3, node, std::move(vec), bytes);
  }
  EXPECT_EQ(disk.TotalSerializedBytes(), memory.TotalSerializedBytes());
  EXPECT_EQ(disk.SerializedBytesByKind(VectorKind::kSkeletonRow),
            memory.SerializedBytesByKind(VectorKind::kSkeletonRow));
}

TEST(DiskSpillStorage, WarmLookupsHitColdLookupsMiss) {
  PpvStore store(DiskOptions(1 << 20));  // budget fits everything
  SparseVector vec = RandomSparseVector(7, 50);
  store.PutOwned(VectorKind::kOwnVector, 0, 1, vec, vec.SerializedBytes());

  StorageStats counted;
  StorageStatsScope scope(&counted);
  EXPECT_EQ(counted.cache_misses, 0u);
  ASSERT_TRUE(store.Find(VectorKind::kOwnVector, 0, 1));  // cold: disk read
  StorageStats cold = counted;
  EXPECT_EQ(cold.cache_misses, 1u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GT(cold.disk_bytes_read, vec.SerializedBytes());  // record > vector

  ASSERT_TRUE(store.Find(VectorKind::kOwnVector, 0, 1));  // warm: cached
  StorageStats warm = counted;
  EXPECT_EQ(warm.cache_misses, 1u);
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.disk_bytes_read, cold.disk_bytes_read);
  EXPECT_GT(store.ResidentBytes(), 0u);
}

TEST(DiskSpillStorage, BudgetSmallerThanOneVectorStillServes) {
  // The acceptance-criteria configuration: every access is a miss, the
  // residency cache can never keep anything, and answers stay bit-identical.
  PpvStore store(DiskOptions(1));
  SparseVector vec = RandomSparseVector(9, 60);
  store.PutOwned(VectorKind::kHubPartial, 2, 4, vec, vec.SerializedBytes());

  StorageStats stats;
  StorageStatsScope scope(&stats);
  for (int i = 0; i < 3; ++i) {
    PpvRef found = store.Find(VectorKind::kHubPartial, 2, 4);
    ASSERT_TRUE(found);
    EXPECT_EQ(*found, vec);
  }
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(store.ResidentBytes(), 0u);  // nothing ever stays resident
}

TEST(DiskSpillStorage, LruEvictsColdestUnderPressure) {
  // Budget sized for roughly one record: touching A, then B, evicts A; a
  // re-touch of A misses again while B (just loaded) is the one evicted next.
  SparseVector a = RandomSparseVector(1, 50);
  SparseVector b = RandomSparseVector(2, 50);
  ByteWriter probe;
  VectorRecord record;
  record.vec = a;
  record.SerializeTo(probe);
  PpvStore store(DiskOptions(probe.size() + 8));  // ~one record resident

  store.PutOwned(VectorKind::kOwnVector, 0, 1, a, a.SerializedBytes());
  store.PutOwned(VectorKind::kOwnVector, 0, 2, b, b.SerializedBytes());

  StorageStats stats;
  StorageStatsScope scope(&stats);
  EXPECT_EQ(*store.Find(VectorKind::kOwnVector, 0, 1), a);  // miss, A resident
  EXPECT_EQ(*store.Find(VectorKind::kOwnVector, 0, 1), a);  // hit
  EXPECT_EQ(*store.Find(VectorKind::kOwnVector, 0, 2), b);  // miss, evicts A
  EXPECT_EQ(*store.Find(VectorKind::kOwnVector, 0, 1), a);  // miss again
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_LE(store.ResidentBytes(), probe.size() + 8);
}

// Spill extent of a vector put with PutOwned: its whole VectorRecord.
uint64_t RecordBytes(VectorKind kind, SubgraphId sub, NodeId node,
                     const SparseVector& vec) {
  ByteWriter writer;
  VectorRecord::Serialize(writer, kind, sub, node, /*seconds=*/0.0, vec);
  return writer.size();
}

TEST(DiskSpillStorage, PlainLruKeepsThePartialsEveryQueryReads) {
  // The fold's read pattern: a query reads its row once, then the partials
  // the row names, and every query names the same partials. Under a budget
  // that holds every partial but not every row, plain LRU evicts the rows
  // and keeps the partials, so a warm store reads only row extents. A cache
  // that evicted partials ahead of rows would re-read them on every query.
  constexpr NodeId kHubs = 8;
  constexpr NodeId kRows = 40;
  std::vector<SparseVector> partials;
  std::vector<SparseVector> rows;
  uint64_t partial_bytes = 0;
  uint64_t largest_row = 0;
  for (NodeId hub = 0; hub < kHubs; ++hub) {
    partials.push_back(RandomSparseVector(200 + hub, 30));
    partial_bytes +=
        RecordBytes(VectorKind::kHubPartial, 1, hub, partials.back());
  }
  for (NodeId u = 0; u < kRows; ++u) {
    rows.push_back(RandomSparseVector(300 + u, 20));
    largest_row = std::max(
        largest_row, RecordBytes(VectorKind::kSkeletonRow, 1, u, rows.back()));
  }
  PpvStore store(DiskOptions(partial_bytes + 2 * largest_row));
  for (NodeId hub = 0; hub < kHubs; ++hub) {
    store.PutOwned(VectorKind::kHubPartial, 1, hub, partials[hub],
                   partials[hub].SerializedBytes());
  }
  for (NodeId u = 0; u < kRows; ++u) {
    store.PutOwned(VectorKind::kSkeletonRow, 1, u, rows[u],
                   rows[u].SerializedBytes());
  }
  auto query = [&](NodeId u) {
    PpvRef row = store.Find(VectorKind::kSkeletonRow, 1, u);
    ASSERT_TRUE(row);
    EXPECT_EQ(*row, rows[u]);
    for (NodeId hub = 0; hub < kHubs; ++hub) {
      EXPECT_EQ(*store.Find(VectorKind::kHubPartial, 1, hub), partials[hub]);
    }
  };
  query(0);  // warms the partials
  StorageStats counted;
  StorageStatsScope scope(&counted);
  uint64_t row_bytes = 0;
  for (NodeId u = 1; u < kRows; ++u) {
    query(u);
    row_bytes += RecordBytes(VectorKind::kSkeletonRow, 1, u, rows[u]);
  }
  EXPECT_EQ(counted.disk_bytes_read, row_bytes);
  EXPECT_LT(store.ResidentBytes(), partial_bytes + kRows * largest_row);
}

TEST(DiskSpillStorage, PinOutlivesEviction) {
  // A pinned vector stays valid after the cache dropped it — the whole point
  // of PpvRef over raw pointers.
  PpvStore store(DiskOptions(1));
  SparseVector a = RandomSparseVector(3, 40);
  SparseVector b = RandomSparseVector(4, 40);
  store.PutOwned(VectorKind::kOwnVector, 0, 1, a, a.SerializedBytes());
  store.PutOwned(VectorKind::kOwnVector, 0, 2, b, b.SerializedBytes());

  PpvRef pin = store.Find(VectorKind::kOwnVector, 0, 1);
  ASSERT_TRUE(pin);
  // Churn the cache hard; `pin`'s entry was evicted immediately (budget 1).
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*store.Find(VectorKind::kOwnVector, 0, 2), b);
  }
  EXPECT_EQ(*pin, a);  // still alive and intact
}

TEST(DiskSpillStorage, IngestStreamsWireBytes) {
  VectorRecord record;
  record.kind = VectorKind::kSkeletonRow;
  record.sub = 5;
  record.node = 6;
  record.seconds = 1.25;
  record.vec = RandomSparseVector(11, 30);
  ByteWriter writer;
  record.SerializeTo(writer);

  PpvStore store(DiskOptions(1 << 20));
  ByteReader reader(writer.bytes());
  EXPECT_DOUBLE_EQ(store.IngestFrom(reader), 1.25);
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(store.TotalSerializedBytes(), record.vec.SerializedBytes());
  EXPECT_EQ(*store.Find(VectorKind::kSkeletonRow, 5, 6), record.vec);
}

TEST(DiskSpillStorage, CopySharesSpillFileWithIndependentCaches) {
  PpvStore store(DiskOptions(1 << 20));
  SparseVector vec = RandomSparseVector(13, 35);
  store.PutOwned(VectorKind::kOwnVector, 1, 1, vec, vec.SerializedBytes());

  PpvStore copy = store;
  EXPECT_EQ(copy.num_vectors(), 1u);
  EXPECT_EQ(copy.TotalSerializedBytes(), store.TotalSerializedBytes());
  // The copy's cold read is its own: it warms the copy's cache, not the
  // source's, so the source still misses.
  StorageStats copy_reads;
  {
    StorageStatsScope scope(&copy_reads);
    EXPECT_EQ(*copy.Find(VectorKind::kOwnVector, 1, 1), vec);
    EXPECT_EQ(*copy.Find(VectorKind::kOwnVector, 1, 1), vec);
  }
  EXPECT_EQ(copy_reads.cache_misses, 1u);
  EXPECT_EQ(copy_reads.cache_hits, 1u);
  EXPECT_EQ(store.ResidentBytes(), 0u);
  StorageStats store_reads;
  {
    StorageStatsScope scope(&store_reads);
    EXPECT_EQ(*store.Find(VectorKind::kOwnVector, 1, 1), vec);
  }
  EXPECT_EQ(store_reads.cache_misses, 1u);

  // And the spill file outlives the original store.
  { PpvStore doomed = std::move(store); }
  EXPECT_EQ(*copy.Find(VectorKind::kOwnVector, 1, 1), vec);
}

TEST(DiskSpillStorage, PutIntoCopyDies) {
  // A copy shares its source's spill file, which has one writer: the store
  // that created it. A put into the copy (by PutOwned or IngestFrom) would
  // append to that file, and a named file would then hold two stores'
  // records.
  PpvStore store(DiskOptions(1 << 20));
  SparseVector vec = RandomSparseVector(14, 10);
  store.PutOwned(VectorKind::kOwnVector, 1, 1, vec, vec.SerializedBytes());
  PpvStore copy = store;
  EXPECT_DEATH(
      copy.PutOwned(VectorKind::kOwnVector, 1, 2, vec, vec.SerializedBytes()),
      "DPPR_CHECK failed");
  VectorRecord record;
  record.kind = VectorKind::kOwnVector;
  record.sub = 1;
  record.node = 3;
  record.vec = vec;
  ByteWriter writer;
  record.SerializeTo(writer);
  ByteReader reader(writer.bytes());
  EXPECT_DEATH(copy.IngestFrom(reader), "DPPR_CHECK failed");
  // The source still writes.
  store.PutOwned(VectorKind::kOwnVector, 1, 2, vec, vec.SerializedBytes());
  EXPECT_EQ(*store.Find(VectorKind::kOwnVector, 1, 2), vec);
}

TEST(DiskSpillStorage, DuplicateKeyDies) {
  PpvStore store(DiskOptions(1 << 20));
  SparseVector vec = RandomSparseVector(15, 5);
  store.PutOwned(VectorKind::kOwnVector, 0, 0, vec, vec.SerializedBytes());
  EXPECT_DEATH(
      store.PutOwned(VectorKind::kOwnVector, 0, 0, vec, vec.SerializedBytes()),
      "DPPR_CHECK failed");
}

}  // namespace
}  // namespace dppr
