#include "dppr/ppr/sparse_vector.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "dppr/common/rng.h"

namespace dppr {
namespace {

TEST(SparseVector, FromEntriesSortsAndMerges) {
  SparseVector v = SparseVector::FromEntries({{5, 1.0}, {2, 0.5}, {5, 2.0}});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.entries()[0].index, 2u);
  EXPECT_DOUBLE_EQ(v.entries()[0].value, 0.5);
  EXPECT_EQ(v.entries()[1].index, 5u);
  EXPECT_DOUBLE_EQ(v.entries()[1].value, 3.0);
}

TEST(SparseVector, FromDensePrunes) {
  std::vector<double> dense{0.0, 0.5, 1e-9, -0.25};
  SparseVector v = SparseVector::FromDense(dense, 1e-6);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v.ValueAt(1), 0.5);
  EXPECT_DOUBLE_EQ(v.ValueAt(3), -0.25);
  EXPECT_DOUBLE_EQ(v.ValueAt(2), 0.0);
}

TEST(SparseVector, ValueAtMissingIsZero) {
  SparseVector v = SparseVector::FromEntries({{1, 1.0}, {7, 2.0}});
  EXPECT_DOUBLE_EQ(v.ValueAt(0), 0.0);
  EXPECT_DOUBLE_EQ(v.ValueAt(4), 0.0);
  EXPECT_DOUBLE_EQ(v.ValueAt(100), 0.0);
}

TEST(SparseVector, L1Norm) {
  SparseVector v = SparseVector::FromEntries({{0, -1.0}, {3, 2.5}});
  EXPECT_DOUBLE_EQ(v.L1Norm(), 3.5);
}

TEST(SparseVector, AddScaledTo) {
  SparseVector v = SparseVector::FromEntries({{0, 1.0}, {2, 2.0}});
  std::vector<double> dense(4, 1.0);
  v.AddScaledTo(dense, 0.5);
  EXPECT_DOUBLE_EQ(dense[0], 1.5);
  EXPECT_DOUBLE_EQ(dense[1], 1.0);
  EXPECT_DOUBLE_EQ(dense[2], 2.0);
}

TEST(SparseVector, SerializeRoundTrip) {
  Rng rng(77);
  std::vector<SparseVector::Entry> entries;
  for (int i = 0; i < 500; ++i) {
    entries.push_back({static_cast<NodeId>(rng.Uniform(100000)),
                       rng.NextDouble() - 0.5});
  }
  SparseVector v = SparseVector::FromEntries(std::move(entries));
  ByteWriter writer;
  v.SerializeTo(writer);
  EXPECT_EQ(writer.size(), v.SerializedBytes());
  ByteReader reader(writer.bytes());
  SparseVector back = SparseVector::Deserialize(reader);
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(v, back);
}

TEST(SparseVector, SerializedBytesMatchesForEmptyVector) {
  SparseVector v;
  ByteWriter writer;
  v.SerializeTo(writer);
  EXPECT_EQ(writer.size(), v.SerializedBytes());
  EXPECT_EQ(writer.size(), 1u);  // just the varint count 0
}

TEST(SparseVector, PrunedRemovesSmallMagnitudes) {
  SparseVector v =
      SparseVector::FromEntries({{0, 1e-5}, {1, -1e-5}, {2, 0.1}, {3, -0.1}});
  SparseVector pruned = v.Pruned(1e-4);
  ASSERT_EQ(pruned.size(), 2u);
  EXPECT_DOUBLE_EQ(pruned.ValueAt(2), 0.1);
  EXPECT_DOUBLE_EQ(pruned.ValueAt(3), -0.1);
}

TEST(DenseAccumulator, AccumulatesAndClears) {
  DenseAccumulator acc(10);
  acc.Add(3, 1.0);
  acc.Add(3, 2.0);
  acc.Add(7, -1.0);
  EXPECT_DOUBLE_EQ(acc.ValueAt(3), 3.0);
  EXPECT_EQ(acc.TouchedIndices(), (std::vector<NodeId>{3, 7}));

  SparseVector sparse = acc.ToSparse();
  EXPECT_EQ(sparse.size(), 2u);

  acc.Clear();
  EXPECT_DOUBLE_EQ(acc.ValueAt(3), 0.0);
  EXPECT_TRUE(acc.TouchedIndices().empty());
}

TEST(DenseAccumulator, AddVectorWithScale) {
  DenseAccumulator acc(5);
  SparseVector v = SparseVector::FromEntries({{1, 2.0}, {4, 4.0}});
  acc.AddVector(v, 0.25);
  EXPECT_DOUBLE_EQ(acc.ValueAt(1), 0.5);
  EXPECT_DOUBLE_EQ(acc.ValueAt(4), 1.0);
}

TEST(SparseVector, FromEntriesDropsEntriesThatCancelToZero) {
  // Duplicates summing to exactly 0.0 used to survive as stored zeros,
  // inflating SerializedBytes — the paper's coordinator-bytes comm metric.
  SparseVector v = SparseVector::FromEntries(
      {{2, 1.0}, {2, -1.0}, {5, 0.25}, {9, 0.0}});
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.entries()[0].index, 5u);
  EXPECT_DOUBLE_EQ(v.entries()[0].value, 0.25);
  EXPECT_EQ(v.SerializedBytes(),
            SparseVector::FromEntries({{5, 0.25}}).SerializedBytes());
}

TEST(SparseVector, FromEntriesKeepsValuesThatRecoverFromZero) {
  SparseVector v =
      SparseVector::FromEntries({{3, 1.0}, {3, -1.0}, {3, 0.5}});
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v.entries()[0].value, 0.5);
}

TEST(SparseVectorDeserialize, TruncatedPayloadDies) {
  SparseVector v = SparseVector::FromEntries({{1, 0.5}, {900, -2.0}});
  ByteWriter writer;
  v.SerializeTo(writer);
  std::vector<uint8_t> bytes = writer.bytes();
  // Chop the payload mid-entry: the reader must refuse, not read OOB.
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 5);
  EXPECT_DEATH(
      {
        ByteReader reader(truncated.data(), truncated.size());
        SparseVector::Deserialize(reader);
      },
      "DPPR_CHECK failed");
}

TEST(SparseVectorDeserialize, HostileEntryCountDies) {
  // A corrupt header claiming ~2^60 entries must be rejected up front
  // instead of driving a giant reserve() and a byte-by-byte crawl.
  ByteWriter writer;
  writer.PutVarU64(1ull << 60);
  writer.PutVarU64(0);
  writer.PutDouble(1.0);
  EXPECT_DEATH(
      {
        ByteReader reader(writer.bytes());
        SparseVector::Deserialize(reader);
      },
      "DPPR_CHECK failed");
}

TEST(SparseVectorDeserialize, WrappedIndexDeltaDies) {
  // A well-framed payload can still smuggle a delta that wraps NodeId; the
  // reader must reject ids outside the 30-bit range every node id obeys.
  ByteWriter writer;
  writer.PutVarU64(2);
  writer.PutVarU64(5);
  writer.PutDouble(1.0);
  writer.PutVarU64(0xFFFFFFF0ull);  // wraps past 2^30
  writer.PutDouble(2.0);
  EXPECT_DEATH(
      {
        ByteReader reader(writer.bytes());
        SparseVector::Deserialize(reader);
      },
      "DPPR_CHECK failed");
}

TEST(SparseVectorDeserialize, DuplicateIndexDies) {
  // Zero deltas after the first entry would break the sorted-unique invariant
  // ValueAt's binary search relies on; the serializer never emits them.
  ByteWriter writer;
  writer.PutVarU64(2);
  writer.PutVarU64(7);
  writer.PutDouble(1.0);
  writer.PutVarU64(0);  // duplicate index 7
  writer.PutDouble(2.0);
  EXPECT_DEATH(
      {
        ByteReader reader(writer.bytes());
        SparseVector::Deserialize(reader);
      },
      "DPPR_CHECK failed");
}

TEST(SparseVectorDeserialize, MaxRepresentableIdRoundTrips) {
  SparseVector v = SparseVector::FromEntries({{0, 1.0}, {(1u << 30) - 1, 2.0}});
  ByteWriter writer;
  v.SerializeTo(writer);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(SparseVector::Deserialize(reader), v);
}

TEST(DenseAccumulatorDeath, OutOfRangeFragmentIdDies) {
  // A fragment id in [num_nodes, 2^30) passes Deserialize, which cannot know
  // the graph's size; the fold must refuse it in every build mode instead of
  // writing past the accumulator.
  SparseVector fragment = SparseVector::FromEntries({{3, 1.0}, {70, 2.0}});
  ByteWriter writer;
  fragment.SerializeTo(writer);
  ByteReader reader(writer.bytes());
  SparseVector received = SparseVector::Deserialize(reader);
  ASSERT_EQ(received, fragment);
  DenseAccumulator acc(64);
  EXPECT_DEATH(acc.AddVector(received, 1.0), "DPPR_CHECK failed");
  // The last id in range is accepted.
  acc.AddVector(SparseVector::FromEntries({{63, 1.0}}), 1.0);
  EXPECT_EQ(acc.ValueAt(63), 1.0);
}

TEST(SparseVector, ValuesAtMatchesValueAtBitForBit) {
  Rng rng(2024);
  // Random sorted vectors over ids [0, 20000): sizes straddle the search's
  // edge cases (empty, one entry, two, three) and the deep searches.
  std::vector<SparseVector> pool;
  for (size_t size : {0u, 1u, 2u, 3u, 17u, 5000u}) {
    for (int copy = 0; copy < 4; ++copy) {
      std::set<NodeId> ids;
      while (ids.size() < size) {
        ids.insert(static_cast<NodeId>(rng.Uniform(20000)));
      }
      std::vector<SparseVector::Entry> entries;
      for (NodeId id : ids) entries.push_back({id, rng.NextDouble() - 0.5});
      pool.push_back(SparseVector::FromSortedUnique(std::move(entries)));
    }
  }
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  // Spans of 1-40 vectors, so calls of 17+ cross the 16-lane group.
  for (size_t count = 1; count <= 40; ++count) {
    std::vector<const SparseVector*> vectors(count);
    for (const SparseVector*& v : vectors) v = &pool[rng.Uniform(pool.size())];
    // Probes: below the first entry, above the last, equal to the first and
    // the last of every vector, every stored id of a small vector, and
    // random (mostly absent) ids.
    std::vector<NodeId> probes{0, 19999, 20000, (1u << 30) - 1};
    for (const SparseVector* v : vectors) {
      if (v->empty()) continue;
      probes.push_back(v->entries().front().index);
      probes.push_back(v->entries().back().index);
      if (v->entries().front().index > 0) {
        probes.push_back(v->entries().front().index - 1);
      }
      probes.push_back(v->entries().back().index + 1);
      if (v->size() <= 17) {
        for (const SparseVector::Entry& e : v->entries()) {
          probes.push_back(e.index);
        }
      }
    }
    for (int i = 0; i < 20; ++i) {
      probes.push_back(static_cast<NodeId>(rng.Uniform(20001)));
    }
    std::vector<double> out(count);
    for (NodeId probe : probes) {
      SparseVector::ValuesAt(vectors, probe, out.data());
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(bits(out[i]), bits(vectors[i]->ValueAt(probe)))
            << "count " << count << " lane " << i << " probe " << probe;
      }
    }
  }
}

TEST(DenseAccumulator, ToSparseCancellationStillListed) {
  DenseAccumulator acc(4);
  acc.Add(2, 1.0);
  acc.Add(2, -1.0);
  // Exact zero after cancellation: excluded from the sparse view.
  SparseVector sparse = acc.ToSparse();
  EXPECT_EQ(sparse.size(), 0u);
}

TEST(SparseVector, FromSortedUniqueAdoptsEntries) {
  SparseVector v = SparseVector::FromSortedUnique({{1, 0.5}, {63, -2.0},
                                                   {64, 3.0}});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v.ValueAt(63), -2.0);
  EXPECT_EQ(v, SparseVector::FromEntries({{64, 3.0}, {1, 0.5}, {63, -2.0}}));
}

// Scalar reference for the fold kernels: a plain dense array updated with the
// exact per-entry expression (`dense[i] += scale * value`, in entry order)
// that the pre-kernel DenseAccumulator used. Every sum below is compared with
// ==, not near-equality — the bulk AddVector path must be bit-identical.
struct ScalarFoldOracle {
  explicit ScalarFoldOracle(size_t size) : dense(size, 0.0) {}
  void AddVector(const SparseVector& vec, double scale) {
    for (const auto& e : vec.entries()) dense[e.index] += scale * e.value;
  }
  std::vector<double> dense;
};

TEST(DenseAccumulator, RandomizedFoldBitIdenticalToScalarOracle) {
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t size = 1 + rng.Uniform(2000);
    DenseAccumulator acc(size);
    ScalarFoldOracle oracle(size);
    const int num_vectors = 1 + static_cast<int>(rng.Uniform(30));
    for (int v = 0; v < num_vectors; ++v) {
      std::vector<SparseVector::Entry> entries;
      const int num_entries = static_cast<int>(rng.Uniform(200));
      for (int e = 0; e < num_entries; ++e) {
        entries.push_back({static_cast<NodeId>(rng.Uniform(size)),
                           rng.NextDouble() - 0.5});
      }
      SparseVector vec = SparseVector::FromEntries(std::move(entries));
      const double scale = rng.NextDouble() * 2.0 - 1.0;
      acc.AddVector(vec, scale);
      oracle.AddVector(vec, scale);
    }
    // Bit-identical everywhere, including untouched slots.
    EXPECT_EQ(acc.ToDense(), oracle.dense);
    // ToSparse agrees with the dense-oracle sparsification at several
    // thresholds, including 0 (exact-zero exclusion on both sides).
    for (double prune : {0.0, 1e-9, 0.05}) {
      EXPECT_EQ(acc.ToSparse(prune),
                SparseVector::FromDense(oracle.dense, prune));
    }
  }
}

TEST(DenseAccumulator, FoldWithCancellationEdges) {
  // Entries straddling 64-id bitmap words, plus exact cancellation within and
  // across vectors: the bitmap keeps every touched slot listed while ToSparse
  // excludes the exact zeros, matching the dense oracle.
  DenseAccumulator acc(200);
  ScalarFoldOracle oracle(200);
  SparseVector a = SparseVector::FromEntries(
      {{0, 1.0}, {63, 2.0}, {64, -3.0}, {127, 0.5}, {128, 4.0}, {199, -1.0}});
  SparseVector b = SparseVector::FromEntries(
      {{63, -2.0}, {64, 3.0}, {199, 1.0}});
  acc.AddVector(a, 1.0);
  acc.AddVector(b, 1.0);
  oracle.AddVector(a, 1.0);
  oracle.AddVector(b, 1.0);
  EXPECT_EQ(acc.ToDense(), oracle.dense);
  EXPECT_EQ(acc.ToSparse(), SparseVector::FromDense(oracle.dense));
  // 63, 64, and 199 cancelled to exactly zero but stay touched.
  EXPECT_EQ(acc.TouchedIndices(),
            (std::vector<NodeId>{0, 63, 64, 127, 128, 199}));
  EXPECT_EQ(acc.ToSparse().size(), 3u);
}

TEST(DenseAccumulator, ClearResetsForReuse) {
  Rng rng(99);
  DenseAccumulator acc(500);
  std::vector<SparseVector::Entry> entries;
  for (int i = 0; i < 100; ++i) {
    entries.push_back({static_cast<NodeId>(rng.Uniform(500)),
                       rng.NextDouble()});
  }
  SparseVector vec = SparseVector::FromEntries(std::move(entries));
  acc.AddVector(vec, 1.5);
  acc.Clear();
  EXPECT_TRUE(acc.TouchedIndices().empty());
  EXPECT_EQ(acc.ToDense(), std::vector<double>(500, 0.0));
  // A fold after Clear behaves exactly like one on a fresh accumulator.
  acc.AddVector(vec, -0.5);
  DenseAccumulator fresh(500);
  fresh.AddVector(vec, -0.5);
  EXPECT_EQ(acc.ToDense(), fresh.ToDense());
  EXPECT_EQ(acc.ToSparse(), fresh.ToSparse());
}

}  // namespace
}  // namespace dppr
