// Coverage for the disk store's layout: one spill file of back-to-back
// records per store (and the hostile files that must die at open), and
// bit-identity of the full query surface across storage backends and
// transports.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "dppr/core/dist_precompute.h"
#include "dppr/core/hgpa.h"
#include "dppr/net/transport.h"
#include "dppr/store/disk_storage.h"
#include "dppr/store/ppv_store.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::DistOptionsUnderTest;
using ::dppr::testing::RandomDigraph;
using ::dppr::testing::RandomSparseVector;
using ::dppr::testing::StorageUnderTest;

StorageOptions Disk(size_t cache_bytes = 64 << 20) {
  StorageOptions options;
  options.backend = StorageBackend::kDisk;
  options.cache_bytes = cache_bytes;
  return options;
}

std::string TempPath(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  return dir + "/dppr_spill_segments_test_" + name + ".spill";
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

// The kinds a store holds.
constexpr std::array<VectorKind, 3> kStoredKinds{
    VectorKind::kHubPartial, VectorKind::kSkeletonRow, VectorKind::kOwnVector};

// ---------------------------------------------------------------------------
// One spill file: round trip and hostile input
// ---------------------------------------------------------------------------

TEST(SpillFileLayout, NamedSpillIsOneRecordFile) {
  std::string path = TempPath("onefile");
  StorageOptions options = Disk();
  options.spill_path = path;
  std::vector<SparseVector> expected;
  {
    PpvStore store(options);
    for (size_t k = 0; k < kStoredKinds.size(); ++k) {
      expected.push_back(RandomSparseVector(700 + k, 20));
      store.PutOwned(kStoredKinds[k], 3, k, expected.back(),
                     expected.back().SerializedBytes());
    }
  }
  // The file at the path is the records themselves, back to back to its
  // end, in put order; nothing else is written next to it.
  std::vector<uint8_t> bytes = ReadBytes(path);
  ByteReader reader(bytes);
  for (size_t k = 0; k < kStoredKinds.size(); ++k) {
    VectorRecord record = VectorRecord::Deserialize(reader);
    EXPECT_EQ(record.kind, kStoredKinds[k]);
    EXPECT_EQ(record.vec, expected[k]);
  }
  EXPECT_TRUE(reader.AtEnd());
  for (const char* suffix : {"hub_partial", "skeleton_row", "own_vector"}) {
    EXPECT_FALSE(std::ifstream(path + "." + suffix).good()) << suffix;
  }

  PpvStore reopened = PpvStore::OpenSpill(path, StorageUnderTest());
  EXPECT_EQ(reopened.num_vectors(), kStoredKinds.size());
  for (size_t k = 0; k < kStoredKinds.size(); ++k) {
    PpvRef found = reopened.Find(kStoredKinds[k], 3, k);
    ASSERT_TRUE(found);
    EXPECT_EQ(*found, expected[k]);
  }
  std::remove(path.c_str());
}

void WriteValidSpill(const std::string& path) {
  StorageOptions options = Disk();
  options.spill_path = path;
  PpvStore store(options);
  for (size_t k = 0; k < kStoredKinds.size(); ++k) {
    SparseVector vec = RandomSparseVector(900 + k, 20);
    store.PutOwned(kStoredKinds[k], 0, k, vec, vec.SerializedBytes());
  }
}

TEST(SpillFileHostile, SkeletonColumnRecordDies) {
  // Stores hold skeletons as rows; a spill carrying a column record is
  // refused at open.
  std::string path = TempPath("column");
  WriteValidSpill(path);
  ByteWriter writer;
  VectorRecord::Serialize(writer, VectorKind::kSkeletonColumn, 0, 42, 0.0,
                          RandomSparseVector(43, 5));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(writer.bytes().data()),
              static_cast<std::streamsize>(writer.bytes().size()));
  }
  EXPECT_DEATH(PpvStore::OpenSpill(path, StorageUnderTest()),
               "DPPR_CHECK failed");
  std::remove(path.c_str());
}

TEST(SpillFileHostile, ManifestFormatFileDies) {
  // The text manifest an earlier layout wrote at the spill path is not a
  // record stream, and no reader for it is kept: it dies at open.
  std::string path = TempPath("manifest");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "DPPR-SPILL-MANIFEST v2\n"
           "hub_partial x.spill.hub_partial\n"
           "skeleton_row x.spill.skeleton_row\n"
           "own_vector x.spill.own_vector\n"
           "end\n";
  }
  EXPECT_DEATH(PpvStore::OpenSpill(path, StorageUnderTest()),
               "DPPR_CHECK failed");
  std::remove(path.c_str());
}

HgpaOptions SmallOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 3;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

TEST(SpillFileLayout, NamedSpillForMoreThanOneMachineDies) {
  // A named spill file has one writer. Stores built for several machines
  // from one set of options would each truncate the same file and write
  // over the others' records, so both build paths die where they make the
  // stores.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = TempPath("machines");
  Graph g = RandomDigraph(60, 3.0, 5);
  HgpaOptions options = SmallOptions();
  StorageOptions named = Disk();
  named.spill_path = path;
  auto pre = HgpaPrecomputation::RunHgpa(g, options);
  EXPECT_DEATH(HgpaIndex::Distribute(pre, 3, named), "DPPR_CHECK failed");
  DistPrecomputeOptions dist = DistOptionsUnderTest();
  dist.num_machines = 3;
  dist.storage = named;
  EXPECT_DEATH(DistributedPrecompute::RunHgpa(g, options, dist),
               "DPPR_CHECK failed");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Engine-level equivalence: disk cache size x transport x backend
// ---------------------------------------------------------------------------

// Returns the store lookups b's queries charged (Σ QueryMetrics::storage).
StorageStats ExpectEnginesAgree(const Graph& g, HgpaQueryEngine& a,
                                HgpaQueryEngine& b) {
  StorageStats lookups;
  for (NodeId q = 0; q < g.num_nodes(); q += 4) {
    QueryMetrics metrics;
    EXPECT_EQ(a.Query(q), b.Query(q, &metrics)) << "query " << q;
    lookups += metrics.storage;
  }
  std::vector<HgpaQueryEngine::Preference> prefs{
      {1, 0.6}, {static_cast<NodeId>(g.num_nodes() / 2), 0.4}};
  QueryMetrics metrics;
  EXPECT_EQ(a.QueryPreferenceSet(prefs), b.QueryPreferenceSet(prefs, &metrics));
  lookups += metrics.storage;
  return lookups;
}

TEST(EngineEquivalence, DiskAndMemoryBitIdenticalOnBothTransports) {
  Graph g = RandomDigraph(90, 3.0, 17);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  StorageOptions memory;
  memory.backend = StorageBackend::kMemoryOwned;

  for (TransportBackend backend :
       {TransportBackend::kInProcess, TransportBackend::kTcp}) {
    TransportOptions transport;
    transport.backend = backend;
    HgpaQueryEngine reference(HgpaIndex::Distribute(pre, 3, memory),
                              NetworkModel{}, transport);
    // A cache that keeps most of a machine's index resident, and one that
    // holds about one record, so nearly every lookup reads its extent.
    for (size_t cache_bytes : {size_t{1} << 20, size_t{4096}}) {
      HgpaQueryEngine disk(HgpaIndex::Distribute(pre, 3, Disk(cache_bytes)),
                           NetworkModel{}, transport);
      EXPECT_GT(ExpectEnginesAgree(g, reference, disk).disk_bytes_read, 0u)
          << "cache " << cache_bytes;
    }
  }
}

}  // namespace
}  // namespace dppr
