// Coverage for the disk store's layout: per-kind spill segments with their
// manifest (and the hostile manifests that must die at open), and
// bit-identity of the full query surface across storage backends and
// transports.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "dppr/core/hgpa.h"
#include "dppr/net/transport.h"
#include "dppr/store/disk_storage.h"
#include "dppr/store/ppv_store.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;
using ::dppr::testing::RandomSparseVector;

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

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// The kinds a store holds, in segment order.
constexpr std::array<VectorKind, 3> kStoredKinds{
    VectorKind::kHubPartial, VectorKind::kSkeletonRow, VectorKind::kOwnVector};

void RemoveSpill(const std::string& path) {
  std::remove(path.c_str());
  for (const char* suffix : {"hub_partial", "skeleton_row", "own_vector"}) {
    std::remove((path + "." + suffix).c_str());
  }
}

// ---------------------------------------------------------------------------
// Per-kind segments: manifest round trip and hostile input
// ---------------------------------------------------------------------------

TEST(SpillSegments, NamedSpillWritesManifestAndSegments) {
  std::string path = TempPath("manifest");
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
  EXPECT_EQ(ReadText(path).rfind("DPPR-SPILL-MANIFEST v2", 0), 0u);
  for (const char* suffix : {"hub_partial", "skeleton_row", "own_vector"}) {
    EXPECT_TRUE(std::ifstream(path + "." + suffix).good()) << suffix;
  }

  PpvStore reopened = PpvStore::OpenSpill(path);
  EXPECT_EQ(reopened.num_vectors(), kStoredKinds.size());
  for (size_t k = 0; k < kStoredKinds.size(); ++k) {
    PpvRef found = reopened.Find(kStoredKinds[k], 3, k);
    ASSERT_TRUE(found);
    EXPECT_EQ(*found, expected[k]);
  }
  RemoveSpill(path);
}

std::string WriteValidSegmentSpill(const std::string& path) {
  StorageOptions options = Disk();
  options.spill_path = path;
  PpvStore store(options);
  for (size_t k = 0; k < kStoredKinds.size(); ++k) {
    SparseVector vec = RandomSparseVector(900 + k, 20);
    store.PutOwned(kStoredKinds[k], 0, k, vec, vec.SerializedBytes());
  }
  return ReadText(path);
}

TEST(SpillManifestHostile, RawRecordStreamDies) {
  // A spill path holding a bare record stream (every kind interleaved, no
  // manifest) is not a spill this store reads: it must die at open like any
  // other malformed manifest.
  std::string path = TempPath("rawstream");
  ByteWriter writer;
  for (NodeId i = 0; i < 4; ++i) {
    for (size_t k = 0; k < kStoredKinds.size(); ++k) {
      VectorRecord::Serialize(writer, kStoredKinds[k], 1, i, /*seconds=*/0.0,
                              RandomSparseVector(800 + 10 * i + k, 15));
    }
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(writer.bytes().data()),
              static_cast<std::streamsize>(writer.bytes().size()));
  }
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  std::remove(path.c_str());
}

TEST(SpillManifestHostile, MissingEndTrailerDies) {
  std::string path = TempPath("noend");
  std::string manifest = WriteValidSegmentSpill(path);
  size_t end = manifest.rfind("end\n");
  ASSERT_NE(end, std::string::npos);
  WriteText(path, manifest.substr(0, end));
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  RemoveSpill(path);
}

TEST(SpillManifestHostile, WrongKindLineDies) {
  std::string path = TempPath("wrongkind");
  std::string manifest = WriteValidSegmentSpill(path);
  size_t pos = manifest.find("skeleton_row ");
  ASSERT_NE(pos, std::string::npos);
  manifest.replace(pos, 13, "skeleton_rou ");
  WriteText(path, manifest);
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  RemoveSpill(path);
}

TEST(SpillManifestHostile, PathTraversalBasenameDies) {
  // A hostile manifest must not be able to point a segment outside the
  // manifest's own directory.
  std::string path = TempPath("traversal");
  std::string manifest = WriteValidSegmentSpill(path);
  size_t line = manifest.find("own_vector ");
  ASSERT_NE(line, std::string::npos);
  size_t eol = manifest.find('\n', line);
  manifest.replace(line, eol - line, "own_vector ../../etc/passwd");
  WriteText(path, manifest);
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  RemoveSpill(path);
}

TEST(SpillManifestHostile, MissingSegmentFileDies) {
  std::string path = TempPath("missingseg");
  WriteValidSegmentSpill(path);
  std::remove((path + ".hub_partial").c_str());
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  RemoveSpill(path);
}

TEST(SpillManifestHostile, RecordInWrongSegmentDies) {
  // A record whose kind contradicts its segment would be read back from the
  // wrong file; the open-time scan must refuse it.
  std::string path = TempPath("wrongseg");
  WriteValidSegmentSpill(path);
  ByteWriter writer;
  VectorRecord::Serialize(writer, VectorKind::kOwnVector, 0, 42, 0.0,
                          RandomSparseVector(42, 5));
  std::string skeleton_segment = path + ".skeleton_row";
  std::ofstream out(skeleton_segment,
                    std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(writer.bytes().data()),
            static_cast<std::streamsize>(writer.bytes().size()));
  out.close();
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  RemoveSpill(path);
}

TEST(SpillManifestHostile, SkeletonColumnRecordDies) {
  // Stores hold skeletons as rows; a column record has no segment to live
  // in, so a spill carrying one is refused at open.
  std::string path = TempPath("column");
  WriteValidSegmentSpill(path);
  ByteWriter writer;
  VectorRecord::Serialize(writer, VectorKind::kSkeletonColumn, 0, 42, 0.0,
                          RandomSparseVector(43, 5));
  std::ofstream out(path + ".skeleton_row", std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(writer.bytes().data()),
            static_cast<std::streamsize>(writer.bytes().size()));
  out.close();
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  RemoveSpill(path);
}

// ---------------------------------------------------------------------------
// Engine-level equivalence: disk cache size x transport x backend
// ---------------------------------------------------------------------------

HgpaOptions SmallOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 3;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

void ExpectEnginesAgree(const Graph& g, HgpaQueryEngine& a, HgpaQueryEngine& b) {
  for (NodeId q = 0; q < g.num_nodes(); q += 4) {
    EXPECT_EQ(a.Query(q), b.Query(q)) << "query " << q;
  }
  std::vector<HgpaQueryEngine::Preference> prefs{
      {1, 0.6}, {static_cast<NodeId>(g.num_nodes() / 2), 0.4}};
  EXPECT_EQ(a.QueryPreferenceSet(prefs), b.QueryPreferenceSet(prefs));
}

TEST(EngineEquivalence, DiskAndMemoryBitIdenticalOnBothTransports) {
  Graph g = RandomDigraph(90, 3.0, 17);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  StorageOptions memory;
  memory.backend = StorageBackend::kMemoryRef;

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
      ExpectEnginesAgree(g, reference, disk);
      EXPECT_GT(disk.index().StorageStatsTotal().disk_bytes_read, 0u)
          << "cache " << cache_bytes;
    }
  }
}

}  // namespace
}  // namespace dppr
