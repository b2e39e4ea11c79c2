#include "dppr/graph/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "test_util.h"

namespace dppr {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dppr_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

bool SameGraph(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    auto na = a.OutNeighbors(u);
    auto nb = b.OutNeighbors(u);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

TEST_F(IoTest, EdgeListRoundTrip) {
  Graph g = testing::RandomDigraph(80, 3.0, 3);
  ASSERT_TRUE(SaveEdgeList(g, Path("g.txt")).ok());
  auto loaded = LoadEdgeList(Path("g.txt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(SameGraph(g, loaded.value()));
}

TEST_F(IoTest, EdgeListSkipsComments) {
  std::ofstream out(Path("c.txt"));
  out << "# SNAP-style comment\n% another comment\n0 1\n1 2\n\n2 0\n";
  out.close();
  auto loaded = LoadEdgeList(Path("c.txt"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), 3u);
  EXPECT_EQ(loaded.value().num_edges(), 3u);
}

TEST_F(IoTest, EdgeListRejectsGarbage) {
  std::ofstream out(Path("bad.txt"));
  out << "0 1\nnot an edge\n";
  out.close();
  auto loaded = LoadEdgeList(Path("bad.txt"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, MissingFileIsIoError) {
  auto loaded = LoadEdgeList(Path("does_not_exist.txt"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, LoadAppliesBuildOptions) {
  std::ofstream out(Path("d.txt"));
  out << "0 1\n";  // node 1 dangling
  out.close();
  GraphBuildOptions options;
  options.dangling = DanglingPolicy::kSelfLoop;
  auto loaded = LoadEdgeList(Path("d.txt"), options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().CountDanglingNodes(), 0u);
}

}  // namespace
}  // namespace dppr
