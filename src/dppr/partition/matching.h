#ifndef DPPR_PARTITION_MATCHING_H_
#define DPPR_PARTITION_MATCHING_H_

#include <cstddef>
#include <vector>

#include "dppr/graph/types.h"

namespace dppr {

/// Hopcroft–Karp maximum matching on a bipartite graph with `num_left` and
/// `num_right` vertices (dense local indices). Used to compute minimum vertex
/// covers of 2-way cut graphs via Kőnig's theorem (paper §4.2, ref [33]).
class BipartiteMatcher {
 public:
  BipartiteMatcher(size_t num_left, size_t num_right);

  void AddEdge(NodeId left, NodeId right);

  /// Runs Hopcroft–Karp; returns the matching size. Idempotent.
  size_t Solve();

  /// Kőnig construction: a minimum vertex cover (size equals the maximum
  /// matching). Returns flags (in_cover_left, in_cover_right). Valid after
  /// Solve().
  std::pair<std::vector<uint8_t>, std::vector<uint8_t>> MinVertexCover() const;

 private:
  bool Bfs();
  bool Dfs(NodeId left);

  size_t num_left_;
  size_t num_right_;
  std::vector<std::vector<NodeId>> adj_;
  std::vector<NodeId> match_left_;
  std::vector<NodeId> match_right_;
  std::vector<uint32_t> dist_;
  bool solved_ = false;
};

}  // namespace dppr

#endif  // DPPR_PARTITION_MATCHING_H_
