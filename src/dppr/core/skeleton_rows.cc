#include "dppr/core/skeleton_rows.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "dppr/common/macros.h"
#include "dppr/common/serialize.h"
#include "dppr/ppr/sparse_vector.h"

namespace dppr {

void PutSkeletonRows(const Placement& placement, SubgraphId sub, size_t owner,
                     std::span<const std::span<const uint8_t>> columns,
                     PpvStore& store) {
  DPPR_CHECK_EQ(columns.size(), placement.OwnedHubs(sub, owner).size());
  const SubgraphId block = placement.Block(sub, owner);
  // One reader per column, and each column's next entry; an exhausted
  // column's next index is kInvalidNode, which no node of sub equals.
  std::vector<ByteReader> bytes;
  bytes.reserve(columns.size());
  for (std::span<const uint8_t> column : columns) {
    bytes.emplace_back(column.data(), column.size());
  }
  std::vector<SparseVectorReader> readers;
  readers.reserve(columns.size());
  for (ByteReader& column : bytes) readers.emplace_back(column);
  std::vector<SparseVector::Entry> next(columns.size());
  auto advance = [&](size_t rank) {
    if (!readers[rank].Next(next[rank])) next[rank].index = kInvalidNode;
  };
  for (size_t rank = 0; rank < columns.size(); ++rank) advance(rank);

  // Columns and the subgraph's nodes are both sorted by node id, so one pass over the
  // nodes meets every column entry in order and finishes each row, its
  // entries in rank order, before starting the next.
  std::vector<SparseVector::Entry> row;
  for (NodeId u : placement.hierarchy().subgraph(sub).nodes) {
    for (size_t rank = 0; rank < columns.size(); ++rank) {
      if (next[rank].index != u) continue;
      row.push_back({static_cast<NodeId>(rank), next[rank].value});
      advance(rank);
    }
    if (row.empty()) continue;
    SparseVector values = SparseVector::FromSortedUnique(
        std::vector<SparseVector::Entry>(row.begin(), row.end()));
    const size_t bytes_of_row = values.SerializedBytes();
    store.PutOwned(VectorKind::kSkeletonRow, block, u, std::move(values),
                   bytes_of_row);
    row.clear();
  }
  // An entry outside sub.nodes stalls its column; bytes past the vector are
  // corrupt.
  for (size_t rank = 0; rank < columns.size(); ++rank) {
    DPPR_CHECK_EQ(next[rank].index, kInvalidNode);
    DPPR_CHECK(bytes[rank].AtEnd());
  }
}

}  // namespace dppr
