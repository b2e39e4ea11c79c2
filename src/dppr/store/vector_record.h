#ifndef DPPR_STORE_VECTOR_RECORD_H_
#define DPPR_STORE_VECTOR_RECORD_H_

#include <cstdint>
#include <span>

#include "dppr/common/macros.h"
#include "dppr/common/serialize.h"
#include "dppr/graph/types.h"
#include "dppr/partition/hierarchy.h"
#include "dppr/ppr/sparse_vector.h"

namespace dppr {

/// The precomputed vector kinds of the paper's decomposition. Skeletons come
/// in two layouts: reverse push produces columns, and the precomputation and
/// the offline wire carry them; every serving store holds them transposed
/// into rows, so a query reads one row per chain block instead of one value
/// out of every hub's column.
enum class VectorKind : uint8_t {
  /// p^H_h[S]: partial vector of hub h w.r.t. subgraph S (Def. 1 / Thm. 2).
  kHubPartial = 0,
  /// Skeleton column of hub h over S: entry u holds s_u[S](h) (Def. 2).
  /// Never stored: see kSkeletonRow.
  kSkeletonColumn = 1,
  /// Leaf-level local PPV r_u[leaf] of a non-hub node (Eq. 6 last term).
  kOwnVector = 2,
  /// Skeleton row of node u in block (S, owner): entry i holds s_u[S](h) for
  /// the owner's i-th hub of S in Eq. 7 rank order. Keyed under
  /// SkeletonRowBlock(S, owner, num_machines) (core/skeleton_rows.h).
  kSkeletonRow = 3,
};
inline constexpr uint8_t kNumVectorKinds = 4;

/// Packs (kind, subgraph, node) into a lookup key. The range checks are
/// always on (DPPR_CHECK): a silently truncated key aliases another vector's
/// slot and returns wrong data, which a release build must refuse too.
inline uint64_t MakeVectorKey(VectorKind kind, SubgraphId sub, NodeId node) {
  DPPR_CHECK_LT(sub, 1u << 30);
  DPPR_CHECK_LT(node, 1u << 30);
  return (static_cast<uint64_t>(kind) << 60) | (static_cast<uint64_t>(sub) << 30) |
         node;
}

/// Kind bits of a packed key — the disk backend's per-kind spill segments
/// route on this without unpacking the rest.
inline VectorKind VectorKindOfKey(uint64_t key) {
  uint64_t kind = key >> 60;
  DPPR_DCHECK(kind < kNumVectorKinds);
  return static_cast<VectorKind>(kind);
}

/// Wire format for shipping one precomputed vector between machines: header
/// (kind, subgraph, owner node, compute seconds) followed by the serialized
/// SparseVector as a length-prefixed blob, so a receiver can bounds-check the
/// nested payload before trusting it. This is what DistributedPrecompute's
/// SimCluster rounds put on the wire, what vector storage deserializes into
/// an owned vector, and — byte for byte — what the disk backend appends to
/// its spill file, so a spill file is just a concatenation of wire records.
struct VectorRecord {
  VectorKind kind = VectorKind::kOwnVector;
  SubgraphId sub = kInvalidSubgraph;
  NodeId node = kInvalidNode;
  /// Compute time on the producing machine (offline ledger accounting).
  double seconds = 0.0;
  SparseVector vec;

  void SerializeTo(ByteWriter& writer) const;

  /// Same wire format from loose parts, so a producer holding only a
  /// reference to the vector (e.g. the disk backend spilling a referenced
  /// vector) can emit a record without copying it into one.
  static void Serialize(ByteWriter& writer, VectorKind kind, SubgraphId sub,
                        NodeId node, double seconds, const SparseVector& vec);

  /// DPPR_CHECK-fails on malformed input: unknown kind, out-of-range ids,
  /// truncated or oversized nested vector payload.
  static VectorRecord Deserialize(ByteReader& reader);

  /// A record whose vector is left serialized: `vec` views its SparseVector
  /// wire bytes inside the buffer the record was read from (SparseVectorReader
  /// walks them, with the vector checks).
  struct View {
    VectorKind kind = VectorKind::kOwnVector;
    SubgraphId sub = kInvalidSubgraph;
    NodeId node = kInvalidNode;
    double seconds = 0.0;
    std::span<const uint8_t> vec;
  };

  /// Consumes one record, checking everything Deserialize checks except the
  /// vector payload inside its blob.
  static View DeserializeView(ByteReader& reader);
};

}  // namespace dppr

#endif  // DPPR_STORE_VECTOR_RECORD_H_
