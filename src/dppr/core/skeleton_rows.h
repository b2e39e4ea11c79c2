#ifndef DPPR_CORE_SKELETON_ROWS_H_
#define DPPR_CORE_SKELETON_ROWS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "dppr/core/placement.h"
#include "dppr/store/ppv_store.h"

namespace dppr {

/// Skeleton rows: how a serving store lays out the skeleton values s_u[S](h)
/// (Def. 2). Under Eq. 7 each machine owns a share of every subgraph's hubs,
/// and a query from u needs, per chain subgraph, only u's value for each
/// owned hub. So the values of one (subgraph S, owner) block are stored by
/// node under the key (Placement::Block(S, owner), u): u's row holds
/// (rank, s_u[S](h)) for every owned hub h with a nonzero value, where rank
/// is h's position in Placement::OwnedHubs(S, owner) (Eq. 7 order). Reverse
/// push produces columns (one per hub) and the offline wire carries them;
/// PutSkeletonRows is the one place a block's columns become rows, read
/// straight off their wire bytes.

/// Transposes block (sub, owner)'s skeleton columns into rows and puts them
/// into `store`. columns[i] is the column of OwnedHubs(sub, owner)[i],
/// serialized (SparseVector wire bytes, exactly one vector), and is decoded
/// as it is consumed, so the block's columns never exist in RAM beyond their
/// wire bytes. Every node u with an entry in any column gets one row whose
/// entry i holds columns[i]'s value at u; rows are built one at a time at
/// exact capacity and put in ascending node order. A column count other
/// than the owner's hub count, malformed column bytes, and entries outside
/// `sub` DPPR_CHECK-fail.
void PutSkeletonRows(const Placement& placement, SubgraphId sub, size_t owner,
                     std::span<const std::span<const uint8_t>> columns,
                     PpvStore& store);

}  // namespace dppr

#endif  // DPPR_CORE_SKELETON_ROWS_H_
