#ifndef DPPR_CORE_SKELETON_ROWS_H_
#define DPPR_CORE_SKELETON_ROWS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "dppr/partition/hierarchy.h"
#include "dppr/store/ppv_store.h"

namespace dppr {

/// Skeleton rows: how a serving store lays out the skeleton values s_u[S](h)
/// (Def. 2). Under Eq. 7 each machine owns a share of every subgraph's hubs,
/// and a query from u needs, per chain subgraph, only u's value for each
/// owned hub. So the values of one (subgraph S, owner) block are stored by
/// node: u's row holds (rank, s_u[S](h)) for every owned hub h with a
/// nonzero value, where rank is h's position in the owner's hubs of S in
/// Eq. 7 order (HgpaIndex::hubs_on_machine(owner)[S]). Reverse push produces
/// columns (one per hub) and the offline wire carries them; PutSkeletonRows
/// is the one place a block's columns become rows, read straight off their
/// wire bytes.

/// Subgraph field of the keys block (sub, owner)'s rows are stored under:
/// sub · num_machines + owner. The key names the owner as well as the
/// subgraph because replication can put several owners' blocks of one
/// subgraph on one machine. DPPR_CHECKs that the id fits the key's 30-bit
/// subgraph field.
SubgraphId SkeletonRowBlock(SubgraphId sub, size_t owner, size_t num_machines);

/// Transposes block (sub.id, owner)'s skeleton columns into rows and puts
/// them into `store`. columns[i] is the column of the owner's i-th hub of
/// `sub` in Eq. 7 rank order, serialized (SparseVector wire bytes, exactly
/// one vector), and is decoded as it is consumed, so the block's columns
/// never exist in RAM beyond their wire bytes. Every node u with an entry in
/// any column gets one row whose entry i holds columns[i]'s value at u; rows
/// are built one at a time at exact capacity and put in ascending node
/// order. Malformed column bytes, and entries outside `sub`, DPPR_CHECK-fail.
void PutSkeletonRows(const HierarchySubgraph& sub, size_t owner,
                     size_t num_machines,
                     std::span<const std::span<const uint8_t>> columns,
                     PpvStore& store);

}  // namespace dppr

#endif  // DPPR_CORE_SKELETON_ROWS_H_
