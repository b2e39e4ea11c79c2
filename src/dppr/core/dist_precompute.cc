#include "dppr/core/dist_precompute.h"

#include <algorithm>
#include <utility>

#include "dppr/common/serialize.h"
#include "dppr/common/timer.h"
#include "dppr/core/skeleton_rows.h"
#include "dppr/graph/local_graph.h"
#include "dppr/obs/trace.h"

namespace dppr {
namespace {

/// Serializes one record and returns its wire size (what the byte ledgers
/// and LevelStats charge for it).
size_t AppendRecord(ByteWriter& writer, VectorKind kind, SubgraphId sub,
                    NodeId node, double seconds, SparseVector vec) {
  const size_t before = writer.size();
  VectorRecord record;
  record.kind = kind;
  record.sub = sub;
  record.node = node;
  record.seconds = seconds;
  record.vec = std::move(vec);
  record.SerializeTo(writer);
  return writer.size() - before;
}

size_t Sum(const std::vector<size_t>& values) {
  size_t total = 0;
  for (size_t v : values) total += v;
  return total;
}

/// Drops a consumed payload's bytes now rather than at the end of the round.
void Free(std::vector<uint8_t>& payload) { std::vector<uint8_t>().swap(payload); }

/// Ingests one level inbox (records machine `src` addressed to `owner`) into
/// the owner's store. Hub partials stream straight in; skeleton columns stay
/// in the inbox and each complete (subgraph, owner) block is transposed
/// from their wire bytes into the owner's row block. A block's columns all
/// come from its subgraph's home machine, back to back in Eq. 7 rank order,
/// so one inbox holds whole blocks.
void IngestLevelInbox(const Placement& placement, size_t owner,
                      ByteReader& reader, PpvStore& store,
                      MachineTimeLedger& ledger) {
  SubgraphId block_sub = kInvalidSubgraph;
  std::vector<std::span<const uint8_t>> columns;
  auto flush = [&] {
    if (columns.empty()) return;
    PutSkeletonRows(placement, block_sub, owner, columns, store);
    columns.clear();
  };
  while (!reader.AtEnd()) {
    const size_t start = reader.position();
    const VectorRecord::View record = VectorRecord::DeserializeView(reader);
    if (record.kind != VectorKind::kSkeletonColumn) {
      std::span<const uint8_t> bytes = reader.Slice(start, reader.position());
      ByteReader one(bytes.data(), bytes.size());
      ledger.Add(owner, store.IngestFrom(one));
      continue;
    }
    ledger.Add(owner, record.seconds);
    if (record.sub != block_sub) {
      flush();
      block_sub = record.sub;
    }
    // Columns arrive in the rank order the rows index by.
    const std::span<const NodeId> hubs = placement.OwnedHubs(block_sub, owner);
    DPPR_CHECK_LT(columns.size(), hubs.size());
    DPPR_CHECK_EQ(record.node, hubs[columns.size()]);
    columns.push_back(record.vec);
  }
  flush();
}

}  // namespace

size_t DistributedPrecompute::Result::MaxMachineBytes() const {
  size_t max = 0;
  for (const auto& store : stores) {
    max = std::max(max, store.TotalSerializedBytes());
  }
  return max;
}

size_t DistributedPrecompute::Result::TotalBytes() const {
  size_t total = 0;
  for (const auto& store : stores) total += store.TotalSerializedBytes();
  return total;
}

DistributedPrecompute::Result DistributedPrecompute::Run(
    const Graph& graph, Hierarchy hierarchy, const HgpaOptions& options,
    const DistPrecomputeOptions& dist) {
  const size_t num_machines = dist.num_machines;
  DPPR_CHECK_GE(num_machines, 1u);

  Result result;
  result.graph = &graph;
  result.placement = Placement(
      std::make_shared<const Hierarchy>(std::move(hierarchy)), num_machines);
  result.options = options;
  result.stores = MakeMachineStores(dist.storage, num_machines);
  result.ledger = MachineTimeLedger(num_machines);

  const Placement& placement = result.placement;
  const Hierarchy& h = placement.hierarchy();
  SimCluster cluster(num_machines, dist.network, dist.sequential,
                     dist.transport);

  // Superstep 1: leaf local PPVs. The leaf packing makes every leaf's home
  // also the owner of all its nodes, so there is nothing to shuffle: machine
  // m's payload streams record by record into machine m's store (straight to
  // its spill file under the disk backend — the coordinator never
  // materializes a machine's index in RAM), and each record's compute time
  // is charged to that machine's offline ledger. The coordinator-lane spans
  // here and below name each superstep, so a DPPR_TRACE of an offline run
  // reads as leaf/shuffle phases over the per-machine cluster.machine spans.
  {
    obs::TraceSpan span(obs::kCoordinatorLane, "precompute.leaf_superstep");
    cluster.RunRound(
        [&](size_t machine) {
          ByteWriter writer;
          for (SubgraphId leaf : placement.LeavesOn(machine)) {
            const HierarchySubgraph& sub = h.subgraph(leaf);
            LocalGraph lg = LocalGraph::Induce(graph, sub.nodes);
            for (NodeId u : sub.nodes) {
              WallTimer timer;
              SparseVector vec = ComputeLeafVector(lg, u, options);
              AppendRecord(writer, VectorKind::kOwnVector, leaf, u,
                           timer.ElapsedSeconds(), std::move(vec));
            }
          }
          return writer.Release();
        },
        [&](SimCluster::RoundResult& round) {
          for (size_t m = 0; m < num_machines; ++m) {
            ByteReader reader(round.payloads[m]);
            while (!reader.AtEnd()) {
              result.ledger.Add(m, result.stores[m].IngestFrom(reader));
            }
            Free(round.payloads[m]);
          }
        },
        &result.offline);
    for (size_t m = 0; m < num_machines; ++m) {
      result.induces += placement.LeavesOn(m).size();
    }
  }

  // Per hierarchy level, deepest first. Levels whose subgraphs have no hubs
  // cost nothing and are skipped entirely rather than billed as empty rounds.
  std::vector<uint32_t> hub_levels;
  for (const auto& sub : h.subgraphs()) {
    if (!sub.hubs.empty()) hub_levels.push_back(sub.level);
  }
  std::sort(hub_levels.begin(), hub_levels.end(), std::greater<>());
  hub_levels.erase(std::unique(hub_levels.begin(), hub_levels.end()),
                   hub_levels.end());

  const bool skeleton_in_edges = PrecomputeNeedsInEdges(options);
  for (uint32_t level : hub_levels) {
    // Per-machine tallies written only from each machine's own slot, so the
    // parallel scheduler never races them; folded into LevelStats after the
    // round's barrier. LevelStats, `induces` and the offline MultiRoundStats
    // are the run's one record of what it induced and shuffled; no registry
    // series copies them.
    std::vector<size_t> induces_m(num_machines, 0);
    std::vector<size_t> local_records_m(num_machines, 0);
    std::vector<size_t> local_bytes_m(num_machines, 0);
    std::vector<size_t> shuffled_records_m(num_machines, 0);
    std::vector<size_t> shuffled_bytes_m(num_machines, 0);

    // One shuffle superstep: each machine induces its *home* subgraphs at
    // this level exactly once, computes the skeleton column and hub partial
    // for every hub of the subgraph, and routes each record to the hub's
    // Eq. 7 owner — owner == home stays in the self-addressed slot (never
    // crosses the network), everything else rides the exchange. The receive
    // side ingests (dst, src) in index order, so store contents are
    // independent of task scheduling, and transposes each owner's columns
    // into its row block as part of the ingest (coordinator time).
    obs::TraceSpan span(obs::kCoordinatorLane, "precompute.shuffle_superstep");
    span.Arg("level", level);
    cluster.RunExchange(
        [&](size_t machine) {
          std::vector<ByteWriter> outbox(num_machines);
          for (const auto& sub : h.subgraphs()) {
            if (sub.level != level || sub.hubs.empty()) continue;
            if (placement.Home(sub.id) != machine) continue;
            LocalGraph lg =
                LocalGraph::Induce(graph, sub.nodes, skeleton_in_edges);
            ++induces_m[machine];
            // ComputeHubPartial's forward push reads only out-adjacency, so
            // sharing the (possibly in-edge-bearing) skeleton induce is
            // bit-safe.
            const std::vector<NodeId> local_hubs = LocalizeHubs(lg, sub);
            for (NodeId hub : sub.hubs) {
              const size_t dst = placement.OwnMachine(hub);
              size_t bytes = 0;
              {
                WallTimer timer;
                SparseVector vec = ComputeSkeletonColumn(lg, hub, options);
                bytes += AppendRecord(outbox[dst], VectorKind::kSkeletonColumn,
                                      sub.id, hub, timer.ElapsedSeconds(),
                                      std::move(vec));
              }
              {
                WallTimer timer;
                SparseVector vec =
                    ComputeHubPartial(lg, sub, local_hubs, hub, options);
                bytes += AppendRecord(outbox[dst], VectorKind::kHubPartial,
                                      sub.id, hub, timer.ElapsedSeconds(),
                                      std::move(vec));
              }
              if (dst == machine) {
                local_records_m[machine] += 2;
                local_bytes_m[machine] += bytes;
              } else {
                shuffled_records_m[machine] += 2;
                shuffled_bytes_m[machine] += bytes;
              }
            }
          }
          std::vector<std::vector<uint8_t>> payloads;
          payloads.reserve(num_machines);
          for (ByteWriter& writer : outbox) payloads.push_back(writer.Release());
          return payloads;
        },
        [&](SimCluster::ExchangeResult& exchanged) {
          for (size_t dst = 0; dst < num_machines; ++dst) {
            for (size_t src = 0; src < num_machines; ++src) {
              std::vector<uint8_t>& inbox = exchanged.inboxes[dst][src];
              ByteReader reader(inbox);
              IngestLevelInbox(placement, dst, reader, result.stores[dst],
                               result.ledger);
              Free(inbox);
            }
          }
        },
        &result.offline);

    Result::LevelStats level_stats;
    level_stats.level = level;
    level_stats.induces = Sum(induces_m);
    level_stats.local_records = Sum(local_records_m);
    level_stats.local_bytes = Sum(local_bytes_m);
    level_stats.shuffled_records = Sum(shuffled_records_m);
    level_stats.shuffled_bytes = Sum(shuffled_bytes_m);
    result.induces += level_stats.induces;
    result.levels.push_back(level_stats);
  }

  return result;
}

DistributedPrecompute::Result DistributedPrecompute::RunHgpa(
    const Graph& graph, const HgpaOptions& options,
    const DistPrecomputeOptions& dist) {
  return Run(graph, Hierarchy::Build(graph, options.hierarchy), options, dist);
}

DistributedPrecompute::Result DistributedPrecompute::RunGpa(
    const Graph& graph, uint32_t num_subgraphs, const HgpaOptions& options,
    const DistPrecomputeOptions& dist) {
  Hierarchy flat =
      Hierarchy::BuildFlat(graph, num_subgraphs, options.hierarchy.partition);
  return Run(graph, std::move(flat), options, dist);
}

}  // namespace dppr
