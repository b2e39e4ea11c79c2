#ifndef DPPR_CORE_HGPA_H_
#define DPPR_CORE_HGPA_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "dppr/core/dist_precompute.h"
#include "dppr/core/placement.h"
#include "dppr/core/precompute.h"
#include "dppr/core/routing.h"
#include "dppr/dist/cluster.h"
#include "dppr/ppr/sparse_vector.h"
#include "dppr/store/ppv_store.h"

namespace dppr {

/// Hot-shard replication policy. A (subgraph, owner) block — the owner's hub
/// partials of the subgraph plus its skeleton rows — is read-only after
/// precompute and sits on the fold path of every query chain through the
/// subgraph. Copying the hottest blocks into every machine's store lets the
/// routed query path absorb those owners' folds onto a machine that must run
/// anyway, shrinking most routing sets toward the source's own-vector
/// machine. A block is replicated whole (the fold needs the query's row and
/// the partials it names).
struct ReplicationOptions {
  /// Per-machine byte budget for replicated blocks (serialized bytes, the
  /// same ledger unit as MaxMachineBytes). 0 disables replication — the
  /// default, so byte-ledger equivalence across backends is unaffected
  /// unless explicitly asked for.
  size_t budget_bytes = 0;
};

/// A precomputation distributed onto n simulated machines under one shared
/// Placement: the paper's hub-node partitioning (Eq. 7) splits every
/// subgraph's hub set evenly across machines, and leaf subgraphs are packed
/// onto machines by greedy least-loaded assignment. Each machine's store
/// owns its hubs' partials, its leaves' own vectors, and one skeleton row
/// block per (subgraph, owner) (core/skeleton_rows.h). The same type serves
/// GPA (flat hierarchy) and HGPA (deep hierarchy), built either from a
/// centralized precomputation or from a distributed offline run; either way
/// the placement is the index's only record of where anything lives.
class HgpaIndex {
 public:
  /// Places `precomputation` onto `num_machines` machines: each store gets
  /// its own copy of its partials and own vectors, and each (subgraph,
  /// owner) block's skeleton columns transposed into rows, so every
  /// redistribution pays one pass over the skeleton nonzeros. The index
  /// keeps a copy of the hierarchy, not the precomputation. Retained as the
  /// bit-equality oracle for the distributed offline path. `storage` picks
  /// each machine store's backend (kDisk spills every placed vector to
  /// per-machine spill files).
  static HgpaIndex Distribute(
      std::shared_ptr<const HgpaPrecomputation> precomputation,
      size_t num_machines, const StorageOptions& storage = {},
      const ReplicationOptions& replication = {});

  /// Adopts the stores and the placement a DistributedPrecompute run
  /// produced. The offline ledger carries the run's per-machine compute
  /// charges.
  static HgpaIndex FromDistributed(
      DistributedPrecompute::Result result,
      const ReplicationOptions& replication = {});

  const Graph& graph() const { return *graph_; }
  const Hierarchy& hierarchy() const { return placement_->hierarchy(); }
  const HgpaOptions& options() const { return options_; }
  size_t num_machines() const { return stores_.size(); }

  const PpvStore& store(size_t machine) const { return stores_[machine]; }

  /// Where every vector lives, replicated blocks included. Shared, so a
  /// router stays valid when the engine that built it is moved.
  const std::shared_ptr<const Placement>& placement() const {
    return placement_;
  }

  /// Placement::HubsOn; kept because perfbench/dppr_bench.cc calls it.
  const std::unordered_map<SubgraphId, std::vector<NodeId>>& hubs_on_machine(
      size_t machine) const {
    return placement_->HubsOn(machine);
  }
  /// Placement::OwnMachine; kept because perfbench/dppr_bench.cc calls it.
  size_t own_vector_machine(NodeId u) const {
    return placement_->OwnMachine(u);
  }

  /// Hubs in replicated blocks, and the serialized bytes each machine spends
  /// holding the other machines' replicated blocks (≤ the budget).
  size_t num_replicated_hubs() const {
    return placement_->num_replicated_hubs();
  }
  size_t replica_bytes_per_machine() const { return replica_bytes_; }

  /// Per-machine offline time: each vector's compute time charged to the
  /// machine that stores it (§5: "each machine only needs to handle the
  /// nodes assigned to it").
  const MachineTimeLedger& offline_ledger() const { return offline_; }

  /// Paper's space metric: max serialized bytes over machines.
  size_t MaxMachineBytes() const;
  size_t TotalBytes() const;
  std::vector<size_t> BytesPerMachine() const;

  /// Serialized bytes currently resident in RAM across machine stores.
  /// Lookups are counted per round only, in QueryMetrics::storage.
  size_t ResidentBytesTotal() const;

 private:
  /// Copies the hottest (subgraph, owner) blocks — partials plus row block,
  /// ranked by chain reach per byte, deterministic tie-break — whole into
  /// every other machine's store until the per-machine budget is full, and
  /// marks each copied block Replicated in `placement` (before the index
  /// shares it); oversized blocks are skipped and packing continues.
  void ReplicateHotShards(Placement& placement,
                          const ReplicationOptions& replication);

  const Graph* graph_ = nullptr;
  std::shared_ptr<const Placement> placement_;
  HgpaOptions options_;
  std::vector<PpvStore> stores_;
  MachineTimeLedger offline_{1};
  /// Serialized bytes of replicas each non-owner machine holds.
  size_t replica_bytes_ = 0;
};

/// What one query's communication round cost: the paper's experiment
/// statistics plus the routed plan and the store counters it charged.
struct QueryMetrics {
  /// max over machines of the measured per-machine compute time.
  double max_machine_seconds = 0.0;
  double coordinator_seconds = 0.0;
  /// End-to-end latency under the network model (the paper's "runtime").
  double simulated_seconds = 0.0;
  /// Bytes received by the coordinator (the paper's communication cost):
  /// one message per machine that ran, holding its owner fragments.
  CommStats comm;
  /// Machines that actually ran for this query: the plan's machine count
  /// (num_machines under the full broadcast plan; 0 when the round was
  /// skipped entirely, e.g. a result-cache hit or an all-zero preference
  /// set).
  size_t machines_contacted = 0;
  /// Transport round id of the round that answered this query (0 when no
  /// round ran).
  uint64_t round_id = 0;
  /// The machines that ran, ascending. Empty when no round ran.
  std::vector<size_t> machines;
  /// Full-cluster-width measured per-machine compute seconds for the round
  /// (zeros for machines that did not participate). Empty when no round ran.
  std::vector<double> machine_seconds;
  /// Store counters the round's machine tasks charged, summed over machines.
  /// Counted per task through StorageStatsScope, so rounds running at the
  /// same time on the same stores never see each other's hits and reads.
  /// The only count of a query's lookups: stores keep no totals, so a query
  /// run without a metrics pointer is counted nowhere.
  StorageStats storage;

  /// Compute-only runtime (machines overlap their sends in a real cluster,
  /// and the paper observes network transfer does not dominate; Appendix B).
  double ComputeSeconds() const {
    return max_machine_seconds + coordinator_seconds;
  }
};

/// Distributed PPV construction (Algorithm 1 + Eq. 6/7): each machine folds
/// the contributions of its hubs along the query node's subgraph chain into
/// one vector and ships it to the coordinator exactly once; the coordinator
/// sums the replies in owner order. Every query runs exactly one round, and
/// a QueryRouter plan picks which machines run it (see RoutingMode).
///
/// All query methods are const and safe to call from many threads at once on
/// one shared engine (every round's state is call-local; the underlying
/// SimCluster and ThreadPool support concurrent rounds). Results and each
/// query's coordinator traffic are deterministic regardless of interleaving.
/// set_machine_timer is configuration-time only.
class HgpaQueryEngine {
 public:
  /// Takes the index by value, which keeps the engine safe to build from
  /// temporaries; move it in where the caller is done with it, because a
  /// copy deep-copies every vector of an in-memory store. A disk store's
  /// copy shares its spill files and starts with a cold cache; the
  /// placement is shared either way. `transport` picks the message layer the
  /// per-query fragment rounds travel over (kTcp → real localhost sockets);
  /// answers and fragment byte accounting are bit-identical across backends.
  /// `routing` picks the plan each round runs (default route — only
  /// contributing shards run; broadcast is the full plan tests compare
  /// against).
  explicit HgpaQueryEngine(HgpaIndex index, NetworkModel network = {},
                           TransportOptions transport = {},
                           RoutingOptions routing = RoutingOptions{});

  RoutingMode routing_mode() const { return router_->mode(); }
  /// The routing table every round is planned with.
  const QueryRouter* router() const { return router_.get(); }

  /// Switches how machine compute time is measured (see SimCluster::TimerKind;
  /// the serving layer uses kThreadCpu so concurrent rounds don't inflate
  /// each other's machine_seconds). Call before serving traffic.
  void set_machine_timer(SimCluster::TimerKind timer) {
    cluster_.set_timer(timer);
  }

  /// Exact PPV of `query` (to the index tolerance), with optional metrics.
  SparseVector Query(NodeId query, QueryMetrics* metrics = nullptr) const;

  /// Dense convenience wrapper (metrics identical to Query).
  std::vector<double> QueryDense(NodeId query, QueryMetrics* metrics = nullptr) const;

  /// One entry of a preference set P: a node and its teleport weight.
  struct Preference {
    NodeId node;
    double weight;
  };

  /// Exact PPV of an arbitrary preference set (the paper's general problem
  /// statement; §1 Eq. 1). By the Jeh–Widom linearity theorem the PPV of P is
  /// the weight-combination of single-node PPVs; each machine folds all of
  /// P's chains locally, so the query still costs one message per machine.
  /// Weights should sum to 1 for a probability vector (not enforced).
  SparseVector QueryPreferenceSet(std::span<const Preference> preferences,
                                  QueryMetrics* metrics = nullptr) const;

  const HgpaIndex& index() const { return index_; }

 private:
  /// `machine` computes one fragment per owner it covers (its own plus any
  /// absorbed replicated owners), in `owners` order.
  std::vector<uint8_t> MachineTask(size_t machine,
                                   std::span<const Preference> preferences,
                                   std::span<const size_t> owners) const;

  /// Folds owner `owner`'s share of the query — for every preference chain
  /// subgraph, the query's row of block (subgraph, owner) and the partials
  /// it names, plus the owner's own terms — reading vectors from `machine`'s
  /// store. Usually owner == machine; a routed plan may pass a replicated
  /// owner absorbed onto `machine`. The fold order is identical either way,
  /// which is what keeps routed results bit-identical.
  void AccumulateOwner(size_t machine, size_t owner,
                       std::span<const Preference> preferences,
                       DenseAccumulator& acc) const;

  /// Routes the preference set, runs one round on the plan's machines, and
  /// reduces the owner fragments in owner order.
  SparseVector RunDistributed(std::span<const Preference> preferences,
                              QueryMetrics* metrics) const;

  HgpaIndex index_;
  SimCluster cluster_;
  /// Never null. Shared (and self-contained) so engine copies and moves stay
  /// cheap and safe.
  std::shared_ptr<const QueryRouter> router_;
};

}  // namespace dppr

#endif  // DPPR_CORE_HGPA_H_
