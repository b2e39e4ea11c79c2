#include "dppr/core/placement.h"

#include <algorithm>
#include <utility>

namespace dppr {

Placement::Placement(std::shared_ptr<const Hierarchy> hierarchy,
                     size_t num_machines)
    : hierarchy_(std::move(hierarchy)), num_machines_(num_machines) {
  DPPR_CHECK(hierarchy_ != nullptr);
  DPPR_CHECK_GE(num_machines, 1u);
  const Hierarchy& h = *hierarchy_;
  // Every block id must fit the key's subgraph field; checked here, before
  // any per-machine table is sized, so Block only range-checks its inputs.
  DPPR_CHECK_LE(uint64_t{h.num_subgraphs()} * num_machines, uint64_t{1} << 30);
  hubs_on_.resize(num_machines);
  leaves_on_.resize(num_machines);
  own_machine_.assign(h.num_nodes(), 0);
  replicated_.assign(h.num_subgraphs() * num_machines, 0);

  // Eq. 7: split each subgraph's hub set evenly over machines.
  for (const auto& sub : h.subgraphs()) {
    for (size_t rank = 0; rank < sub.hubs.size(); ++rank) {
      const size_t owner = Owner(sub.id, rank);
      const NodeId hub = sub.hubs[rank];
      hubs_on_[owner][sub.id].push_back(hub);
      own_machine_[hub] = owner;  // a hub's own vector is its partial
    }
  }

  // Larger-first, lowest-machine / lowest-id tie breaks: the packing below
  // must be identical on every run (home assignments feed byte ledgers that
  // equivalence tests compare bit for bit).
  auto by_size_desc = [&](SubgraphId a, SubgraphId b) {
    const size_t sa = h.subgraph(a).nodes.size();
    const size_t sb = h.subgraph(b).nodes.size();
    if (sa != sb) return sa > sb;
    return a < b;
  };
  auto least_loaded = [](const std::vector<size_t>& load) {
    return static_cast<size_t>(std::min_element(load.begin(), load.end()) -
                               load.begin());
  };

  // Leaf subgraphs: greedy least-loaded by node count, larger leaves first.
  // The packing machine is also the leaf's home: it is the one machine that
  // holds the leaf's data after the offline phase.
  home_.assign(h.num_subgraphs(), 0);
  std::vector<SubgraphId> leaves = h.leaves();
  std::sort(leaves.begin(), leaves.end(), by_size_desc);
  std::vector<size_t> load(num_machines, 0);
  for (SubgraphId leaf : leaves) {
    const size_t machine = least_loaded(load);
    const auto& sub = h.subgraph(leaf);
    load[machine] += sub.nodes.size();
    leaves_on_[machine].push_back(leaf);
    home_[leaf] = machine;
    for (NodeId u : sub.nodes) own_machine_[u] = machine;
  }

  // Internal subgraphs (the hub compute sites): their nodes span many leaves
  // on many machines, so no machine is "where the data lives"; continue the
  // same greedy least-loaded packing from the leaf loads.
  std::vector<SubgraphId> internal;
  for (const auto& sub : h.subgraphs()) {
    if (!sub.children.empty()) internal.push_back(sub.id);
  }
  std::sort(internal.begin(), internal.end(), by_size_desc);
  for (SubgraphId id : internal) {
    const size_t machine = least_loaded(load);
    load[machine] += h.subgraph(id).nodes.size();
    home_[id] = machine;
  }
}

void Placement::MarkReplicated(SubgraphId sub, size_t owner) {
  uint8_t& marked = replicated_[Block(sub, owner)];
  DPPR_CHECK(marked == 0);
  marked = 1;
  num_replicated_hubs_ += OwnedHubs(sub, owner).size();
}

}  // namespace dppr
