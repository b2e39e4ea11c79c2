#include "dppr/core/routing.h"

#include <algorithm>

#include "dppr/common/macros.h"

namespace dppr {

QueryRouter::Plan QueryRouter::Route(std::span<const NodeId> sources) const {
  const Placement& placement = *placement_;
  const size_t n = placement.num_machines();
  if (mode_ == RoutingMode::kBroadcast) {
    // The full plan: every machine runs, each as its own single owner.
    Plan plan;
    if (sources.empty()) return plan;
    for (size_t m = 0; m < n; ++m) {
      plan.machines.push_back(m);
      plan.owners.push_back({m});
    }
    plan.contributors = n;
    return plan;
  }
  const Hierarchy& hierarchy = placement.hierarchy();
  // Per machine: 0 = no vector of this query, 1 = contributes but every
  // needed vector is replicated (fold can run anywhere), 2 = must run.
  std::vector<uint8_t> state(n, 0);
  auto need = [&](size_t machine, bool replicated) {
    const uint8_t level = replicated ? 1 : 2;
    if (state[machine] < level) state[machine] = level;
  };
  for (NodeId u : sources) {
    DPPR_CHECK_LT(u, hierarchy.num_nodes());
    for (SubgraphId sub : hierarchy.Chain(u)) {
      // Ranks 0 .. k-1 have distinct owners, and every later rank repeats
      // one of them.
      const size_t k = std::min(hierarchy.subgraph(sub).hubs.size(), n);
      size_t owner = placement.Owner(sub, 0);
      for (size_t rank = 0; rank < k; ++rank) {
        need(owner, placement.Replicated(sub, owner));
        if (++owner == n) owner = 0;
      }
    }
    // A hub's own term is its partial, in its block; leaf own vectors are
    // never replicated.
    const size_t own = placement.OwnMachine(u);
    need(own, hierarchy.is_hub(u) &&
                  placement.Replicated(hierarchy.final_subgraph(u), own));
  }

  Plan plan;
  std::vector<size_t> absorbable;
  for (size_t m = 0; m < n; ++m) {
    if (state[m] == 2) {
      plan.machines.push_back(m);
    } else if (state[m] == 1) {
      absorbable.push_back(m);
    }
  }
  plan.contributors = plan.machines.size() + absorbable.size();
  if (plan.contributors == 0) return plan;

  // Absorbed owners fold on the anchor machine (from its replicas) but ship
  // as separate per-owner fragments, so the coordinator's owner-order
  // reduce — and therefore the floating-point sum — matches broadcast
  // exactly. Anchor preference: the first source's own-vector machine when
  // it must run anyway (its store is warm for this query), else the lowest
  // must-run machine, else — everything replicated — the own-vector machine
  // alone serves the whole query.
  size_t anchor;
  if (plan.machines.empty()) {
    anchor = placement.OwnMachine(sources.front());
    plan.machines.push_back(anchor);
  } else {
    const size_t preferred = placement.OwnMachine(sources.front());
    anchor = state[preferred] == 2 ? preferred : plan.machines.front();
  }
  plan.owners.resize(plan.machines.size());
  size_t anchor_slot = 0;
  for (size_t i = 0; i < plan.machines.size(); ++i) {
    plan.owners[i].push_back(plan.machines[i]);
    if (plan.machines[i] == anchor) anchor_slot = i;
  }
  if (!absorbable.empty()) {
    std::vector<size_t>& anchor_owners = plan.owners[anchor_slot];
    for (size_t m : absorbable) {
      if (m != anchor) anchor_owners.push_back(m);
    }
    std::sort(anchor_owners.begin(), anchor_owners.end());
  }
  return plan;
}

}  // namespace dppr
