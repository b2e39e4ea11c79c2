#include "dppr/core/routing.h"

#include <algorithm>

#include "dppr/common/macros.h"
#include "dppr/core/hgpa.h"

namespace dppr {

QueryRouter::QueryRouter(const HgpaIndex& index, RoutingMode mode)
    : hierarchy_(index.shared_hierarchy()),
      mode_(mode),
      num_machines_(index.num_machines()),
      own_machine_(index.own_machine()) {
  sub_contributors_.resize(hierarchy_->num_subgraphs());
  for (size_t m = 0; m < num_machines_; ++m) {
    for (const auto& [sub, hubs] : index.hubs_on_machine(m)) {
      bool absorbable = true;
      for (NodeId hub : hubs) {
        if (!index.hub_replicated(sub, hub)) {
          absorbable = false;
          break;
        }
      }
      sub_contributors_[sub].push_back(
          {static_cast<uint32_t>(m), static_cast<uint8_t>(absorbable)});
    }
  }
  for (auto& contributors : sub_contributors_) {
    std::sort(contributors.begin(), contributors.end(),
              [](const SubContributor& a, const SubContributor& b) {
                return a.machine < b.machine;
              });
  }
  own_term_replicated_.assign(hierarchy_->num_nodes(), 0);
  for (NodeId u = 0; u < hierarchy_->num_nodes(); ++u) {
    // A hub's own term is its (unadjusted) partial vector — replicated iff
    // its hub pair is. Leaf own vectors only ever live on their own machine.
    if (hierarchy_->is_hub(u) &&
        index.hub_replicated(hierarchy_->final_subgraph(u), u)) {
      own_term_replicated_[u] = 1;
    }
  }
}

QueryRouter::Plan QueryRouter::Route(std::span<const NodeId> sources) const {
  if (mode_ == RoutingMode::kBroadcast) {
    // The full plan: every machine runs, each as its own single owner.
    Plan plan;
    if (sources.empty()) return plan;
    for (size_t m = 0; m < num_machines_; ++m) {
      plan.machines.push_back(m);
      plan.owners.push_back({m});
    }
    plan.contributors = num_machines_;
    return plan;
  }
  // Per machine: 0 = no vector of this query, 1 = contributes but every
  // needed vector is replicated (fold can run anywhere), 2 = must run.
  std::vector<uint8_t> state(num_machines_, 0);
  for (NodeId u : sources) {
    DPPR_CHECK_LT(u, own_machine_.size());
    for (SubgraphId sub : hierarchy_->Chain(u)) {
      for (const SubContributor& c : sub_contributors_[sub]) {
        const uint8_t need = c.absorbable ? 1 : 2;
        if (state[c.machine] < need) state[c.machine] = need;
      }
    }
    const size_t own = own_machine_[u];
    const uint8_t need = own_term_replicated_[u] ? 1 : 2;
    if (state[own] < need) state[own] = need;
  }

  Plan plan;
  std::vector<size_t> absorbable;
  for (size_t m = 0; m < num_machines_; ++m) {
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
    anchor = own_machine_[sources.front()];
    plan.machines.push_back(anchor);
  } else {
    const size_t preferred = own_machine_[sources.front()];
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
