#include "baseline/one_shot.h"

#include "pareto/dominance.h"

namespace moqo {
namespace {

// Inserts `id` into the per-set result list unless an existing plan with
// the same interesting-order tag α-dominates it; evicts same-order plans
// it (exactly) dominates.
void InsertPruned(const PlanArena& arena, std::vector<PlanId>& set,
                  PlanId id, const CostVector& cost, uint8_t order,
                  double alpha) {
  const CostVector scaled = cost.Scaled(alpha);
  for (PlanId other : set) {
    const PlanNode node = arena.at(other);
    if (node.order == order && node.cost.Dominates(scaled)) return;
  }
  for (size_t i = 0; i < set.size();) {
    const PlanNode node = arena.at(set[i]);
    if (node.order == order && cost.Dominates(node.cost)) {
      set[i] = set.back();
      set.pop_back();
    } else {
      ++i;
    }
  }
  set.push_back(id);
}

}  // namespace

OneShotResult RunOneShot(const PlanFactory& factory, double alpha,
                         const CostVector& bounds) {
  MOQO_CHECK(alpha >= 1.0);
  const int n = factory.NumTables();
  const JoinGraph& graph = factory.graph();

  OneShotResult result;
  result.plans_by_mask.assign(size_t{1} << n, {});

  // Scan plans.
  for (int t = 0; t < n; ++t) {
    const TableSet q = TableSet::Singleton(t);
    std::vector<PlanId>& set = result.plans_by_mask[q.mask()];
    factory.ForEachScan(t, [&](const OperatorDesc& op, const OpCost& oc) {
      ++result.plans_generated;
      if (!RespectsBounds(oc.cost, bounds)) return;
      const PlanId id =
          result.arena.AddScan(q, op, oc.cost, oc.output_rows, oc.order);
      InsertPruned(result.arena, set, id, oc.cost, oc.order, alpha);
    });
  }

  // Joins, bottom-up over connected subsets in increasing cardinality, so
  // every split's sub-plan lists are final before q consumes them.
  const uint32_t full = TableSet::Full(n).mask();
  std::vector<std::vector<TableSet>> by_size(static_cast<size_t>(n) + 1);
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const TableSet q(mask);
    if (q.Count() >= 2 && graph.IsConnected(q)) {
      by_size[static_cast<size_t>(q.Count())].push_back(q);
    }
  }

  for (const std::vector<TableSet>& level : by_size) {
    for (const TableSet q : level) {
      std::vector<PlanId>& set = result.plans_by_mask[q.mask()];
      for (SubsetIter split(q); !split.Done(); split.Next()) {
        const TableSet q1 = split.Subset();
        const TableSet q2 = split.Complement();
        if (!factory.CanCombine(q1, q2)) continue;
        const std::vector<PlanId>& p1 = result.plans_by_mask[q1.mask()];
        const std::vector<PlanId>& p2 = result.plans_by_mask[q2.mask()];
        for (PlanId a : p1) {
          for (PlanId b : p2) {
            factory.ForEachJoin(
                result.arena.at(a), result.arena.at(b),
                [&](const OperatorDesc& op, const OpCost& oc) {
                  ++result.plans_generated;
                  if (!RespectsBounds(oc.cost, bounds)) return;
                  const PlanId id = result.arena.AddJoin(
                      q, a, b, op, oc.cost, oc.output_rows, oc.order);
                  InsertPruned(result.arena, set, id, oc.cost, oc.order,
                               alpha);
                });
          }
        }
      }
    }
  }
  return result;
}

}  // namespace moqo
