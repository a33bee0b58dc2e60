// One-shot MOQO approximation scheme (baseline, paper §6.1).
//
// Re-implements the non-iterative approximation scheme of Trummer & Koch,
// SIGMOD 2014, which the paper uses as the "one-shot" baseline: a single
// dynamic-programming pass over table subsets that prunes with a fixed
// precision factor α and produces the result plan set at the highest
// resolution directly. It is neither anytime (one result at the very end)
// nor incremental (every invocation starts from scratch).
//
// Unlike IAMA's Prune, this baseline keeps result sets as small as
// possible: plans whose cost exceeds the bounds are discarded outright
// (monotone cost aggregation makes that safe within one invocation), and
// newly inserted plans evict result plans they dominate.
#ifndef MOQO_BASELINE_ONE_SHOT_H_
#define MOQO_BASELINE_ONE_SHOT_H_

#include <vector>

#include "cost/cost_vector.h"
#include "plan/arena.h"
#include "plan/cost_model.h"
#include "util/table_set.h"

namespace moqo {

struct OneShotResult {
  // All generated plans (owned here; ids index into this arena).
  PlanArena arena;
  // Result plan ids per table-set mask (index = mask).
  std::vector<std::vector<PlanId>> plans_by_mask;
  // Number of plans generated in total (work measure).
  uint64_t plans_generated = 0;

  // Result plans for the full query.
  const std::vector<PlanId>& FinalPlans(int num_tables) const {
    return plans_by_mask[TableSet::Full(num_tables).mask()];
  }
};

// Runs the one-shot DP with precision factor `alpha` (>= 1; 1 = exact
// dominance pruning) and cost bounds `bounds`.
OneShotResult RunOneShot(const PlanFactory& factory, double alpha,
                         const CostVector& bounds);

}  // namespace moqo

#endif  // MOQO_BASELINE_ONE_SHOT_H_
