// Query plan representation.
//
// A plan either scans a single table or joins the results of two sub-plans
// (paper §3). Plans are immutable records identified by PlanId and owned by
// a PlanArena; a join plan stores only the ids of its sub-plans plus its
// operator, so each plan takes O(1) space (paper §5.2). The cost vector and
// the effective output cardinality are cached at construction.
//
// PlanNode is the value the arena hands out, not what it stores: the arena
// keeps a 32-byte record of the fields below plus the cost's dims doubles,
// 56 bytes per plan at 3 metrics (PlanArena::BytesPerPlan), where a
// PlanNode with its fixed-capacity CostVector takes 96.
#ifndef MOQO_PLAN_PLAN_H_
#define MOQO_PLAN_PLAN_H_

#include <cstdint>

#include "cost/cost_vector.h"
#include "plan/operators.h"
#include "util/table_set.h"

namespace moqo {

using PlanId = uint32_t;
inline constexpr PlanId kInvalidPlan = static_cast<PlanId>(-1);

struct PlanNode {
  // Tables joined by this (partial) plan.
  TableSet tables;
  // Sub-plans; kInvalidPlan for scan plans.
  PlanId left = kInvalidPlan;
  PlanId right = kInvalidPlan;
  // Physical operator: scan variant for leaves, join variant otherwise.
  OperatorDesc op;
  // Cached multi-objective cost (dimensions follow the session's schema).
  CostVector cost;
  // Estimated output cardinality, after predicates and sampling.
  double output_cardinality = 0.0;
  // Interesting tuple order produced by this plan (paper §4.3): 0 = no
  // particular order; k > 0 = sorted on the key of join predicate k-1.
  uint8_t order = 0;
  // True for opaque leaves materialized from a shared cross-query plan
  // fragment (core/fragment.h): the node stands for a whole sub-join
  // tree whose structure lives in the donor query's (freed) arena; only
  // the cached cost, cardinality, and order are meaningful.
  bool is_fragment = false;

  bool IsScan() const { return left == kInvalidPlan; }
};

}  // namespace moqo

#endif  // MOQO_PLAN_PLAN_H_
