// Memoryless anytime MOQO baseline (paper §6.1).
//
// Produces exactly the same sequence of result plan sets as IAMA — one per
// resolution level, with precision factor α_r — but is non-incremental:
// every invocation re-runs the full one-shot DP from scratch. The paper
// uses it to isolate the benefit of incrementality from the benefit of the
// anytime refinement policy.
#ifndef MOQO_BASELINE_MEMORYLESS_H_
#define MOQO_BASELINE_MEMORYLESS_H_

#include "baseline/one_shot.h"
#include "core/resolution.h"

namespace moqo {

class MemorylessDriver {
 public:
  MemorylessDriver(const PlanFactory& factory, ResolutionSchedule schedule)
      : factory_(factory), schedule_(schedule) {}

  // Runs one invocation for resolution level r (from scratch) and returns
  // its full result. Bounds semantics match IAMA's optimizer invocation.
  OneShotResult RunInvocation(int r, const CostVector& bounds) const {
    return RunOneShot(factory_, schedule_.Alpha(r), bounds);
  }

  const ResolutionSchedule& schedule() const { return schedule_; }

 private:
  const PlanFactory& factory_;
  ResolutionSchedule schedule_;
};

}  // namespace moqo

#endif  // MOQO_BASELINE_MEMORYLESS_H_
