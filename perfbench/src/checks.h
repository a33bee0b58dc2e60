// Output checks. They run outside the timed region; any failure makes
// the run report "correct": false and exit non-zero.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/iama.h"
#include "core/incremental_optimizer.h"
#include "service/optimizer_service.h"

namespace perfbench {

// Collects failed checks by description.
class CheckLog {
 public:
  // Records `what` as failed unless `ok`; returns `ok`.
  bool Expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  int checks() const { return checks_; }

 private:
  int checks_ = 0;
  std::vector<std::string> failures_;
};

// Order-insensitive digest of a frontier's exact content, loadgen's
// FrontierDigest scheme: each plan renders to hex cost bits + order tag +
// resolution, rows are sorted, and the concatenation is FNV-1a hashed.
uint64_t FrontierDigest(const moqo::FrontierSnapshot& frontier);

// The final frontier of `query` run alone: a serial IamaSession with no
// fragment store, stepped through the request's schedule under the
// service's schema, cost parameters and operator options. The run is a
// pure refinement series, so Lemma 6 must hold on it with zero stale
// pairs; that and PlansMatchArena are recorded in `checks`.
moqo::FrontierSnapshot SerialFinalFrontier(const moqo::Query& query,
                                           const moqo::Catalog& catalog,
                                           const moqo::ServiceOptions& options,
                                           const moqo::IamaOptions& iama,
                                           CheckLog* checks);

// The serving bit-identity check: `served` (a service's final frontier
// for `query`) must have the digest of SerialFinalFrontier's. Records
// the comparison, and the reference's own checks, in `checks`.
bool MatchesSerialReference(const moqo::Query& query,
                            const moqo::Catalog& catalog,
                            const moqo::ServiceOptions& options,
                            const moqo::FrontierSnapshot& served,
                            CheckLog* checks);

// True when every plan of `snapshot` lies within its bounds.
bool RespectsBounds(const moqo::FrontierSnapshot& snapshot);

// Lemma 5's bookkeeping: every generated plan is in the arena exactly
// once. (Zero stale pairs, Lemma 6's counter form, holds only for pure
// refinement series; once bounds change, IsFresh rejecting stale pairs
// is how the optimizer keeps each pair generated at most once.)
bool PlansMatchArena(const moqo::IncrementalOptimizer& optimizer);

// True when `frontier` (the final, unbounded, finest-resolution result)
// covers the one-shot baseline's frontier for the same plan space within
// α_T^|Q|.
bool CoversOneShot(const moqo::PlanFactory& factory,
                   const moqo::ResolutionSchedule& schedule,
                   const std::vector<moqo::CellIndex::Entry>& frontier);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
