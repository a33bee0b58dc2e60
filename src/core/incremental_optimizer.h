// The incremental multi-objective optimizer (paper §4.2, Algorithm 2).
//
// One IncrementalOptimizer instance holds all state for one query:
//   * the plan arena (all plans ever generated, never discarded),
//   * the result plan sets Res^q and candidate plan sets Cand^q, indexed
//     by cost vector and resolution level (CellIndex),
//   * the IsFresh pair registry.
//
// Each call to Optimize(bounds, resolution) performs one invocation of
// procedure Optimize: phase 1 re-considers candidate plans that match the
// current bounds/resolution; phase 2 generates fresh join plans bottom-up
// over table subsets, combining only sub-plan pairs that were not combined
// before. After the call, Res^q[0..b, 0..r] is an α_r^|q|-approximate
// b-bounded Pareto plan set for every table subset q (Theorems 1 and 2).
#ifndef MOQO_CORE_INCREMENTAL_OPTIMIZER_H_
#define MOQO_CORE_INCREMENTAL_OPTIMIZER_H_

#include <vector>

#include "core/counters.h"
#include "core/fragment.h"
#include "core/fresh.h"
#include "core/resolution.h"
#include "cost/cost_vector.h"
#include "index/cell_index.h"
#include "index/plan_set.h"
#include "plan/arena.h"
#include "plan/cost_model.h"

namespace moqo {

struct OptimizerOptions {
  // Logarithmic cell width of the plan indexes.
  double cell_gamma = 2.0;
  // Track per-plan candidate retrieval counts (Lemma 7 assertions).
  bool track_per_plan_counters = false;
  // Ablation switch (§4.2 design decision): when true, the pruning
  // dominance check consults result plans at ALL resolution levels
  // instead of only levels <= the current one. This trades the
  // per-invocation complexity guarantee for smaller result sets; the
  // bench_prune_design binary quantifies the difference. Note that with
  // this switch the intermediate-resolution guarantee (Theorem 2 for
  // r < rM) no longer holds — only the final resolution's does.
  bool prune_against_all_resolutions = false;
  // Ablation switch: paper-literal candidate parking at resolution r+1
  // instead of skip-ahead parking (see pruning.h). Skip-ahead avoids
  // re-examining strictly dominated plans at every resolution level.
  bool park_next_level_only = false;
  // Prune plans within a batch (per table set and invocation phase) in
  // ascending cost order. Because result plans are never discarded,
  // arrival order determines how many redundant near-duplicates enter the
  // result sets; sorted insertion keeps them close to minimal. The
  // guarantees are order-independent, so this is purely a performance
  // lever (ablated in bench_prune_design).
  bool sorted_pruning = true;
  // Cross-query plan-fragment sharing (docs/FRAGMENT_SHARING.md). When
  // set, the constructor offers every connected table subset with >= 2
  // tables to the provider; on a hit the subset's result set is seeded
  // with the stored frontier and the cell is *sealed* — phase-2
  // enumeration skips it, which is where the cross-query work saving
  // comes from. Seeding preserves bit-identical frontiers versus a cold
  // run as long as the bounds never change; a bounds change automatically
  // unseals every cell and re-enables full enumeration (results stay
  // correct α-approximations, but are no longer bit-identical to a cold
  // run that diverged at the same point). Must outlive the optimizer.
  FragmentProvider* fragment_store = nullptr;
  // Record each cell's chronological result-set insertions so a completed
  // run can publish them back through the serving layer
  // (TakePublishableFragments). Costs one log append per result
  // insertion plus one FragmentPlan of memory per result plan.
  bool fragment_publish = false;
};

class IncrementalOptimizer {
 public:
  // Seeds the scan plans for every query table and prunes them at
  // resolution 0 under `initial_bounds` (Algorithm 1 lines 7-10). The
  // factory must outlive the optimizer.
  IncrementalOptimizer(const PlanFactory& factory,
                       ResolutionSchedule schedule,
                       const CostVector& initial_bounds,
                       OptimizerOptions options = {});

  IncrementalOptimizer(const IncrementalOptimizer&) = delete;
  IncrementalOptimizer& operator=(const IncrementalOptimizer&) = delete;

  // One invocation of procedure Optimize. `resolution` must be in
  // [0, schedule.MaxResolution()].
  void Optimize(const CostVector& bounds, int resolution);

  // Res^Q[0..b, 0..r]: the completed result plans visualized after an
  // invocation (Algorithm 1 line 16).
  std::vector<CellIndex::Entry> ResultPlans(const CostVector& bounds,
                                            int resolution) const;

  // Res^q[0..b, 0..r] for an arbitrary table subset (tests, diagnostics).
  std::vector<CellIndex::Entry> ResultPlansFor(TableSet q,
                                               const CostVector& bounds,
                                               int resolution) const;

  const PlanFactory& factory() const { return factory_; }
  const PlanArena& arena() const { return arena_; }
  const ResolutionSchedule& schedule() const { return schedule_; }
  const Counters& counters() const { return counters_; }
  Counters& mutable_counters() { return counters_; }
  uint32_t invocations_completed() const { return invocation_ - 1; }

  // Total plans currently indexed (result + candidate), for space studies.
  size_t NumResultEntries() const { return res_.TotalSize(); }
  size_t NumCandidateEntries() const { return cand_.TotalSize(); }

  // --- Cross-query fragment sharing (docs/FRAGMENT_SHARING.md) ---

  // One publishable cell: its chronological result insertions, valid for
  // consumers running the same bounds/schedule through resolutions
  // 0..resolution_complete.
  struct PublishableFragment {
    TableSet cell;
    int resolution_complete = 0;
    std::vector<FragmentPlan> plans;
  };

  // Moves out the per-cell insertion logs recorded under
  // options.fragment_publish. Returns an empty vector unless the run so
  // far was publishable: fixed bounds and resolutions stepped
  // 0,1,2,...,R (trailing repeats of R allowed) — exactly the invocation
  // sequence a no-interaction session produces. Sealed (seeded) cells
  // are never re-published; their content already lives in the store.
  std::vector<PublishableFragment> TakePublishableFragments();

  // True when `cell`'s result set was seeded from the fragment provider
  // and phase-2 enumeration is suppressed for it.
  bool IsSealed(TableSet cell) const {
    return !sealed_.empty() && sealed_[cell.mask()] != 0;
  }

  // Re-probes the fragment provider for cells that missed at
  // construction. Admission-time seeding races concurrent publishes: a
  // leader that publishes after this run was admitted (but before its
  // first step) can still be harvested here. Only meaningful before the
  // first Optimize call — a no-op afterwards (seeding into a cell whose
  // enumeration already started would corrupt the replay argument) and
  // without a provider.
  void ReprobeFragments();

 private:
  // A plan awaiting pruning: its sort key, id and interesting-order tag
  // (in what would be padding: 16 B). The cost stays in the arena.
  struct BatchEntry {
    double score = 0.0;
    PlanId id = 0;
    uint8_t order = 0;
  };
  static_assert(sizeof(BatchEntry) == 16, "order must sit in the padding");

  // Orders a batch so that cheap plans are pruned first (see the
  // definition).
  static void SortBatch(const PlanArena& arena,
                        std::vector<BatchEntry>& batch);

  // Runs Prune on every plan of table set q's batch, in batch order.
  void PruneBatch(TableSet q, const std::vector<BatchEntry>& batch,
                  const CostVector& bounds, int resolution);
  // Runs Prune for one plan of table set q against q's result and
  // candidate sets, reading its cost from the arena in place.
  void PrunePlan(TableSet q, CellIndex& res, CellIndex& cand,
                 const BatchEntry& plan, const CostVector& bounds,
                 int resolution);

  // Seeds and seals every connected multi-table cell the fragment
  // provider has a frontier for (constructor tail).
  void SeedFragments(const CostVector& initial_bounds);
  // Bounds changed on an optimizer that consumed fragments: unseal every
  // cell and force-Δ all result entries, so the pairings the sealed
  // cells never enumerated are (re)tried. The fresh-pair registry keeps
  // already-combined pairs from generating twice; the re-enumeration is
  // a one-time cost of diverging a seeded run.
  void UnsealForBoundsChange();

  // Phase 2 (Algorithm 2 lines 13-22): generates fresh join plans
  // bottom-up and prunes each table set's batch before any superset
  // consumes it.
  void Phase2Serial(const CostVector& bounds, int resolution);

  const PlanFactory& factory_;
  ResolutionSchedule schedule_;
  OptimizerOptions options_;
  PlanArena arena_;
  PlanSetTable res_;
  PlanSetTable cand_;
  FreshPairRegistry fresh_;
  Counters counters_;
  // Invocation counter; the constructor's scan seeding belongs to
  // invocation 1, which is also used by the first Optimize call.
  uint32_t invocation_ = 1;
  bool first_optimize_done_ = false;
  // All connected table subsets, grouped by cardinality (precomputed).
  std::vector<std::vector<TableSet>> connected_by_size_;

  // --- Fragment sharing state ---
  // By mask: 1 = cell seeded from the provider, phase 2 skips it. Empty
  // when no provider was given or after UnsealForBoundsChange.
  std::vector<uint8_t> sealed_;
  // By mask: chronological result-set insertions (fragment_publish).
  std::vector<std::vector<FragmentPlan>> publish_log_;
  // Bounds of the previous invocation; a mismatch marks the run diverged
  // (publishing stops, sealed cells unseal).
  CostVector current_bounds_;
  // Resolution of the previous invocation (-1 before the first); the
  // publishable sequence is 0,1,2,...,R with trailing repeats of R.
  int last_resolution_ = -1;
  // False once the invocation history stops matching a fixed-bounds
  // no-interaction run; TakePublishableFragments then returns nothing.
  bool publish_valid_ = true;
};

}  // namespace moqo

#endif  // MOQO_CORE_INCREMENTAL_OPTIMIZER_H_
