#include "core/incremental_optimizer.h"

#include <algorithm>

#include "core/pruning.h"

namespace moqo {

// Orders a batch of plans so that cheap plans are pruned first. The score
// is a positive-weighted sum of the cost components (normalized by the
// batch mean per metric), which is monotone w.r.t. dominance: if a
// dominates b then score(a) <= score(b), so dominating plans enter the
// result set before the plans they suppress. This keeps the append-only
// result sets close to minimal (see OptimizerOptions::sorted_pruning).
void IncrementalOptimizer::SortBatch(const PlanArena& arena,
                                     std::vector<BatchEntry>& batch) {
  if (batch.size() < 2) return;
  const int dims = arena.dims();
  CostVector scale(dims, 0.0);
  for (const BatchEntry& e : batch) {
    const double* cost = arena.cost_data(e.id);
    for (int i = 0; i < dims; ++i) scale[i] += cost[i];
  }
  for (int i = 0; i < dims; ++i) {
    scale[i] = scale[i] > 0.0 ? batch.size() / scale[i] : 0.0;
  }
  for (BatchEntry& e : batch) {
    const double* cost = arena.cost_data(e.id);
    double score = 0.0;
    for (int i = 0; i < dims; ++i) score += cost[i] * scale.at(i);
    e.score = score;
  }
  std::sort(batch.begin(), batch.end(),
            [](const BatchEntry& a, const BatchEntry& b) {
              return a.score < b.score;
            });
}

IncrementalOptimizer::IncrementalOptimizer(const PlanFactory& factory,
                                           ResolutionSchedule schedule,
                                           const CostVector& initial_bounds,
                                           OptimizerOptions options)
    : factory_(factory),
      schedule_(schedule),
      options_(options),
      res_(factory.NumTables(), factory.cost_model().schema().dims(),
           options.cell_gamma),
      cand_(factory.NumTables(), factory.cost_model().schema().dims(),
            options.cell_gamma) {
  counters_.track_per_plan = options_.track_per_plan_counters;

  const int n = factory_.NumTables();
  // Precompute the connected table subsets, grouped by size; the DP in
  // phase 2 only ever touches these.
  connected_by_size_.assign(static_cast<size_t>(n) + 1, {});
  const uint32_t full = TableSet::Full(n).mask();
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const TableSet q(mask);
    if (factory_.graph().IsConnected(q)) {
      connected_by_size_[static_cast<size_t>(q.Count())].push_back(q);
    }
  }

  // Fill in scan plans for single tables (Algorithm 1 lines 7-10). The
  // seeding is part of invocation 1 so that the first Optimize call sees
  // the scan plans as Δ members.
  for (int t = 0; t < n; ++t) {
    const TableSet q = TableSet::Singleton(t);
    std::vector<BatchEntry> batch;
    factory_.ForEachScan(t, [&](const OperatorDesc& op, const OpCost& oc) {
      const PlanId id =
          arena_.AddScan(q, op, oc.cost, oc.output_rows, oc.order);
      ++counters_.plans_generated;
      batch.push_back({0.0, id, oc.order});
    });
    if (options_.sorted_pruning) SortBatch(arena_, batch);
    PruneBatch(q, batch, initial_bounds, /*resolution=*/0);
  }

  current_bounds_ = initial_bounds;
  if (options_.fragment_publish) {
    publish_log_.resize(size_t{1} << n);
  }
  if (options_.fragment_store != nullptr) SeedFragments(initial_bounds);
}

// Seeds every connected multi-table cell the provider knows: the stored
// plans become opaque arena leaves and are replayed into the cell's
// result index in the donor's chronological insertion order, each keeping
// its original resolution stamp. Replay order matters — the cell index's
// hash-map layout (and hence Collect's iteration order) then matches a
// cold run's bit for bit. Entries are inserted with kNeverVisible so
// their first Collect — which happens at the invocation of their
// resolution stamp, exactly when the cold run would have inserted them —
// classifies them as Δ. The cell itself is sealed: its phase-2
// enumeration (and the generation work it stands for) never runs.
void IncrementalOptimizer::SeedFragments(const CostVector& initial_bounds) {
  (void)initial_bounds;  // The provider keys on the bounds already.
  const int n = factory_.NumTables();
  sealed_.assign(size_t{1} << n, 0);
  const int needed = schedule_.MaxResolution();
  for (size_t k = 2; k <= static_cast<size_t>(n); ++k) {
    for (TableSet q : connected_by_size_[k]) {
      std::optional<FragmentSeed> seed =
          options_.fragment_store->Lookup(q, needed);
      if (!seed.has_value()) continue;
      CellIndex& res = res_.For(q);
      // Plain chronological replay: the first insert per cell creates it,
      // so the cell index's creation order — and hence every downstream
      // iteration order — matches the donor's without any pre-pass. The
      // banks grow geometrically through the arena; the abandoned blocks
      // (a small multiple of the final lane bytes, reclaimed wholesale at
      // the next epoch reset) are far cheaper than per-plan bookkeeping
      // on this hot warm-start path.
      for (const FragmentPlan& p : seed->plans) {
        const PlanId id =
            arena_.AddFragment(q, p.op, p.cost, p.output_rows, p.order);
        res.Insert(id, p.cost, p.resolution, kNeverVisible, p.order);
        ++counters_.fragment_plans_seeded;
      }
      sealed_[q.mask()] = 1;
      ++counters_.fragment_cells_seeded;
    }
  }
  // A cold store seeded nothing: drop the seal table so phase 2 keeps
  // its zero-cost fast path (no per-level filtering) for the whole run.
  if (counters_.fragment_cells_seeded == 0) sealed_.clear();
}

// Second seeding chance for runs admitted while overlapping leaders were
// still in flight: the admission-time probe (constructor) raced their
// publishes, so cells that missed then may hit now. Before the first
// Optimize call every unsealed multi-table cell is still empty — its
// enumeration has not started — so seeding it here replays the donor log
// into a virgin cell exactly like the constructor would have, and the
// bit-identity argument of SeedFragments carries over unchanged.
void IncrementalOptimizer::ReprobeFragments() {
  if (first_optimize_done_ || options_.fragment_store == nullptr) return;
  const int n = factory_.NumTables();
  const bool had_seals = !sealed_.empty();
  if (!had_seals) sealed_.assign(size_t{1} << n, 0);
  const int needed = schedule_.MaxResolution();
  const uint64_t seeded_before = counters_.fragment_cells_seeded;
  for (size_t k = 2; k <= static_cast<size_t>(n); ++k) {
    for (TableSet q : connected_by_size_[k]) {
      if (sealed_[q.mask()] != 0) continue;
      std::optional<FragmentSeed> seed =
          options_.fragment_store->Lookup(q, needed);
      if (!seed.has_value()) continue;
      CellIndex& res = res_.For(q);
      for (const FragmentPlan& p : seed->plans) {
        const PlanId id =
            arena_.AddFragment(q, p.op, p.cost, p.output_rows, p.order);
        res.Insert(id, p.cost, p.resolution, kNeverVisible, p.order);
        ++counters_.fragment_plans_seeded;
      }
      sealed_[q.mask()] = 1;
      ++counters_.fragment_cells_seeded;
    }
  }
  // Keep the no-seals fast path if this probe also came up empty.
  if (!had_seals && counters_.fragment_cells_seeded == seeded_before) {
    sealed_.clear();
  }
}

void IncrementalOptimizer::UnsealForBoundsChange() {
  if (counters_.fragment_cells_seeded == 0 || sealed_.empty()) return;
  sealed_.clear();
  const int n = factory_.NumTables();
  for (size_t k = 1; k <= static_cast<size_t>(n); ++k) {
    for (TableSet q : connected_by_size_[k]) {
      res_.For(q).ResetVisibility();
    }
  }
}

std::vector<IncrementalOptimizer::PublishableFragment>
IncrementalOptimizer::TakePublishableFragments() {
  std::vector<PublishableFragment> out;
  if (!options_.fragment_publish || !publish_valid_ || last_resolution_ < 0) {
    return out;
  }
  const int n = factory_.NumTables();
  for (size_t k = 2; k <= static_cast<size_t>(n); ++k) {
    for (TableSet q : connected_by_size_[k]) {
      if (IsSealed(q)) continue;  // Already in the store; logs are empty.
      std::vector<FragmentPlan>& log = publish_log_[q.mask()];
      if (log.empty()) continue;
      out.push_back({q, last_resolution_, std::move(log)});
      log.clear();
    }
  }
  return out;
}

void IncrementalOptimizer::PruneBatch(TableSet q,
                                      const std::vector<BatchEntry>& batch,
                                      const CostVector& bounds,
                                      int resolution) {
  // After the sort the ids are in random order, so each plan's cost lane
  // is a cache miss; fetching it this many plans ahead hides the miss
  // behind the prunes in between.
  constexpr size_t kPrefetchAhead = 16;
  if (batch.empty()) return;  // For() would create q's sets.
  CellIndex& res = res_.For(q);
  CellIndex& cand = cand_.For(q);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i + kPrefetchAhead < batch.size()) {
      __builtin_prefetch(arena_.cost_data(batch[i + kPrefetchAhead].id));
    }
    PrunePlan(q, res, cand, batch[i], bounds, resolution);
  }
}

void IncrementalOptimizer::PrunePlan(TableSet q, CellIndex& res,
                                     CellIndex& cand, const BatchEntry& plan,
                                     const CostVector& bounds,
                                     int resolution) {
  MOQO_CHECK(plan.id < arena_.size());
  const int dims = arena_.dims();
  const double* lane = arena_.cost_data(plan.id);
  CostVector cost(dims);
  for (int i = 0; i < dims; ++i) cost.data()[i] = lane[i];
  const int compare_resolution = options_.prune_against_all_resolutions
                                     ? schedule_.MaxResolution()
                                     : resolution;
  const PruneOutcome outcome =
      Prune(res, cand, bounds, resolution, compare_resolution, schedule_,
            plan.id, cost, plan.order, invocation_,
            options_.park_next_level_only, &counters_);
  // Fragment publishing logs every multi-table result insertion in
  // chronological order — replaying the log reproduces the cell's index
  // layout exactly (see SeedFragments). Logging stops once the run
  // diverged from the publishable fixed-bounds sequence.
  if (outcome == PruneOutcome::kInsertedResult && !publish_log_.empty() &&
      publish_valid_ && q.Count() >= 2) {
    const PlanNode node = arena_.at(plan.id);
    publish_log_[q.mask()].push_back({node.cost, node.output_cardinality,
                                      node.op, node.order,
                                      static_cast<uint8_t>(resolution)});
  }
}

void IncrementalOptimizer::Optimize(const CostVector& bounds,
                                    int resolution) {
  MOQO_CHECK(resolution >= 0 && resolution <= schedule_.MaxResolution());
  MOQO_CHECK(bounds.dims() == factory_.cost_model().schema().dims());
  if (first_optimize_done_) {
    ++invocation_;
  } else {
    first_optimize_done_ = true;  // Share invocation 1 with the seeding.
  }

  // Fragment bookkeeping. A bounds change means the run no longer
  // replays a fixed-bounds schedule: publishing stops, and any sealed
  // cells must resume enumeration (their never-tried sub-plan pairings
  // become reachable once the bounds move — see UnsealForBoundsChange).
  if (!bounds.Equals(current_bounds_)) {
    publish_valid_ = false;
    UnsealForBoundsChange();
    current_bounds_ = bounds;
  }
  // Publishable runs step resolutions 0,1,...,R (repeats of the last
  // level allowed — such invocations are no-ops under fixed bounds).
  if (resolution != last_resolution_ && resolution != last_resolution_ + 1) {
    publish_valid_ = false;
  }
  last_resolution_ = resolution;

  const int n = factory_.NumTables();

  // --- Phase 1: re-consider candidate plans (Algorithm 2 lines 6-12). ---
  // Candidates matching the current bounds and resolution are removed and
  // pruned again; Prune may insert them into the result set, re-park them
  // for a finer resolution, or discard them.
  for (size_t k = 1; k <= static_cast<size_t>(n); ++k) {
    for (TableSet q : connected_by_size_[k]) {
      std::vector<CellIndex::Entry> drained =
          cand_.For(q).Drain(bounds, resolution);
      if (drained.empty()) continue;
      std::vector<BatchEntry> batch;
      batch.reserve(drained.size());
      for (const CellIndex::Entry& e : drained) {
        counters_.OnCandidateRetrieved(e.id);
        batch.push_back({0.0, e.id, e.order});
      }
      if (options_.sorted_pruning) SortBatch(arena_, batch);
      PruneBatch(q, batch, bounds, resolution);
    }
  }

  // --- Phase 2: generate fresh plans (Algorithm 2 lines 13-22). ---
  // Bottom-up over connected table sets of increasing cardinality; for
  // each split into two combinable subsets, enumerate only sub-plan pairs
  // with at least one Δ member and an unseen (left, right) combination.
  Phase2Serial(bounds, resolution);
}

void IncrementalOptimizer::Phase2Serial(const CostVector& bounds,
                                        int resolution) {
  const int n = factory_.NumTables();
  std::vector<BatchEntry> batch;
  for (size_t k = 2; k <= static_cast<size_t>(n); ++k) {
    for (TableSet q : connected_by_size_[k]) {
      // A sealed cell already carries its complete frontier (seeded from
      // the fragment store); enumerating it would only regenerate plans
      // the donor run produced. Its sub-cells still get collected by
      // their other (non-sealed) consumers.
      if (IsSealed(q)) continue;
      batch.clear();
      for (SubsetIter split(q); !split.Done(); split.Next()) {
        const TableSet q1 = split.Subset();
        const TableSet q2 = split.Complement();
        if (!factory_.CanCombine(q1, q2)) continue;

        std::vector<CellIndex::Collected> p1 =
            res_.For(q1).Collect(bounds, resolution, invocation_);
        if (p1.empty()) continue;
        std::vector<CellIndex::Collected> p2 =
            res_.For(q2).Collect(bounds, resolution, invocation_);
        if (p2.empty()) continue;

        // Enumerate ΔP1 × P2  ∪  (P1 \ ΔP1) × ΔP2 without touching
        // non-Δ × non-Δ pairs (those were combined in prior invocations).
        auto combine = [&](const CellIndex::Collected& a,
                           const CellIndex::Collected& b) {
          if (!fresh_.Mark(a.id, b.id)) {
            ++counters_.pairs_rejected_stale;
            return;
          }
          ++counters_.pairs_generated;
          factory_.ForEachJoin(
              arena_.at(a.id), arena_.at(b.id),
              [&](const OperatorDesc& op, const OpCost& oc) {
                const PlanId id = arena_.AddJoin(
                    q, a.id, b.id, op, oc.cost, oc.output_rows, oc.order);
                ++counters_.plans_generated;
                batch.push_back({0.0, id, oc.order});
              });
        };

        for (const CellIndex::Collected& a : p1) {
          if (!a.delta) continue;
          for (const CellIndex::Collected& b : p2) combine(a, b);
        }
        for (const CellIndex::Collected& b : p2) {
          if (!b.delta) continue;
          for (const CellIndex::Collected& a : p1) {
            if (a.delta) continue;  // Δ × Δ already handled above.
            combine(a, b);
          }
        }
      }
      // Prune this table set's freshly generated plans, cheapest first,
      // before any superset of q consumes them.
      if (options_.sorted_pruning) SortBatch(arena_, batch);
      PruneBatch(q, batch, bounds, resolution);
    }
  }
}

std::vector<CellIndex::Entry> IncrementalOptimizer::ResultPlans(
    const CostVector& bounds, int resolution) const {
  return ResultPlansFor(TableSet::Full(factory_.NumTables()), bounds,
                        resolution);
}

std::vector<CellIndex::Entry> IncrementalOptimizer::ResultPlansFor(
    TableSet q, const CostVector& bounds, int resolution) const {
  std::vector<CellIndex::Entry> out;
  res_.For(q).ForEachInRange(bounds, resolution,
                             [&](const CellIndex::Entry& e) {
                               out.push_back(e);
                             });
  return out;
}

}  // namespace moqo
