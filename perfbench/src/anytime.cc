// anytime_session: the paper's interactive loop (§4.1-4.2), in-process.
//
// Each query of the set runs a fixed script:
//   1. step at r=0 with no bounds (the first frontier);
//   2. drag the bounds to the per-objective median of that frontier;
//   3. refine to rM;
//   4. relax the bounds to infinity;
//   5. refine to rM again.
// The untraced pass drives IamaSession; the traced pass drives
// IncrementalOptimizer with exactly Step()'s Optimize + ResultPlans
// sequence and times each call.
#include <algorithm>
#include <memory>
#include <new>

#include "core/iama.h"
#include "inputs.h"
#include "plan/cost_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

using moqo::CostVector;
using moqo::FrontierSnapshot;

// Set-up is cheap here (catalog, queries, plan factories: tens of
// microseconds), so it is repeated far more often than the serving
// stacks' to steady its median.
constexpr size_t kAnytimeSetupRepeats = 101;

struct Setup {
  AnytimeInputs inputs;
  std::vector<std::unique_ptr<moqo::PlanFactory>> factories;
  double factory_ms = 0.0;
};

std::unique_ptr<Setup> BuildSetup(uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  setup->inputs = MakeAnytimeInputs(seed);
  const Clock::time_point start = Clock::now();
  for (const moqo::Query& q : setup->inputs.queries) {
    setup->factories.push_back(std::make_unique<moqo::PlanFactory>(
        q, setup->inputs.catalog, moqo::MetricSchema::Standard3()));
  }
  setup->factory_ms = MsSince(start);
  return setup;
}

// Per-objective median of a frontier's costs: the bounds the scripted
// user drags to after the first frontier.
CostVector MedianBounds(const FrontierSnapshot& first, int dims) {
  CostVector bounds(dims);
  for (int i = 0; i < dims; ++i) {
    std::vector<double> values;
    for (const moqo::CellIndex::Entry& e : first.plans) {
      values.push_back(e.cost[i]);
    }
    bounds.data()[i] = Median(values);
  }
  return bounds;
}

struct ScriptTimes {
  double first_s = 0.0;
  double session_s = 0.0;
  double relax_s = 0.0;
};

// One untraced session. Snapshots are kept and checked after the clock
// stops; the clique's final frontier is checked against the one-shot
// baseline when `check_coverage` is set.
ScriptTimes RunScript(const moqo::PlanFactory& factory, bool check_coverage,
                      CheckLog* checks) {
  const moqo::IamaOptions iama;  // Moderate(5), one thread, no bounds.
  const int levels = iama.schedule.NumLevels();
  const int dims = factory.cost_model().schema().dims();
  std::vector<FrontierSnapshot> snapshots;
  snapshots.reserve(static_cast<size_t>(1 + 2 * levels));
  ScriptTimes t;

  const Clock::time_point start = Clock::now();
  moqo::IamaSession session(factory, iama);
  snapshots.push_back(session.Step());
  t.first_s = SecondsSince(start);
  session.SetBounds(MedianBounds(snapshots.front(), dims));
  for (int r = 0; r < levels; ++r) {
    snapshots.push_back(session.Step());
    session.ApplyAction(moqo::UserAction::Continue());
  }
  const Clock::time_point relax = Clock::now();
  session.SetBounds(CostVector::Infinite(dims));
  for (int r = 0; r < levels; ++r) {
    snapshots.push_back(session.Step());
    session.ApplyAction(moqo::UserAction::Continue());
  }
  t.relax_s = SecondsSince(relax);
  t.session_s = SecondsSince(start);

  const std::string name = factory.query().name;
  checks->Expect(!snapshots.back().plans.empty(),
                 name + ": final frontier is non-empty");
  checks->Expect(std::all_of(snapshots.begin(), snapshots.end(),
                             RespectsBounds),
                 name + ": every plan respects its session's bounds");
  checks->Expect(snapshots.back().resolution == iama.schedule.MaxResolution(),
                 name + ": the script ends at rM");
  checks->Expect(PlansMatchArena(session.optimizer()),
                 name + ": plans generated == arena size");
  if (check_coverage) {
    checks->Expect(
        CoversOneShot(factory, iama.schedule, snapshots.back().plans),
        name + ": final frontier covers the one-shot baseline at a^|Q|");
  }
  return t;
}

// Spans and counts of one traced pass, summed over the query set.
struct TracedPass {
  double seed_ms = 0.0;
  double optimize_first_ms = 0.0;
  double optimize_refine_ms = 0.0;
  double optimize_relax_ms = 0.0;
  double snapshot_ms = 0.0;
  double total_ms = 0.0;
  double plans_generated = 0.0;
  double pairs_generated = 0.0;
  double candidate_retrievals = 0.0;
  double result_insertions = 0.0;
  double dominance_checks = 0.0;
  double prune_calls = 0.0;
  double result_entries = 0.0;
  double candidate_entries = 0.0;
  double arena_plans = 0.0;
  double max_arena_plans = 0.0;
};

void TraceScript(const moqo::PlanFactory& factory, TracedPass* p) {
  const moqo::ResolutionSchedule schedule = moqo::IamaOptions().schedule;
  const int levels = schedule.NumLevels();
  const int dims = factory.cost_model().schema().dims();
  const CostVector inf = CostVector::Infinite(dims);
  const Clock::time_point start = Clock::now();

  Clock::time_point t = Clock::now();
  moqo::IncrementalOptimizer optimizer(factory, schedule, inf);
  p->seed_ms += MsSince(t);
  t = Clock::now();
  optimizer.Optimize(inf, 0);
  p->optimize_first_ms += MsSince(t);
  t = Clock::now();
  FrontierSnapshot first;
  first.plans = optimizer.ResultPlans(inf, 0);
  p->snapshot_ms += MsSince(t);

  // Candidates drain as resolution reaches rM, so the index's size is
  // taken at its peak across invocations.
  size_t peak_candidates = optimizer.NumCandidateEntries();
  const CostVector bounds = MedianBounds(first, dims);
  for (int pass = 0; pass < 2; ++pass) {
    const CostVector& b = pass == 0 ? bounds : inf;
    double* optimize_ms = pass == 0 ? &p->optimize_refine_ms
                                    : &p->optimize_relax_ms;
    for (int r = 0; r < levels; ++r) {
      t = Clock::now();
      optimizer.Optimize(b, r);
      *optimize_ms += MsSince(t);
      peak_candidates =
          std::max(peak_candidates, optimizer.NumCandidateEntries());
      t = Clock::now();
      const std::vector<moqo::CellIndex::Entry> plans =
          optimizer.ResultPlans(b, r);
      p->snapshot_ms += MsSince(t);
    }
  }
  p->total_ms += MsSince(start);

  const moqo::Counters& c = optimizer.counters();
  p->plans_generated += static_cast<double>(c.plans_generated);
  p->pairs_generated += static_cast<double>(c.pairs_generated);
  p->candidate_retrievals += static_cast<double>(c.candidate_retrievals);
  p->result_insertions += static_cast<double>(c.result_insertions);
  p->dominance_checks += static_cast<double>(c.dominance_checks);
  p->prune_calls += static_cast<double>(c.prune_calls);
  p->result_entries += static_cast<double>(optimizer.NumResultEntries());
  p->candidate_entries += static_cast<double>(peak_candidates);
  const double arena = static_cast<double>(optimizer.arena().size());
  p->arena_plans += arena;
  p->max_arena_plans = std::max(p->max_arena_plans, arena);
}

}  // namespace

void RunAnytimeSession(const RunArgs& args, Outcome* out) {
  RssSampler rss;
  std::vector<double> setup_s;
  std::vector<double> factory_ms;
  std::unique_ptr<Setup> setup;
  const Clock::time_point setup_start = Clock::now();
  while (setup_s.size() < kAnytimeSetupRepeats ||
         SecondsSince(setup_start) < kMinSetupSeconds) {
    const Clock::time_point start = Clock::now();
    setup.reset();
    setup = BuildSetup(args.seed);
    setup_s.push_back(SecondsSince(start));
    factory_ms.push_back(setup->factory_ms);
  }
  Note("setup_s", std::to_string(setup_s.size()) + " set-ups, median " +
                      std::to_string(Median(setup_s)) + " s");
  const size_t n = setup->factories.size();

  // Untraced sessions run in set order, round after round. The first
  // round runs every query; later ones run each query whose previous
  // session still fits in the run's time, so that the cheaper queries
  // fill the time the dearer ones leave. Time counts sessions only, not
  // the checks between them; the first round also runs the coverage
  // check. Traced runs make one round: the overhead baseline.
  std::vector<std::vector<ScriptTimes>> runs(n);
  double measured_s = 0.0;
  double first_round_s = 0.0;
  for (bool first_round = true;; first_round = false) {
    bool ran = false;
    for (size_t q = 0; q < n; ++q) {
      if (!first_round &&
          (runs[q].empty() ||
           measured_s + runs[q].back().session_s > args.seconds)) {
        continue;
      }
      ++out->attempted;
      try {
        runs[q].push_back(RunScript(*setup->factories[q],
                                    first_round && q == kCliqueQuery,
                                    &out->checks));
        measured_s += runs[q].back().session_s;
        ran = true;
      } catch (const std::bad_alloc&) {
        ++out->failed;
      }
    }
    if (first_round) first_round_s = measured_s;
    if (!ran || args.trace) break;
  }

  std::string counts;
  for (const std::vector<ScriptTimes>& q : runs) {
    counts += std::to_string(q.size()) + " ";
  }
  Note("sessions per query", counts);
  Note("sharing", "repeat_share=0 store_seeded_share=0 (no service, no store)");
  Report& r = out->report;
  if (!args.trace) {
    // Each query's median session; the set's times are their sums, and
    // the percentiles are over the queries' medians.
    ScriptTimes sum;
    std::vector<double> ttff_ms, done_ms;
    for (const std::vector<ScriptTimes>& q : runs) {
      auto median_of = [&q](double ScriptTimes::*field) {
        std::vector<double> values;
        for (const ScriptTimes& t : q) values.push_back(t.*field);
        return Median(values);
      };
      sum.first_s += median_of(&ScriptTimes::first_s);
      sum.session_s += median_of(&ScriptTimes::session_s);
      sum.relax_s += median_of(&ScriptTimes::relax_s);
      ttff_ms.push_back(median_of(&ScriptTimes::first_s) * 1000.0);
      done_ms.push_back(median_of(&ScriptTimes::session_s) * 1000.0);
    }
    r.Add("first_frontier_s", sum.first_s, "s");
    r.Add("session_s", sum.session_s, "s");
    r.Add("relax_s", sum.relax_s, "s");
    r.Add("qps", static_cast<double>(n) / sum.session_s, "1/s");
    r.Add("ttff_p50_ms", Quantile(ttff_ms, 0.5), "ms");
    r.Add("ttff_p90_ms", Quantile(ttff_ms, 0.9), "ms");
    r.Add("done_p50_ms", Quantile(done_ms, 0.5), "ms");
    r.Add("done_p90_ms", Quantile(done_ms, 0.9), "ms");
    r.Add("peak_rss_mb", rss.Stop(), "MB");
    r.Add("setup_s", Median(setup_s), "s");
    return;
  }

  TracedPass p;
  for (size_t q = 0; q < n; ++q) TraceScript(*setup->factories[q], &p);
  const double untraced_ms = first_round_s * 1000.0;
  r.Add("plan.factory_ms", Median(factory_ms), "ms");
  r.Add("core.seed_ms", p.seed_ms, "ms");
  r.Add("core.optimize_first_ms", p.optimize_first_ms, "ms");
  r.Add("core.optimize_refine_ms", p.optimize_refine_ms, "ms");
  r.Add("core.optimize_relax_ms", p.optimize_relax_ms, "ms");
  r.Add("core.snapshot_ms", p.snapshot_ms, "ms");
  r.Add("core.plans_generated", p.plans_generated, "count");
  r.Add("core.pairs_generated", p.pairs_generated, "count");
  r.Add("core.candidate_retrievals", p.candidate_retrievals, "count");
  r.Add("core.result_insert_ratio", p.result_insertions / p.plans_generated,
        "ratio");
  r.Add("pareto.dominance_checks", p.dominance_checks, "count");
  r.Add("pareto.prune_calls", p.prune_calls, "count");
  r.Add("index.result_entries", p.result_entries, "count");
  r.Add("index.candidate_entries", p.candidate_entries, "count");
  r.Add("plan.arena_plans", p.arena_plans, "count");
  r.Add("plan.bytes_per_plan", PeakRssMb() * 1048576.0 / p.max_arena_plans,
        "bytes");
  r.Add("trace.overhead_pct", (p.total_ms / untraced_ms - 1.0) * 100.0, "%");
}

}  // namespace perfbench
