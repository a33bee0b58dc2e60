#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "baseline/one_shot.h"
#include "pareto/coverage.h"
#include "util/str.h"

namespace perfbench {

bool CheckLog::Expect(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    failures_.push_back(what);
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

uint64_t FrontierDigest(const moqo::FrontierSnapshot& frontier) {
  std::vector<std::string> rows;
  rows.reserve(frontier.plans.size());
  for (const moqo::CellIndex::Entry& e : frontier.plans) {
    std::string row;
    for (int i = 0; i < e.cost.dims(); ++i) {
      moqo::AppendHexDouble(&row, e.cost[i]);
      row += ',';
    }
    row += '|';
    row += std::to_string(static_cast<int>(e.order));
    row += '|';
    row += std::to_string(static_cast<int>(e.resolution));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  std::string all;
  for (const std::string& row : rows) {
    all += row;
    all += ';';
  }
  return moqo::Fnv1a64(all);
}

moqo::FrontierSnapshot SerialFinalFrontier(const moqo::Query& query,
                                           const moqo::Catalog& catalog,
                                           const moqo::ServiceOptions& options,
                                           const moqo::IamaOptions& iama,
                                           CheckLog* checks) {
  const moqo::PlanFactory factory(query, catalog, options.schema,
                                  options.cost_params,
                                  options.operator_options);
  moqo::IamaSession session(factory, iama);
  moqo::FrontierSnapshot snapshot;
  for (int i = 0; i < iama.schedule.NumLevels(); ++i) {
    snapshot = session.Step();
    session.ApplyAction(moqo::UserAction::Continue());
  }
  const moqo::IncrementalOptimizer& optimizer = session.optimizer();
  checks->Expect(optimizer.counters().pairs_rejected_stale == 0 &&
                     PlansMatchArena(optimizer),
                 query.name + ": serial reference has zero stale pairs and "
                              "plans generated == arena size");
  return snapshot;
}

bool MatchesSerialReference(const moqo::Query& query,
                            const moqo::Catalog& catalog,
                            const moqo::ServiceOptions& options,
                            const moqo::FrontierSnapshot& served,
                            CheckLog* checks) {
  const moqo::FrontierSnapshot reference =
      SerialFinalFrontier(query, catalog, options, moqo::IamaOptions(), checks);
  return checks->Expect(
      !reference.plans.empty() &&
          FrontierDigest(served) == FrontierDigest(reference),
      query.name + ": served frontier digest equals the serial reference");
}

bool RespectsBounds(const moqo::FrontierSnapshot& snapshot) {
  for (const moqo::CellIndex::Entry& e : snapshot.plans) {
    for (int i = 0; i < e.cost.dims(); ++i) {
      if (!(e.cost[i] <= snapshot.bounds[i])) return false;
    }
  }
  return true;
}

bool PlansMatchArena(const moqo::IncrementalOptimizer& optimizer) {
  return optimizer.counters().plans_generated == optimizer.arena().size();
}

bool CoversOneShot(const moqo::PlanFactory& factory,
                   const moqo::ResolutionSchedule& schedule,
                   const std::vector<moqo::CellIndex::Entry>& frontier) {
  const int n = factory.NumTables();
  const moqo::CostVector inf =
      moqo::CostVector::Infinite(factory.cost_model().schema().dims());
  const moqo::OneShotResult one_shot =
      moqo::RunOneShot(factory, schedule.alpha_target(), inf);
  std::vector<moqo::CostVector> reference;
  for (moqo::PlanId id : one_shot.FinalPlans(n)) {
    reference.push_back(one_shot.arena.at(id).cost);
  }
  std::vector<moqo::CostVector> result;
  for (const moqo::CellIndex::Entry& e : frontier) result.push_back(e.cost);
  const double factor = std::pow(schedule.alpha_target(), n);
  return !reference.empty() &&
         moqo::CheckCoverage(result, reference, factor, inf).covered;
}

}  // namespace perfbench
