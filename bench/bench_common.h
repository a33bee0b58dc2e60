// Shared infrastructure for the figure-reproduction benchmarks.
//
// Each bench_fig* binary reproduces one figure of the paper's evaluation
// (§6): it runs the three algorithms — incremental anytime (IAMA),
// memoryless, one-shot — on the TPC-H query blocks grouped by table count
// and prints the per-invocation optimization times the figure plots.
#ifndef MOQO_BENCH_BENCH_COMMON_H_
#define MOQO_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/memoryless.h"
#include "baseline/one_shot.h"
#include "catalog/tpch.h"
#include "core/incremental_optimizer.h"
#include "core/resolution.h"
#include "plan/cost_model.h"
#include "query/tpch_queries.h"
#include "util/stats.h"

namespace moqo {
namespace bench {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const { return MillisSince(start_); }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Operator options used by all figure benches. Sized so that the finest
// precision (α_T = 1.005) stays laptop-scale while preserving the paper's
// search-space ingredients: several scan strategies (incl. sampling, more
// for larger tables), index scans, three join algorithms, parallelism.
inline OperatorOptions BenchOperatorOptions() {
  OperatorOptions options;
  options.max_workers = 16;
  options.max_sampling_rates_per_table = 4;
  return options;
}

// Per-invocation times (ms) of one algorithm on one query.
struct InvocationTimes {
  std::vector<double> ms;

  double Total() const {
    double t = 0.0;
    for (double v : ms) t += v;
    return t;
  }
  double Max() const {
    double m = 0.0;
    for (double v : ms) m = std::max(m, v);
    return m;
  }
};

// Runs the IAMA invocation series r = 0..rM (no user interaction, bounds
// fixed to infinity — the paper's evaluation scenario) and returns the
// per-invocation times.
inline InvocationTimes RunIamaSeries(const PlanFactory& factory,
                                     const ResolutionSchedule& schedule) {
  const CostVector inf =
      CostVector::Infinite(factory.cost_model().schema().dims());
  InvocationTimes times;
  Timer construction;
  IncrementalOptimizer optimizer(factory, schedule, inf);
  double carry = construction.ElapsedMs();  // Scan seeding joins inv 1.
  for (int r = 0; r <= schedule.MaxResolution(); ++r) {
    Timer t;
    optimizer.Optimize(inf, r);
    times.ms.push_back(t.ElapsedMs() + carry);
    carry = 0.0;
  }
  return times;
}

// Runs the memoryless series: the same sequence of result plan sets, each
// produced from scratch.
inline InvocationTimes RunMemorylessSeries(const PlanFactory& factory,
                                           const ResolutionSchedule& schedule) {
  const CostVector inf =
      CostVector::Infinite(factory.cost_model().schema().dims());
  const MemorylessDriver driver(factory, schedule);
  InvocationTimes times;
  for (int r = 0; r <= schedule.MaxResolution(); ++r) {
    Timer t;
    const OneShotResult result = driver.RunInvocation(r, inf);
    (void)result;
    times.ms.push_back(t.ElapsedMs());
  }
  return times;
}

// Runs the one-shot algorithm: a single invocation at the target
// precision.
inline InvocationTimes RunOneShotOnce(const PlanFactory& factory,
                                      const ResolutionSchedule& schedule) {
  const CostVector inf =
      CostVector::Infinite(factory.cost_model().schema().dims());
  InvocationTimes times;
  Timer t;
  const OneShotResult result =
      RunOneShot(factory, schedule.alpha_target(), inf);
  (void)result;
  times.ms.push_back(t.ElapsedMs());
  return times;
}

struct FigureRowStats {
  double sum_ms = 0.0;
  double max_ms = 0.0;
  int invocations = 0;

  void Add(const InvocationTimes& t) {
    for (double v : t.ms) {
      sum_ms += v;
      max_ms = std::max(max_ms, v);
      ++invocations;
    }
  }
  double AvgMs() const {
    return invocations == 0 ? 0.0 : sum_ms / invocations;
  }
};

// Runs one figure configuration (one resolution-level count) over the
// TPC-H workload and prints rows:
//   levels, tables, algorithm, avg_ms, max_ms, speedup-vs-IAMA.
inline void RunFigureConfig(
    double alpha_target, double alpha_step, int levels, bool report_max,
    ResolutionSchedule::Kind kind = ResolutionSchedule::Kind::kLinear) {
  const Catalog catalog = MakeTpchCatalog();
  const ResolutionSchedule schedule(levels, alpha_target, alpha_step, kind);
  std::printf("# levels=%d alpha_T=%.4g alpha_S=%.4g metrics=3 "
              "schedule=%s\n", levels, alpha_target, alpha_step,
              kind == ResolutionSchedule::Kind::kLinear ? "linear"
                                                        : "geometric");
  std::printf("%-8s %-7s %-22s %12s %12s %10s\n", "levels", "tables",
              "algorithm", "avg_ms", "max_ms", "vs_iama");
  for (int tables : TpchBlockTableCounts(catalog)) {
    FigureRowStats iama, memoryless, one_shot;
    for (const Query& query : TpchBlocksWithTables(catalog, tables)) {
      const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                                CostModelParams{}, BenchOperatorOptions());
      iama.Add(RunIamaSeries(factory, schedule));
      memoryless.Add(RunMemorylessSeries(factory, schedule));
      one_shot.Add(RunOneShotOnce(factory, schedule));
    }
    const double iama_ref = report_max ? iama.max_ms : iama.AvgMs();
    const auto row = [&](const char* name, const FigureRowStats& s) {
      const double value = report_max ? s.max_ms : s.AvgMs();
      std::printf("%-8d %-7d %-22s %12.3f %12.3f %9.2fx\n", levels, tables,
                  name, s.AvgMs(), s.max_ms,
                  iama_ref > 0.0 ? value / iama_ref : 0.0);
    };
    row("incremental_anytime", iama);
    row("memoryless", memoryless);
    row("one_shot", one_shot);
  }
  std::printf("\n");
}

}  // namespace bench
}  // namespace moqo

#endif  // MOQO_BENCH_BENCH_COMMON_H_
