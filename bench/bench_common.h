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

// Each figure row is measured this many times and prints the median
// with the smallest and largest repetition, so a vs_iama ratio is not
// read off a single run.
constexpr int kFigureRepetitions = 5;

// Runs one figure configuration (one resolution-level count) over the
// TPC-H workload and prints rows:
//   levels, tables, algorithm, median/min/max over kFigureRepetitions of
//   the per-invocation statistic (average, or maximum when report_max),
//   and the median's ratio to IAMA's median.
inline void RunFigureConfig(
    double alpha_target, double alpha_step, int levels, bool report_max,
    ResolutionSchedule::Kind kind = ResolutionSchedule::Kind::kLinear) {
  const Catalog catalog = MakeTpchCatalog();
  const ResolutionSchedule schedule(levels, alpha_target, alpha_step, kind);
  std::printf("# levels=%d alpha_T=%.4g alpha_S=%.4g metrics=3 "
              "schedule=%s statistic=%s_ms_per_invocation repetitions=%d\n",
              levels, alpha_target, alpha_step,
              kind == ResolutionSchedule::Kind::kLinear ? "linear"
                                                        : "geometric",
              report_max ? "max" : "avg", kFigureRepetitions);
  std::printf("%-8s %-7s %-22s %12s %12s %12s %10s\n", "levels", "tables",
              "algorithm", "median_ms", "min_ms", "max_ms", "vs_iama");
  const char* const kAlgorithms[] = {"incremental_anytime", "memoryless",
                                     "one_shot"};
  for (int tables : TpchBlockTableCounts(catalog)) {
    const std::vector<Query> queries = TpchBlocksWithTables(catalog, tables);
    // samples[a]: algorithm a's row statistic, one per repetition.
    std::vector<double> samples[3];
    for (int rep = 0; rep < kFigureRepetitions; ++rep) {
      FigureRowStats stats[3];
      for (const Query& query : queries) {
        const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                                  CostModelParams{}, BenchOperatorOptions());
        stats[0].Add(RunIamaSeries(factory, schedule));
        stats[1].Add(RunMemorylessSeries(factory, schedule));
        stats[2].Add(RunOneShotOnce(factory, schedule));
      }
      for (int a = 0; a < 3; ++a) {
        samples[a].push_back(report_max ? stats[a].max_ms : stats[a].AvgMs());
      }
    }
    const double iama_median = Percentile(samples[0], 0.5);
    for (int a = 0; a < 3; ++a) {
      const double median = Percentile(samples[a], 0.5);
      std::printf("%-8d %-7d %-22s %12.3f %12.3f %12.3f %9.2fx\n", levels,
                  tables, kAlgorithms[a], median, Percentile(samples[a], 0.0),
                  Percentile(samples[a], 1.0),
                  iama_median > 0.0 ? median / iama_median : 0.0);
    }
  }
  std::printf("\n");
}

}  // namespace bench
}  // namespace moqo

#endif  // MOQO_BENCH_BENCH_COMMON_H_
