// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: cost-vector dominance, cell-index insert / range query /
// drain / bucket computation, plan-arena append and read-back, the
// fresh-pair set, Pareto frontier maintenance, and the Prune procedure.
#include <benchmark/benchmark.h>

#include "core/fresh.h"
#include "core/pruning.h"
#include "index/cell_index.h"
#include "pareto/dominance.h"
#include "pareto/frontier.h"
#include "plan/arena.h"
#include "util/rng.h"

namespace moqo {
namespace {

CostVector RandomCost(Rng& rng, int dims) {
  CostVector v(dims);
  for (int i = 0; i < dims; ++i) {
    v[i] = std::pow(10.0, rng.UniformDouble(-2.0, 6.0));
  }
  return v;
}

void BM_Dominates(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<CostVector> vectors;
  for (int i = 0; i < 1024; ++i) vectors.push_back(RandomCost(rng, dims));
  size_t i = 0;
  for (auto _ : state) {
    const bool d = vectors[i % 1024].Dominates(vectors[(i + 1) % 1024]);
    benchmark::DoNotOptimize(d);
    ++i;
  }
}
BENCHMARK(BM_Dominates)->Arg(2)->Arg(3)->Arg(6);

void BM_ApproxDominates(benchmark::State& state) {
  Rng rng(2);
  const CostVector a = RandomCost(rng, 3);
  const CostVector b = RandomCost(rng, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApproxDominates(a, b, 1.05));
  }
}
BENCHMARK(BM_ApproxDominates);

void BM_CellIndexInsert(benchmark::State& state) {
  const int dims = 3;
  Rng rng(3);
  std::vector<CostVector> costs;
  for (int i = 0; i < 4096; ++i) costs.push_back(RandomCost(rng, dims));
  for (auto _ : state) {
    state.PauseTiming();
    CellIndex index(dims);
    state.ResumeTiming();
    for (uint32_t i = 0; i < 4096; ++i) {
      index.Insert(i, costs[i], static_cast<int>(i % 20), 1);
    }
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_CellIndexInsert);

void BM_CellIndexRangeQuery(benchmark::State& state) {
  const int dims = 3;
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  CellIndex index(dims);
  for (int i = 0; i < n; ++i) {
    index.Insert(static_cast<uint32_t>(i), RandomCost(rng, dims), i % 20, 1);
  }
  const CostVector bounds = RandomCost(rng, dims).Scaled(10.0);
  for (auto _ : state) {
    size_t hits = 0;
    index.ForEachInRange(bounds, 10, [&](const CellIndex::Entry&) {
      ++hits;
    });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_CellIndexRangeQuery)->Arg(256)->Arg(4096)->Arg(65536);

void BM_CellIndexAnyInRange(benchmark::State& state) {
  const int dims = 3;
  Rng rng(5);
  CellIndex index(dims);
  for (int i = 0; i < 4096; ++i) {
    index.Insert(static_cast<uint32_t>(i), RandomCost(rng, dims), i % 20, 1);
  }
  const CostVector bounds = RandomCost(rng, dims);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.AnyInRange(bounds, 10));
  }
}
BENCHMARK(BM_CellIndexAnyInRange);

// The per-metric cell coordinate of 4096 costs spread over eight decades,
// at the optimizer's default γ = 2 (every Insert and range query computes
// one per metric).
void BM_CellIndexBucket(benchmark::State& state) {
  Rng rng(9);
  std::vector<double> values;
  for (int i = 0; i < 4096; ++i) {
    values.push_back(std::pow(10.0, rng.UniformDouble(-2.0, 6.0)));
  }
  const CellIndex index(3);
  for (auto _ : state) {
    int sum = 0;
    for (const double v : values) sum += index.Bucket(v);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_CellIndexBucket);

// Marks N distinct pseudo-random (left, right) plan-id pairs in a fresh
// registry, growth included, as phase 2 does for every enumerated pair.
void BM_FreshPairMark(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(10);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pairs.emplace_back(static_cast<uint32_t>(rng.Uniform(1u << 24)),
                       static_cast<uint32_t>(i));
  }
  for (auto _ : state) {
    FreshPairRegistry reg;
    for (const auto& [left, right] : pairs) {
      benchmark::DoNotOptimize(reg.Mark(left, right));
    }
    benchmark::DoNotOptimize(reg.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FreshPairMark)->Arg(65536)->Arg(1 << 20);

// Appends N join plans at 3 metrics to a fresh arena, then reads every
// plan back by id, as phase 2 and the batch sort do.
void BM_ArenaAppend(benchmark::State& state) {
  const int dims = 3;
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Rng rng(8);
  std::vector<CostVector> costs;
  for (int i = 0; i < 1024; ++i) costs.push_back(RandomCost(rng, dims));
  const OperatorDesc scan = OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0);
  const OperatorDesc join = OperatorDesc::Join(JoinAlg::kHashJoin, 2);
  for (auto _ : state) {
    PlanArena arena;
    arena.AddScan(TableSet::Singleton(0), scan, costs[0], 100.0);
    arena.AddScan(TableSet::Singleton(1), scan, costs[1], 100.0);
    for (uint32_t i = 0; i < n; ++i) {
      arena.AddJoin(TableSet(0b11), i % 2, 1 - i % 2, join, costs[i % 1024],
                    static_cast<double>(i));
    }
    double sum = 0.0;
    for (PlanId id = 0; id < arena.size(); ++id) {
      const PlanNode node = arena.at(id);
      sum += node.output_cardinality + node.cost.at(0);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ArenaAppend)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_FrontierInsert(benchmark::State& state) {
  Rng rng(6);
  std::vector<CostVector> costs;
  for (int i = 0; i < 1024; ++i) costs.push_back(RandomCost(rng, 3));
  for (auto _ : state) {
    ParetoFrontier frontier;
    for (uint32_t i = 0; i < 1024; ++i) {
      frontier.Insert(costs[i], i);
    }
    benchmark::DoNotOptimize(frontier.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FrontierInsert);

void BM_Prune(benchmark::State& state) {
  Rng rng(7);
  std::vector<CostVector> costs;
  for (int i = 0; i < 2048; ++i) costs.push_back(RandomCost(rng, 3));
  const CostVector inf = CostVector::Infinite(3);
  const ResolutionSchedule schedule(5, 1.05, 0.3);
  for (auto _ : state) {
    CellIndex res(3), cand(3);
    for (uint32_t i = 0; i < 2048; ++i) {
      Prune(res, cand, inf, /*resolution=*/static_cast<int>(i % 5),
            /*compare_resolution=*/static_cast<int>(i % 5), schedule, i,
            costs[i], /*order=*/0, /*invocation=*/1,
            /*park_next_level_only=*/false, nullptr);
    }
    benchmark::DoNotOptimize(res.size());
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_Prune);

}  // namespace
}  // namespace moqo

BENCHMARK_MAIN();
