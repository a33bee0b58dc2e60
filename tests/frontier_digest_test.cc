// Frontier digests: pins the exact result frontiers of the incremental
// optimizer and of the one-shot baseline, so a refactor of either can show
// that every frontier stays bit-identical. Each test renders the costs
// (hexfloat, so equal text means equal bits) and the order/resolution tags
// of ResultPlans after every step, in the order the optimizer returns
// them, and compares one FNV-1a digest of the whole series against a
// constant recorded from the known-good serial engine.
//
// The digests also pin how tied plans are ordered: SortBatch compares
// scores only, so the order of equal-score plans, and with it pruning
// order, follows std::sort's internals. The planned total-order tie-break
// (ROADMAP item 4: break SortBatch ties on plan id) is expected to change
// these constants. That change updates them and reports the old and new
// values; no other change may.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/one_shot.h"
#include "catalog/tpch.h"
#include "core/incremental_optimizer.h"
#include "query/tpch_queries.h"
#include "test_helpers.h"
#include "util/str.h"

namespace moqo {
namespace {

void AppendPlan(const CostVector& cost, int order, std::string* text) {
  for (int i = 0; i < cost.dims(); ++i) {
    AppendHexDouble(text, cost[i]);
    *text += ',';
  }
  *text += std::to_string(order);
}

// Appends one step's frontier to the series rendered in `text`.
void AppendFrontier(const std::vector<CellIndex::Entry>& plans,
                    std::string* text) {
  for (const CellIndex::Entry& e : plans) {
    AppendPlan(e.cost, e.order, text);
    *text += '@' + std::to_string(e.resolution) + ';';
  }
  *text += '|';
}

std::string Hex(uint64_t v) {
  return StrFormat("0x%016llx", static_cast<unsigned long long>(v));
}

// Full refinement series at infinite bounds on every TPC-H query block.
TEST(FrontierDigest, TpchRefinementSeries) {
  const Catalog catalog = MakeTpchCatalog();
  const ResolutionSchedule schedule(4, 1.05, 0.3);
  OperatorOptions op_options;
  op_options.max_workers = 4;
  op_options.max_sampling_rates_per_table = 2;
  const CostVector inf = CostVector::Infinite(3);

  std::string text;
  for (const Query& query : TpchQueryBlocks(catalog)) {
    const PlanFactory factory(query, catalog, MetricSchema::Standard3(),
                              CostModelParams{}, op_options);
    IncrementalOptimizer optimizer(factory, schedule, inf);
    text += query.name + ':';
    for (int r = 0; r <= schedule.MaxResolution(); ++r) {
      optimizer.Optimize(inf, r);
      AppendFrontier(optimizer.ResultPlans(inf, r), &text);
    }
  }
  EXPECT_EQ(Hex(Fnv1a64(text)), "0xa8a947e85c88299a");
}

// Full refinement series at infinite bounds on three random trees.
TEST(FrontierDigest, RandomTreeRefinementSeries) {
  const ResolutionSchedule schedule(5, 1.02, 0.3);
  const CostVector inf = CostVector::Infinite(3);

  std::string text;
  for (const uint64_t seed : {7u, 19u, 42u}) {
    RandomWorld world = MakeRandomWorld(seed, 5, /*sampling=*/true);
    IncrementalOptimizer optimizer(*world.factory, schedule, inf);
    for (int r = 0; r <= schedule.MaxResolution(); ++r) {
      optimizer.Optimize(inf, r);
      AppendFrontier(optimizer.ResultPlans(inf, r), &text);
    }
  }
  EXPECT_EQ(Hex(Fnv1a64(text)), "0x7df20073fb0b6e3a");
}

// Bounds interaction: tighten below the first frontier (resolution resets,
// parked candidates), then relax past it and finally drop the bounds
// (re-enumeration guarded by the fresh-pair registry). Every step's
// frontier is recorded at every resolution.
TEST(FrontierDigest, BoundsTightenThenRelax) {
  RandomWorld world = MakeRandomWorld(42, 5, /*sampling=*/false);
  const ResolutionSchedule schedule(4, 1.05, 0.4);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer optimizer(*world.factory, schedule, inf);

  optimizer.Optimize(inf, 0);
  const std::vector<CellIndex::Entry> initial = optimizer.ResultPlans(inf, 0);
  ASSERT_FALSE(initial.empty());
  CostVector worst = initial.front().cost;
  for (const CellIndex::Entry& e : initial) {
    for (int i = 0; i < worst.dims(); ++i) {
      worst[i] = std::max(worst[i], e.cost[i]);
    }
  }
  const CostVector tight = worst.Scaled(0.5);
  const CostVector relaxed = tight.Scaled(10.0);

  std::string text;
  AppendFrontier(initial, &text);
  for (const CostVector* bounds : {&tight, &relaxed, &inf}) {
    for (int r = 0; r <= schedule.MaxResolution(); ++r) {
      optimizer.Optimize(*bounds, r);
      for (int query_r = 0; query_r <= schedule.MaxResolution(); ++query_r) {
        AppendFrontier(optimizer.ResultPlans(*bounds, query_r), &text);
      }
    }
  }
  EXPECT_EQ(Hex(Fnv1a64(text)), "0xb9327ecd37228b37");
}

// The one-shot baseline's final plans, with their arena ids.
TEST(FrontierDigest, OneShotFinalPlans) {
  const CostVector inf = CostVector::Infinite(3);
  std::string text;
  for (const uint64_t seed : {3u, 11u}) {
    RandomWorld world = MakeRandomWorld(seed, 6, /*sampling=*/true);
    const OneShotResult result = RunOneShot(*world.factory, 1.05, inf);
    for (const PlanId id : result.FinalPlans(world.factory->NumTables())) {
      const PlanNode& node = result.arena.at(id);
      text += std::to_string(id) + '=';
      AppendPlan(node.cost, node.order, &text);
      text += ';';
    }
    text += '|';
  }
  EXPECT_EQ(Hex(Fnv1a64(text)), "0xfe2573563670bc32");
}

}  // namespace
}  // namespace moqo
