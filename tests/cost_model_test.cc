#include <cmath>

#include <gtest/gtest.h>

#include "catalog/tpch.h"
#include "plan/cost_model.h"
#include "query/generator.h"
#include "query/tpch_queries.h"
#include "util/rng.h"

namespace moqo {
namespace {

TableDef BigTable() { return {"big", 1000000.0, 100.0, true}; }

CostModel MakeModel(MetricSchema schema = MetricSchema::Standard3()) {
  return CostModel(std::move(schema), CostModelParams{});
}

TEST(ScanCostTest, FullSeqScanHasZeroError) {
  const CostModel model = MakeModel();
  const OpCost oc = model.ScanCost(
      BigTable(), 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0));
  const int err = model.schema().IndexOf(MetricId::kPrecisionError);
  EXPECT_DOUBLE_EQ(oc.cost[err], 0.0);
  EXPECT_DOUBLE_EQ(oc.output_rows, 1000000.0);
  EXPECT_GT(oc.cost[model.schema().IndexOf(MetricId::kTime)], 0.0);
}

TEST(ScanCostTest, SamplingTradesTimeForError) {
  const CostModel model = MakeModel();
  const TableDef t = BigTable();
  const OpCost full =
      model.ScanCost(t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0));
  const OpCost sampled = model.ScanCost(
      t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 0.0625));
  const int time = model.schema().IndexOf(MetricId::kTime);
  const int err = model.schema().IndexOf(MetricId::kPrecisionError);
  EXPECT_LT(sampled.cost[time], full.cost[time]);
  EXPECT_GT(sampled.cost[err], full.cost[err]);
  EXPECT_LT(sampled.output_rows, full.output_rows);
  EXPECT_LE(sampled.cost[err], 1.0);
}

TEST(ScanCostTest, CoarserSamplesHaveLargerError) {
  const CostModel model = MakeModel();
  const TableDef t = BigTable();
  const int err = model.schema().IndexOf(MetricId::kPrecisionError);
  double prev = 0.0;
  for (double rate : {0.25, 0.0625, 0.015625}) {
    const OpCost oc = model.ScanCost(
        t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, rate));
    EXPECT_GT(oc.cost[err], prev);
    prev = oc.cost[err];
  }
}

TEST(ScanCostTest, ParallelismTradesTimeForCores) {
  const CostModel model = MakeModel();
  const TableDef t = BigTable();
  const int time = model.schema().IndexOf(MetricId::kTime);
  const int cores = model.schema().IndexOf(MetricId::kCores);
  const OpCost w1 =
      model.ScanCost(t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0));
  const OpCost w8 =
      model.ScanCost(t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 8, 1.0));
  EXPECT_LT(w8.cost[time], w1.cost[time]);
  EXPECT_DOUBLE_EQ(w1.cost[cores], 1.0);
  EXPECT_DOUBLE_EQ(w8.cost[cores], 8.0);
}

TEST(ScanCostTest, ParallelismIncreasesFees) {
  const CostModel model = MakeModel(MetricSchema::Cloud2());
  const TableDef t = BigTable();
  const int fees = model.schema().IndexOf(MetricId::kFees);
  const OpCost w1 =
      model.ScanCost(t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0));
  const OpCost w8 =
      model.ScanCost(t, 1.0, OperatorDesc::Scan(ScanAlg::kSeqScan, 8, 1.0));
  EXPECT_GT(w8.cost[fees], w1.cost[fees]);
}

TEST(ScanCostTest, IndexScanWinsForSelectivePredicates) {
  const CostModel model = MakeModel();
  const TableDef t = BigTable();
  const int time = model.schema().IndexOf(MetricId::kTime);
  const auto seq = OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0);
  const auto idx = OperatorDesc::Scan(ScanAlg::kIndexScan, 1, 1.0);
  // Selective predicate: index wins.
  EXPECT_LT(model.ScanCost(t, 0.0001, idx).cost[time],
            model.ScanCost(t, 0.0001, seq).cost[time]);
  // Non-selective predicate: sequential wins.
  EXPECT_GT(model.ScanCost(t, 1.0, idx).cost[time],
            model.ScanCost(t, 1.0, seq).cost[time]);
}

// Builds a two-level plan by hand to exercise JoinCost.
struct JoinFixture {
  CostModel model = MakeModel();
  PlanNode left;
  PlanNode right;
  JoinFixture() {
    const OpCost l = model.ScanCost(
        BigTable(), 0.01, OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0));
    const OpCost r = model.ScanCost(
        {"dim", 1000.0, 100.0, true}, 1.0,
        OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0));
    left.tables = TableSet::Singleton(0);
    left.op = OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0);
    left.cost = l.cost;
    left.output_cardinality = l.output_rows;
    right.tables = TableSet::Singleton(1);
    right.op = OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0);
    right.cost = r.cost;
    right.output_cardinality = r.output_rows;
  }
};

TEST(JoinCostTest, MonotoneAggregation) {
  // Paper §5.1 requires the cost of a plan to be >= the cost of each
  // sub-plan in every metric.
  JoinFixture f;
  for (JoinAlg alg : {JoinAlg::kHashJoin, JoinAlg::kSortMergeJoin,
                      JoinAlg::kBlockNestedLoop}) {
    for (int w : {1, 4}) {
      const OpCost oc =
          f.model.JoinCost(f.left, f.right, 0.001, OperatorDesc::Join(alg, w));
      for (int i = 0; i < f.model.schema().dims(); ++i) {
        EXPECT_GE(oc.cost[i], f.left.cost[i]) << "metric " << i;
        EXPECT_GE(oc.cost[i], f.right.cost[i]) << "metric " << i;
      }
    }
  }
}

TEST(JoinCostTest, OutputCardinalityUsesSelectivity) {
  JoinFixture f;
  const OpCost oc = f.model.JoinCost(f.left, f.right, 0.001,
                                     OperatorDesc::Join(JoinAlg::kHashJoin, 1));
  EXPECT_DOUBLE_EQ(oc.output_rows,
                   f.left.output_cardinality * f.right.output_cardinality *
                       0.001);
}

TEST(JoinCostTest, CoresAreMaxOfChildrenAndOwnWorkers) {
  JoinFixture f;
  const int cores = f.model.schema().IndexOf(MetricId::kCores);
  f.left.cost[cores] = 4.0;
  f.right.cost[cores] = 2.0;
  const OpCost w1 = f.model.JoinCost(f.left, f.right, 0.001,
                                     OperatorDesc::Join(JoinAlg::kHashJoin, 1));
  EXPECT_DOUBLE_EQ(w1.cost[cores], 4.0);
  const OpCost w8 = f.model.JoinCost(f.left, f.right, 0.001,
                                     OperatorDesc::Join(JoinAlg::kHashJoin, 8));
  EXPECT_DOUBLE_EQ(w8.cost[cores], 8.0);
}

TEST(JoinCostTest, ErrorPropagatesWithInflation) {
  JoinFixture f;
  const int err = f.model.schema().IndexOf(MetricId::kPrecisionError);
  f.left.cost[err] = 0.1;
  f.right.cost[err] = 0.05;
  const OpCost oc = f.model.JoinCost(f.left, f.right, 0.001,
                                     OperatorDesc::Join(JoinAlg::kHashJoin, 1));
  EXPECT_DOUBLE_EQ(oc.cost[err],
                   0.1 * f.model.params().join_error_inflation);
  // Error is capped at 1.
  f.left.cost[err] = 0.99;
  const OpCost capped = f.model.JoinCost(
      f.left, f.right, 0.001, OperatorDesc::Join(JoinAlg::kHashJoin, 1));
  EXPECT_DOUBLE_EQ(capped.cost[err], 1.0);
}

// --- The PONO property on the full cost model. ---
//
// With sampling disabled, every plan for a table set has the same output
// cardinality, so plan cost is a pure function of the sub-plan cost
// vectors and the PONO of paper Definition 1 holds exactly. The property
// test substitutes randomly weakened sub-plan costs and verifies the
// aggregated cost is weakened by at most the same factor.
TEST(PonoModelTest, ExactForAllJoinOperatorsWithoutSampling) {
  Rng rng(77);
  const CostModel model = MakeModel();
  JoinFixture f;
  for (int trial = 0; trial < 500; ++trial) {
    const double alpha = 1.0 + rng.NextDouble();
    PlanNode weak_left = f.left;
    PlanNode weak_right = f.right;
    for (int i = 0; i < model.schema().dims(); ++i) {
      weak_left.cost[i] *= rng.UniformDouble(1.0, alpha);
      weak_right.cost[i] *= rng.UniformDouble(1.0, alpha);
    }
    const JoinAlg alg = static_cast<JoinAlg>(rng.Uniform(3));
    const int w = 1 << rng.Uniform(4);
    const OperatorDesc op = OperatorDesc::Join(alg, w);
    const OpCost base = model.JoinCost(f.left, f.right, 0.001, op);
    const OpCost weak = model.JoinCost(weak_left, weak_right, 0.001, op);
    for (int i = 0; i < model.schema().dims(); ++i) {
      EXPECT_LE(weak.cost[i], alpha * base.cost[i] + 1e-9)
          << "metric " << i << " alg " << static_cast<int>(alg);
    }
  }
}

TEST(OperatorsTest, ScanAlternativesCoverAlgorithmsAndRates) {
  OperatorOptions options;
  options.max_workers = 4;
  options.max_sampling_rates_per_table = 2;
  const auto alts = ScanAlternatives(BigTable(), options);
  int seq = 0, idx = 0, sampled = 0;
  for (const OperatorDesc& op : alts) {
    EXPECT_TRUE(op.is_scan);
    if (op.scan_alg() == ScanAlg::kSeqScan) ++seq;
    if (op.scan_alg() == ScanAlg::kIndexScan) {
      ++idx;
      EXPECT_EQ(op.workers, 1);  // Index scans are single-threaded.
    }
    if (op.sampling_permille != 1000) ++sampled;
  }
  EXPECT_GT(seq, 0);
  EXPECT_GT(idx, 0);
  EXPECT_GT(sampled, 0);
}

TEST(OperatorsTest, NoIndexScanWithoutIndex) {
  OperatorOptions options;
  TableDef t = BigTable();
  t.has_index = false;
  for (const OperatorDesc& op : ScanAlternatives(t, options)) {
    EXPECT_NE(op.scan_alg(), ScanAlg::kIndexScan);
  }
}

TEST(OperatorsTest, NestedLoopOnlyForSmallInputs) {
  OperatorOptions options;
  bool has_nl_small = false;
  for (const OperatorDesc& op : JoinAlternatives(100.0, 1e8, options)) {
    if (op.join_alg() == JoinAlg::kBlockNestedLoop) has_nl_small = true;
  }
  EXPECT_TRUE(has_nl_small);
  for (const OperatorDesc& op : JoinAlternatives(1e8, 1e8, options)) {
    EXPECT_NE(op.join_alg(), JoinAlg::kBlockNestedLoop);
  }
}

TEST(OperatorsTest, ToStringRendersVariants) {
  EXPECT_EQ(OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0).ToString(),
            "SeqScan");
  EXPECT_EQ(OperatorDesc::Scan(ScanAlg::kSeqScan, 4, 0.25).ToString(),
            "SeqScan(sample=25.0%)[w=4]");
  EXPECT_EQ(OperatorDesc::Join(JoinAlg::kHashJoin, 8).ToString(),
            "HashJoin[w=8]");
}

TEST(PlanFactoryTest, CanCombineRequiresEdgeAndConnectivity) {
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 3);
  ASSERT_FALSE(blocks.empty());
  const PlanFactory factory(blocks[0], catalog, MetricSchema::Standard3());
  // q3: c - o - l chain (c=0, o=1, l=2).
  EXPECT_TRUE(factory.CanCombine(TableSet(0b001), TableSet(0b010)));
  EXPECT_FALSE(factory.CanCombine(TableSet(0b001), TableSet(0b100)));
  EXPECT_FALSE(factory.CanCombine(TableSet(0b011), TableSet(0b010)));
  EXPECT_TRUE(factory.CanCombine(TableSet(0b011), TableSet(0b100)));
}

TEST(PlanFactoryTest, ForEachScanYieldsAllAlternatives) {
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 2);
  ASSERT_FALSE(blocks.empty());
  OperatorOptions op_options;
  const PlanFactory factory(blocks[0], catalog, MetricSchema::Standard3(),
                            CostModelParams{}, op_options);
  int count = 0;
  factory.ForEachScan(0, [&](const OperatorDesc& op, const OpCost& oc) {
    EXPECT_TRUE(op.is_scan);
    EXPECT_TRUE(oc.cost.IsFinite());
    EXPECT_TRUE(oc.cost.IsNonNegative());
    EXPECT_GE(oc.output_rows, 1.0);
    ++count;
  });
  const TableDef& table =
      catalog.Get(blocks[0].tables[0].table);
  EXPECT_EQ(static_cast<size_t>(count),
            ScanAlternatives(table, op_options).size());
}

// ForEachJoin iterates the factory's cached join lists; they must match
// JoinAlternatives for the inputs' cardinalities, in order, on both
// sides of the block-nested-loop threshold.
TEST(PlanFactoryTest, ForEachJoinYieldsJoinAlternativesInOrder) {
  const Catalog catalog = MakeTpchCatalog();
  const auto blocks = TpchBlocksWithTables(catalog, 2);
  ASSERT_FALSE(blocks.empty());
  OperatorOptions op_options;
  op_options.max_workers = 4;
  const PlanFactory factory(blocks[0], catalog, MetricSchema::Standard3(),
                            CostModelParams{}, op_options);
  JoinFixture f;
  for (double rows : {100.0, 1e8}) {
    f.left.output_cardinality = rows;
    f.right.output_cardinality = rows;
    const std::vector<OperatorDesc> want =
        JoinAlternatives(rows, rows, op_options);
    std::vector<OperatorDesc> got;
    factory.ForEachJoin(f.left, f.right,
                        [&](const OperatorDesc& op, const OpCost&) {
                          got.push_back(op);
                        });
    ASSERT_EQ(got.size(), want.size()) << rows;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].ToString(), want[i].ToString()) << i;
    }
  }
}

}  // namespace
}  // namespace moqo
