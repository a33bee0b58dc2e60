// Tests for the plan arena, plan printing, and instrumentation counters.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/counters.h"
#include "plan/arena.h"
#include "plan/plan_printer.h"
#include "query/query.h"
#include "util/rng.h"
#include "viz/frontier_view.h"

namespace moqo {
namespace {

TEST(PlanArenaTest, AddScanAndJoin) {
  PlanArena arena;
  const PlanId a = arena.AddScan(
      TableSet::Singleton(0), OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0),
      CostVector{1.0, 1.0}, 100.0);
  const PlanId b = arena.AddScan(
      TableSet::Singleton(1),
      OperatorDesc::Scan(ScanAlg::kIndexScan, 1, 1.0), CostVector{2.0, 1.0},
      50.0, /*order=*/3);
  const PlanId j = arena.AddJoin(
      TableSet(0b11), a, b, OperatorDesc::Join(JoinAlg::kHashJoin, 2),
      CostVector{5.0, 2.0}, 10.0);
  EXPECT_EQ(arena.size(), 3u);
  EXPECT_TRUE(arena.at(a).IsScan());
  EXPECT_FALSE(arena.at(j).IsScan());
  EXPECT_EQ(arena.at(j).left, a);
  EXPECT_EQ(arena.at(j).right, b);
  EXPECT_EQ(arena.at(b).order, 3);
  EXPECT_EQ(arena.at(j).order, 0);
  EXPECT_DOUBLE_EQ(arena.at(j).output_cardinality, 10.0);
}

// Appends `count` random scans, joins and fragments at `dims` metrics and
// returns the nodes as appended, indexed by id.
std::vector<PlanNode> FillArena(PlanArena& arena, int dims, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<PlanNode> added;
  for (size_t i = 0; i < count; ++i) {
    PlanNode n;
    n.tables = TableSet(static_cast<uint32_t>(rng.Uniform(1u << 16)));
    n.cost = CostVector(dims);
    for (int d = 0; d < dims; ++d) n.cost[d] = rng.UniformDouble(0.0, 1e9);
    n.output_cardinality = rng.UniformDouble(1.0, 1e12);
    n.order = static_cast<uint8_t>(rng.Uniform(256));
    const uint64_t kind = added.empty() ? 0 : rng.Uniform(3);
    if (kind == 0) {
      n.op = OperatorDesc::Scan(ScanAlg::kIndexScan,
                                static_cast<int>(rng.UniformInt(1, 8)), 0.5);
      EXPECT_EQ(arena.AddScan(n.tables, n.op, n.cost, n.output_cardinality,
                              n.order),
                added.size());
    } else if (kind == 1) {
      n.op = OperatorDesc::Join(JoinAlg::kSortMergeJoin,
                                static_cast<int>(rng.UniformInt(1, 8)));
      n.left = static_cast<PlanId>(rng.Uniform(added.size()));
      n.right = static_cast<PlanId>(rng.Uniform(added.size()));
      EXPECT_EQ(arena.AddJoin(n.tables, n.left, n.right, n.op, n.cost,
                              n.output_cardinality, n.order),
                added.size());
    } else {
      n.op = OperatorDesc::Join(JoinAlg::kHashJoin, 2);
      n.is_fragment = true;
      EXPECT_EQ(arena.AddFragment(n.tables, n.op, n.cost,
                                  n.output_cardinality, n.order),
                added.size());
    }
    added.push_back(n);
  }
  return added;
}

// Every field of every plan reads back exactly, through at() and
// cost_data().
void ExpectArenaHolds(const PlanArena& arena,
                      const std::vector<PlanNode>& expected) {
  ASSERT_EQ(arena.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const PlanId id = static_cast<PlanId>(i);
    const PlanNode& want = expected[i];
    const PlanNode got = arena.at(id);
    ASSERT_EQ(got.tables, want.tables) << "id " << id;
    ASSERT_EQ(got.left, want.left) << "id " << id;
    ASSERT_EQ(got.right, want.right) << "id " << id;
    ASSERT_EQ(got.op.is_scan, want.op.is_scan) << "id " << id;
    ASSERT_EQ(got.op.alg, want.op.alg) << "id " << id;
    ASSERT_EQ(got.op.workers, want.op.workers) << "id " << id;
    ASSERT_EQ(got.op.sampling_permille, want.op.sampling_permille)
        << "id " << id;
    ASSERT_EQ(got.output_cardinality, want.output_cardinality) << "id " << id;
    ASSERT_EQ(got.order, want.order) << "id " << id;
    ASSERT_EQ(got.is_fragment, want.is_fragment) << "id " << id;
    ASSERT_EQ(got.cost.dims(), want.cost.dims()) << "id " << id;
    for (int d = 0; d < want.cost.dims(); ++d) {
      ASSERT_EQ(got.cost[d], want.cost[d]) << "id " << id << " dim " << d;
      ASSERT_EQ(arena.cost_data(id)[d], want.cost[d])
          << "id " << id << " dim " << d;
    }
  }
}

TEST(PlanArenaTest, ReadsBackEveryFieldAcrossChunks) {
  const size_t count = 2 * PlanArena::kChunkPlans + 123;
  for (int dims : {1, 3, kMaxMetrics}) {
    SCOPED_TRACE(dims);
    PlanArena arena;
    const std::vector<PlanNode> added =
        FillArena(arena, dims, count, static_cast<uint64_t>(dims));
    EXPECT_EQ(arena.dims(), dims);
    ExpectArenaHolds(arena, added);
  }
}

TEST(PlanArenaTest, MoveTransfersOwnership) {
  PlanArena arena;
  const std::vector<PlanNode> added =
      FillArena(arena, 3, PlanArena::kChunkPlans + 7, 11);
  PlanArena moved = std::move(arena);
  ExpectArenaHolds(moved, added);
  EXPECT_EQ(arena.size(), 0u);
  PlanArena assigned;
  assigned = std::move(moved);
  ExpectArenaHolds(assigned, added);
  // The emptied source takes appends again, at any dims.
  EXPECT_EQ(moved.size(), 0u);
  EXPECT_EQ(moved.AddScan(TableSet::Singleton(0),
                          OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0),
                          CostVector{1.0}, 1.0),
            0u);
}

TEST(PlanArenaTest, StoresAtMost56BytesPerPlanAtThreeMetrics) {
  EXPECT_LE(PlanArena::BytesPerPlan(3), 56u);
}

TEST(PlanArenaDeathTest, AtRejectsIdPastTheEnd) {
  PlanArena arena;
  FillArena(arena, 3, 5, 3);
  EXPECT_DEATH(arena.at(static_cast<PlanId>(arena.size())), "id < size_");
}

TEST(PlanArenaDeathTest, AppendRejectsADifferentCostDimension) {
  PlanArena arena;
  FillArena(arena, 3, 5, 4);
  EXPECT_DEATH(arena.AddScan(TableSet::Singleton(0),
                             OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0),
                             CostVector{1.0, 2.0}, 1.0),
               "dims");
}

struct PrinterFixture {
  Catalog catalog;
  Query query;
  PlanArena arena;
  PlanId join;

  PrinterFixture() {
    const TableId a = catalog.AddTable({"alpha", 100.0, 100.0, true});
    const TableId b = catalog.AddTable({"beta", 100.0, 100.0, true});
    QueryBuilder builder("q");
    builder.AddTable(a, 1.0, "A");
    builder.AddTable(b);  // No alias: printed as t1.
    builder.AddJoin(0, 1, 0.01);
    query = builder.Build();
    const PlanId s0 = arena.AddScan(
        TableSet::Singleton(0),
        OperatorDesc::Scan(ScanAlg::kSeqScan, 1, 1.0), CostVector{1.0},
        100.0);
    const PlanId s1 = arena.AddScan(
        TableSet::Singleton(1),
        OperatorDesc::Scan(ScanAlg::kIndexScan, 1, 0.25), CostVector{0.5},
        25.0);
    join = arena.AddJoin(TableSet(0b11), s0, s1,
                         OperatorDesc::Join(JoinAlg::kSortMergeJoin, 4),
                         CostVector{3.0}, 10.0);
  }
};

TEST(PlanPrinterTest, OneLineRendering) {
  PrinterFixture f;
  EXPECT_EQ(PlanToString(f.arena, f.join, f.query),
            "SortMergeJoin[w=4](SeqScan(A), IndexScan(sample=25.0%)(t1))");
}

TEST(PlanPrinterTest, TreeRenderingContainsCostsAndRows) {
  PrinterFixture f;
  const std::string tree = PlanToTreeString(f.arena, f.join, f.query);
  EXPECT_NE(tree.find("SortMergeJoin[w=4]  rows=10"), std::string::npos);
  EXPECT_NE(tree.find("  SeqScan(A)"), std::string::npos);
  EXPECT_NE(tree.find("cost=[3]"), std::string::npos);
  // Children indented deeper than the root.
  EXPECT_LT(tree.find("SortMergeJoin"), tree.find("SeqScan"));
}

TEST(CountersTest, ToStringContainsAllFields) {
  Counters c;
  c.plans_generated = 7;
  c.pairs_generated = 3;
  c.candidate_retrievals = 11;
  const std::string s = c.ToString();
  EXPECT_NE(s.find("plans=7"), std::string::npos);
  EXPECT_NE(s.find("pairs=3"), std::string::npos);
  EXPECT_NE(s.find("cand_retrievals=11"), std::string::npos);
}

TEST(CountersTest, PerPlanTrackingIsOptIn) {
  Counters c;
  c.OnCandidateRetrieved(5);
  EXPECT_TRUE(c.retrievals_by_plan.empty());
  c.track_per_plan = true;
  c.OnCandidateRetrieved(5);
  c.OnCandidateRetrieved(5);
  EXPECT_EQ(c.retrievals_by_plan[5], 2u);
  EXPECT_EQ(c.candidate_retrievals, 3u);
}

std::vector<CellIndex::Entry> MakeEntries(
    std::initializer_list<CostVector> costs) {
  std::vector<CellIndex::Entry> out;
  uint32_t id = 0;
  for (const CostVector& c : costs) {
    CellIndex::Entry e;
    e.id = id++;
    e.cost = c;
    out.push_back(e);
  }
  return out;
}

TEST(FrontierViewTest, ScatterRendersPoints) {
  const auto entries = MakeEntries(
      {CostVector{1.0, 10.0, 0.0}, CostVector{10.0, 1.0, 0.0}});
  const std::string plot = RenderScatter(
      entries, MetricSchema::Standard3(), CostVector::Infinite(3));
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find("x=time"), std::string::npos);
  EXPECT_NE(plot.find("y=cores"), std::string::npos);
  EXPECT_NE(plot.find("(2 plans)"), std::string::npos);
}

TEST(FrontierViewTest, ScatterRespectsBounds) {
  const auto entries = MakeEntries(
      {CostVector{1.0, 1.0, 0.0}, CostVector{100.0, 1.0, 0.0}});
  CostVector bounds = CostVector::Infinite(3);
  bounds[0] = 10.0;
  const std::string plot =
      RenderScatter(entries, MetricSchema::Standard3(), bounds);
  EXPECT_NE(plot.find("(1 plans)"), std::string::npos);
}

TEST(FrontierViewTest, EmptyFrontierRendersPlaceholder) {
  const std::string plot = RenderScatter({}, MetricSchema::Standard3(),
                                         CostVector::Infinite(3));
  EXPECT_NE(plot.find("no plans"), std::string::npos);
}

TEST(FrontierViewTest, TableSortedByFirstMetric) {
  const auto entries = MakeEntries(
      {CostVector{5.0, 1.0, 0.0}, CostVector{1.0, 2.0, 0.5}});
  const std::string table =
      RenderTable(entries, MetricSchema::Standard3());
  // Row 0 is the cheaper-time plan.
  const size_t row0 = table.find("\n  0   ");
  const size_t row1 = table.find("\n  1   ");
  ASSERT_NE(row0, std::string::npos);
  ASSERT_NE(row1, std::string::npos);
  EXPECT_LT(table.find("precision_error"), row0);
  EXPECT_LT(row0, row1);
}

TEST(FrontierViewTest, TableTruncatesAtMaxRows) {
  std::vector<CellIndex::Entry> entries;
  for (int i = 0; i < 10; ++i) {
    CellIndex::Entry e;
    e.id = static_cast<uint32_t>(i);
    e.cost = CostVector{static_cast<double>(i), 0.0, 0.0};
    entries.push_back(e);
  }
  const std::string table =
      RenderTable(entries, MetricSchema::Standard3(), 3);
  EXPECT_NE(table.find("... 7 more"), std::string::npos);
}

}  // namespace
}  // namespace moqo
