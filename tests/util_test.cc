#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/status.h"
#include "util/str.h"
#include "util/table_set.h"

namespace moqo {
namespace {

TEST(TableSetTest, EmptyAndSingleton) {
  TableSet empty;
  EXPECT_TRUE(empty.Empty());
  EXPECT_EQ(empty.Count(), 0);

  TableSet s = TableSet::Singleton(3);
  EXPECT_FALSE(s.Empty());
  EXPECT_EQ(s.Count(), 1);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(2));
  EXPECT_EQ(s.Lowest(), 3);
}

TEST(TableSetTest, FullSet) {
  TableSet full = TableSet::Full(5);
  EXPECT_EQ(full.Count(), 5);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(full.Contains(i));
  EXPECT_FALSE(full.Contains(5));
}

TEST(TableSetTest, SetAlgebra) {
  TableSet a(0b1010);
  TableSet b(0b0110);
  EXPECT_EQ(a.Union(b).mask(), 0b1110u);
  EXPECT_EQ(a.Intersect(b).mask(), 0b0010u);
  EXPECT_EQ(a.Minus(b).mask(), 0b1000u);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(TableSet(0b0100)));
  EXPECT_TRUE(a.ContainsAll(TableSet(0b1000)));
  EXPECT_FALSE(a.ContainsAll(b));
}

TEST(TableSetTest, IterationVisitsAllMembers) {
  TableSet s(0b101101);
  std::vector<int> tables;
  for (TableIter it(s); !it.Done(); it.Next()) tables.push_back(it.Table());
  EXPECT_EQ(tables, (std::vector<int>{0, 2, 3, 5}));
}

TEST(TableSetTest, SubsetIterEnumeratesProperNonEmptySubsets) {
  TableSet s(0b1011);
  std::set<uint32_t> seen;
  for (SubsetIter it(s); !it.Done(); it.Next()) {
    const TableSet sub = it.Subset();
    EXPECT_TRUE(s.ContainsAll(sub));
    EXPECT_FALSE(sub.Empty());
    EXPECT_NE(sub, s);
    EXPECT_EQ(sub.Union(it.Complement()), s);
    EXPECT_FALSE(sub.Intersects(it.Complement()));
    seen.insert(sub.mask());
  }
  // 2^3 - 2 = 6 proper non-empty subsets.
  EXPECT_EQ(seen.size(), 6u);
}

TEST(TableSetTest, SubsetIterOnSingleton) {
  int count = 0;
  for (SubsetIter it(TableSet::Singleton(2)); !it.Done(); it.Next()) ++count;
  EXPECT_EQ(count, 0);
}

TEST(TableSetTest, SubsetIterOnEmptySet) {
  int count = 0;
  for (SubsetIter it{TableSet()}; !it.Done(); it.Next()) ++count;
  EXPECT_EQ(count, 0);
}

TEST(TableSetTest, SubsetIterOnFullSixteenTableSet) {
  // The largest supported query block: 2^16 - 2 proper non-empty subsets,
  // each split exact and disjoint.
  const TableSet full = TableSet::Full(kMaxTables);
  EXPECT_EQ(full.mask(), 0xFFFFu);
  EXPECT_EQ(full.Count(), kMaxTables);
  size_t count = 0;
  for (SubsetIter it(full); !it.Done(); it.Next()) {
    ++count;
    EXPECT_EQ(it.Subset().Union(it.Complement()), full);
    EXPECT_FALSE(it.Subset().Intersects(it.Complement()));
  }
  EXPECT_EQ(count, (size_t{1} << kMaxTables) - 2);
}

TEST(TableSetTest, TableIterOnEmptySingletonAndFullSets) {
  EXPECT_TRUE(TableIter(TableSet()).Done());

  TableIter single(TableSet::Singleton(kMaxTables - 1));
  EXPECT_EQ(single.Table(), kMaxTables - 1);
  single.Next();
  EXPECT_TRUE(single.Done());

  std::vector<int> tables;
  for (TableIter it(TableSet::Full(kMaxTables)); !it.Done(); it.Next()) {
    tables.push_back(it.Table());
  }
  ASSERT_EQ(tables.size(), static_cast<size_t>(kMaxTables));
  for (int i = 0; i < kMaxTables; ++i) EXPECT_EQ(tables[i], i);
}

TEST(TableSetTest, ConstructorGuardsRejectOutOfRangeIndices) {
  // Shifts by out-of-range amounts are UB; the guards must fire before.
  EXPECT_DEATH(TableSet::Singleton(-1), "table");
  EXPECT_DEATH(TableSet::Singleton(kMaxTables), "table");
  EXPECT_DEATH(TableSet::Full(-1), "num_tables");
  EXPECT_DEATH(TableSet::Full(kMaxTables + 1), "num_tables");
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformRanges) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(StatusTest, OkStatus) {
  Status s = Status::OK();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorStatusCarriesMessage) {
  Status s = Status::InvalidArgument("bad bounds");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad bounds");
}

TEST(StatusTest, StatusOrValue) {
  StatusOr<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);

  StatusOr<int> err(Status::NotFound("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(StrTest, Format) {
  EXPECT_EQ(StrFormat("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StrTest, Join) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

}  // namespace
}  // namespace moqo
