#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "index/cell_index.h"
#include "index/plan_set.h"
#include "util/rng.h"

namespace moqo {
namespace {

std::vector<uint32_t> SortedIds(const std::vector<CellIndex::Entry>& v) {
  std::vector<uint32_t> ids;
  for (const auto& e : v) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(CellIndexTest, InsertAndRangeQuery) {
  CellIndex index(2);
  index.Insert(1, CostVector{1.0, 1.0}, 0, 1);
  index.Insert(2, CostVector{10.0, 10.0}, 0, 1);
  index.Insert(3, CostVector{1.0, 1.0}, 2, 1);  // Higher resolution.
  EXPECT_EQ(index.size(), 3u);

  std::vector<uint32_t> ids;
  index.ForEachInRange(CostVector{5.0, 5.0}, 0,
                       [&](const CellIndex::Entry& e) {
                         ids.push_back(e.id);
                       });
  EXPECT_EQ(ids, (std::vector<uint32_t>{1}));

  ids.clear();
  index.ForEachInRange(CostVector{5.0, 5.0}, 2,
                       [&](const CellIndex::Entry& e) {
                         ids.push_back(e.id);
                       });
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint32_t>{1, 3}));
}

TEST(CellIndexTest, InfiniteBoundsMatchEverything) {
  CellIndex index(3);
  for (uint32_t i = 0; i < 50; ++i) {
    index.Insert(i, CostVector{static_cast<double>(i), 1e9, 0.0}, i % 4, 1);
  }
  int count = 0;
  index.ForEachInRange(CostVector::Infinite(3), 3,
                       [&](const CellIndex::Entry&) { ++count; });
  EXPECT_EQ(count, 50);
}

TEST(CellIndexTest, ZeroCostComponentsHandled) {
  CellIndex index(2);
  index.Insert(1, CostVector{0.0, 0.0}, 0, 1);
  index.Insert(2, CostVector{0.0, 5.0}, 0, 1);
  EXPECT_TRUE(index.AnyInRange(CostVector{0.0, 0.0}, 0));
  EXPECT_TRUE(index.AnyInRange(CostVector{0.0, 4.9}, 0));
  std::vector<uint32_t> ids;
  index.ForEachInRange(CostVector{0.0, 4.9}, 0,
                       [&](const CellIndex::Entry& e) {
                         ids.push_back(e.id);
                       });
  EXPECT_EQ(ids, (std::vector<uint32_t>{1}));
}

TEST(CellIndexTest, AnyInRangeCountsChecks) {
  CellIndex index(2);
  index.Insert(1, CostVector{3.0, 3.0}, 0, 1);
  uint64_t checks = 0;
  EXPECT_TRUE(index.AnyInRange(CostVector{3.5, 3.5}, 0, &checks));
  EXPECT_GE(checks, 0u);  // Boundary cells require per-entry checks.
  EXPECT_FALSE(index.AnyInRange(CostVector{2.9, 3.5}, 0, &checks));
}

TEST(CellIndexTest, DrainRemovesMatchingEntriesOnly) {
  CellIndex index(2);
  index.Insert(1, CostVector{1.0, 1.0}, 0, 1);
  index.Insert(2, CostVector{100.0, 1.0}, 0, 1);
  index.Insert(3, CostVector{1.0, 1.0}, 3, 1);  // resolution 3
  const auto drained = index.Drain(CostVector{50.0, 50.0}, 1);
  EXPECT_EQ(SortedIds(drained), (std::vector<uint32_t>{1}));
  EXPECT_EQ(index.size(), 2u);
  // Draining again finds nothing new.
  EXPECT_TRUE(index.Drain(CostVector{50.0, 50.0}, 1).empty());
  // The other entries are still retrievable.
  EXPECT_TRUE(index.AnyInRange(CostVector::Infinite(2), 3));
}

TEST(CellIndexTest, CollectMarksDeltaSemantics) {
  CellIndex index(2);
  index.Insert(1, CostVector{1.0, 1.0}, 0, /*invocation=*/1);
  const CostVector inf = CostVector::Infinite(2);

  // Invocation 1: freshly inserted entries are Δ.
  auto c1 = index.Collect(inf, 0, 1);
  ASSERT_EQ(c1.size(), 1u);
  EXPECT_TRUE(c1[0].delta);
  // Re-collection within the same invocation keeps the classification.
  c1 = index.Collect(inf, 0, 1);
  EXPECT_TRUE(c1[0].delta);

  // Invocation 2: visible in invocation 1, hence not Δ anymore.
  auto c2 = index.Collect(inf, 0, 2);
  ASSERT_EQ(c2.size(), 1u);
  EXPECT_FALSE(c2[0].delta);

  // Invocation 4 (skipping 3): the entry was not visible in invocation 3,
  // so it is Δ again (its pairings may be incomplete).
  auto c4 = index.Collect(inf, 0, 4);
  ASSERT_EQ(c4.size(), 1u);
  EXPECT_TRUE(c4[0].delta);
}

TEST(CellIndexTest, CollectRespectsRange) {
  CellIndex index(2);
  index.Insert(1, CostVector{1.0, 1.0}, 0, 1);
  index.Insert(2, CostVector{9.0, 9.0}, 0, 1);
  auto collected = index.Collect(CostVector{5.0, 5.0}, 0, 2);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].id, 1u);
  // Entry 2 was out of range, so its visibility stamp did not move: when
  // it becomes visible in invocation 3 it must be Δ.
  auto all = index.Collect(CostVector::Infinite(2), 0, 3);
  for (const auto& c : all) {
    if (c.id == 2) {
      EXPECT_TRUE(c.delta);
    }
    if (c.id == 1) {
      EXPECT_FALSE(c.delta);  // Visible in invocation 2.
    }
  }
}

TEST(CellIndexTest, ClearEmptiesIndex) {
  CellIndex index(2);
  index.Insert(1, CostVector{1.0, 1.0}, 0, 1);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.AnyInRange(CostVector::Infinite(2), 255));
}

// --- Bucket exactness: the exponent-bit path equals the libm formula. ---

// The cell coordinate as the log formula defines it: ⌊log v · (1/log γ)⌋
// clamped to [-127, 126], -128 for v <= 0 and 127 for +∞.
int ReferenceBucket(double value, double gamma) {
  if (value <= 0.0) return -128;
  if (std::isinf(value)) return 127;
  const double b = std::floor(std::log(value) * (1.0 / std::log(gamma)));
  if (b <= -127) return -127;
  if (b >= 126) return 126;
  return static_cast<int>(b);
}

// Checks `value` and the 4 doubles on either side of it.
void ExpectBucketsExactAround(const CellIndex& index, double gamma,
                              double value) {
  double below = value;
  double above = value;
  for (int step = 0; step <= 4; ++step) {
    ASSERT_EQ(index.Bucket(below), ReferenceBucket(below, gamma))
        << "gamma " << gamma << " value " << below;
    ASSERT_EQ(index.Bucket(above), ReferenceBucket(above, gamma))
        << "gamma " << gamma << " value " << above;
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, std::numeric_limits<double>::infinity());
  }
}

class CellBucketExactness : public ::testing::TestWithParam<double> {};

TEST_P(CellBucketExactness, RandomDoublesOverTheFullRange) {
  const double gamma = GetParam();
  const CellIndex index(1, gamma);
  Rng rng(2024);
  int checked = 0;
  while (checked < 1000000) {
    // A uniformly random bit pattern with the sign cleared: every
    // exponent, subnormals included, is equally likely.
    const uint64_t bits = rng.Next() & 0x7FFFFFFFFFFFFFFFull;
    if ((bits >> 52) == 0x7FF) continue;  // ∞ and NaN are not costs.
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    ASSERT_EQ(index.Bucket(value), ReferenceBucket(value, gamma))
        << "gamma " << gamma << " value " << value;
    ++checked;
  }
}

TEST_P(CellBucketExactness, PowersOfTwoAndTheirNeighbours) {
  const double gamma = GetParam();
  const CellIndex index(1, gamma);
  // Every power of two, subnormal ones included: the exponent-bit path
  // hands these to the formula.
  for (int e = -1074; e <= 1023; ++e) {
    ExpectBucketsExactAround(index, gamma, std::ldexp(1.0, e));
  }
}

TEST_P(CellBucketExactness, SpecialValuesAndClampEdges) {
  const double gamma = GetParam();
  const CellIndex index(1, gamma);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(index.Bucket(0.0), -128);
  EXPECT_EQ(index.Bucket(-0.0), -128);
  EXPECT_EQ(index.Bucket(inf), 127);
  EXPECT_EQ(index.Bucket(std::numeric_limits<double>::max()), 126);
  EXPECT_EQ(index.Bucket(std::numeric_limits<double>::denorm_min()), -127);
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t bits = rng.Next() & 0x000FFFFFFFFFFFFFull;  // Subnormal.
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    ASSERT_EQ(index.Bucket(value), ReferenceBucket(value, gamma)) << value;
  }
  // Either side of the clamps at ⌊log_γ v⌋ = -127 and 126.
  for (int k : {-129, -128, -127, -126, 125, 126, 127, 128}) {
    ExpectBucketsExactAround(index, gamma, std::pow(gamma, k));
  }
}

INSTANTIATE_TEST_SUITE_P(Gammas, CellBucketExactness,
                         ::testing::Values(2.0, 1.5));

// --- Property test: range queries agree with a linear scan. ---

struct BruteEntry {
  uint32_t id;
  CostVector cost;
  int res;
};

class CellIndexProperty : public ::testing::TestWithParam<int> {};

TEST_P(CellIndexProperty, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int dims = 1 + GetParam() % 4;
  CellIndex index(dims, 2.0);
  std::vector<BruteEntry> brute;
  for (uint32_t i = 0; i < 400; ++i) {
    CostVector v(dims);
    for (int d = 0; d < dims; ++d) {
      // Mix widely varying magnitudes incl. zeros.
      const double magnitude = std::pow(10.0, rng.UniformDouble(-4.0, 7.0));
      v[d] = rng.Bernoulli(0.05) ? 0.0 : magnitude;
    }
    const int res = static_cast<int>(rng.Uniform(6));
    index.Insert(i, v, res, 1);
    brute.push_back({i, v, res});
  }
  for (int trial = 0; trial < 50; ++trial) {
    CostVector bounds(dims);
    for (int d = 0; d < dims; ++d) {
      bounds[d] = rng.Bernoulli(0.1)
                      ? std::numeric_limits<double>::infinity()
                      : std::pow(10.0, rng.UniformDouble(-4.0, 7.0));
    }
    const int max_res = static_cast<int>(rng.Uniform(7));
    std::set<uint32_t> expected;
    for (const BruteEntry& e : brute) {
      if (e.res <= max_res && e.cost.Dominates(bounds)) expected.insert(e.id);
    }
    std::set<uint32_t> got;
    index.ForEachInRange(bounds, max_res, [&](const CellIndex::Entry& e) {
      EXPECT_TRUE(got.insert(e.id).second) << "duplicate id";
    });
    EXPECT_EQ(got, expected) << "trial " << trial;
    EXPECT_EQ(index.AnyInRange(bounds, max_res), !expected.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CellIndexProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CellIndexProperty2, DrainMatchesBruteForce) {
  Rng rng(999);
  const int dims = 3;
  CellIndex index(dims);
  std::vector<BruteEntry> brute;
  for (uint32_t i = 0; i < 300; ++i) {
    CostVector v(dims);
    for (int d = 0; d < dims; ++d) {
      v[d] = std::pow(10.0, rng.UniformDouble(-2.0, 5.0));
    }
    const int res = static_cast<int>(rng.Uniform(4));
    index.Insert(i, v, res, 1);
    brute.push_back({i, v, res});
  }
  // Drain in several rounds with shrinking boxes.
  std::set<uint32_t> drained_total;
  for (double scale : {1e4, 1e2, 1e0}) {
    CostVector bounds(dims, scale);
    const auto drained = index.Drain(bounds, 3);
    for (const auto& e : drained) {
      EXPECT_TRUE(drained_total.insert(e.id).second)
          << "entry drained twice";
    }
  }
  std::set<uint32_t> expected;
  for (const BruteEntry& e : brute) {
    if (e.cost.Dominates(CostVector(dims, 1e4))) expected.insert(e.id);
  }
  EXPECT_EQ(drained_total, expected);
}

TEST(PlanSetTableTest, LazyCreationAndTotalSize) {
  PlanSetTable table(4, 2);
  EXPECT_EQ(table.TotalSize(), 0u);
  table.For(TableSet(0b0011)).Insert(1, CostVector{1.0, 1.0}, 0, 1);
  table.For(TableSet(0b1100)).Insert(2, CostVector{2.0, 2.0}, 0, 1);
  table.For(TableSet(0b0011)).Insert(3, CostVector{3.0, 3.0}, 1, 1);
  EXPECT_EQ(table.TotalSize(), 3u);
  EXPECT_EQ(table.For(TableSet(0b0011)).size(), 2u);
  EXPECT_EQ(table.For(TableSet(0b1111)).size(), 0u);
}

}  // namespace
}  // namespace moqo
