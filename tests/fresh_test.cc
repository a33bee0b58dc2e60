#include <cstdint>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "core/fresh.h"
#include "util/rng.h"

namespace moqo {
namespace {

TEST(FreshPairRegistryTest, MarksPairsOnce) {
  FreshPairRegistry reg;
  EXPECT_TRUE(reg.IsFresh(1, 2));
  EXPECT_TRUE(reg.Mark(1, 2));
  EXPECT_FALSE(reg.IsFresh(1, 2));
  EXPECT_FALSE(reg.Mark(1, 2));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(FreshPairRegistryTest, OrderedPairsAreDistinct) {
  // (a, b) and (b, a) are different combinations: join operators are
  // asymmetric (build vs probe side, outer vs inner).
  FreshPairRegistry reg;
  EXPECT_TRUE(reg.Mark(1, 2));
  EXPECT_TRUE(reg.IsFresh(2, 1));
  EXPECT_TRUE(reg.Mark(2, 1));
  EXPECT_EQ(reg.size(), 2u);
}

TEST(FreshPairRegistryTest, LargeIdsDoNotCollide) {
  FreshPairRegistry reg;
  EXPECT_TRUE(reg.Mark(0xFFFFFFFFu, 0));
  EXPECT_TRUE(reg.IsFresh(0, 0xFFFFFFFFu));
  EXPECT_TRUE(reg.Mark(0xFFFFFFFEu, 1));
  EXPECT_FALSE(reg.IsFresh(0xFFFFFFFFu, 0));
  EXPECT_EQ(reg.size(), 2u);
}

// 200 k marks through many table growths, checked after every mark
// against an ordered-set reference. Ids are drawn from a small range, so
// a quarter of the marks repeat an earlier pair, and from the top of the
// id space, so keys one bit from the reserved all-ones key are stored.
TEST(FreshPairRegistryTest, MatchesReferenceSetAcrossGrowths) {
  FreshPairRegistry reg;
  std::set<std::pair<uint32_t, uint32_t>> reference;
  Rng rng(17);
  for (int i = 0; i < 200000; ++i) {
    uint32_t left = static_cast<uint32_t>(rng.Uniform(600));
    uint32_t right = static_cast<uint32_t>(rng.Uniform(600));
    if (i % 7 == 0) left = 0xFFFFFFFFu - left;
    if (i % 11 == 0) right = 0xFFFFFFFFu - right - 1;
    const bool expect_fresh = reference.count({left, right}) == 0;
    ASSERT_EQ(reg.IsFresh(left, right), expect_fresh) << "mark " << i;
    ASSERT_EQ(reg.Mark(left, right), expect_fresh) << "mark " << i;
    reference.insert({left, right});
    ASSERT_FALSE(reg.IsFresh(left, right)) << "mark " << i;
    ASSERT_EQ(reg.size(), reference.size()) << "mark " << i;
  }
  // Every remembered pair survived the growths.
  for (const auto& [left, right] : reference) {
    ASSERT_FALSE(reg.IsFresh(left, right));
  }
  EXPECT_GT(reference.size(), 100000u);
}

// The all-ones key (kInvalidPlan, kInvalidPlan) marks an empty slot, so it
// can never be stored: Mark refuses it, and IsFresh reports it fresh.
// No plan id reaches kInvalidPlan, so no real pair is affected.
TEST(FreshPairRegistryTest, ReservedKeyIsRefused) {
  FreshPairRegistry reg;
  EXPECT_TRUE(reg.IsFresh(0xFFFFFFFFu, 0xFFFFFFFFu));
  EXPECT_TRUE(reg.Mark(0xFFFFFFFFu, 0xFFFFFFFEu));
  EXPECT_TRUE(reg.IsFresh(0xFFFFFFFFu, 0xFFFFFFFFu));
  EXPECT_DEATH_IF_SUPPORTED(reg.Mark(0xFFFFFFFFu, 0xFFFFFFFFu), "kEmpty");
}

}  // namespace
}  // namespace moqo
