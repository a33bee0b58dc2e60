// Fresh sub-plan pair bookkeeping (paper Algorithm 3, function Fresh).
//
// The incremental optimizer must never combine the same pair of sub-plans
// twice across invocations (Lemma 6). Two mechanisms cooperate:
//   * the Δ-sets: only pairs with at least one member whose visibility is
//     new in the current invocation are enumerated (see
//     CellIndex::Collect), which keeps enumeration cost proportional to
//     the change between invocations; and
//   * the IsFresh predicate: a set over ordered (left, right) plan-id
//     pairs, which guarantees at-most-once generation even when the Δ-sets
//     degenerate to the full sets (e.g. after the user relaxes bounds).
//
// Layout. Phase 2 calls Mark once per enumerated pair (millions per
// session), so the set is a flat open-addressing table of packed 64-bit
// pair keys: linear probing from a splitmix64 hash over a power-of-two
// table that doubles at 3/4 load. There are no per-pair nodes; a pair
// costs about 11 B just before a growth and 21 B just after one.
//
// The all-ones key (kInvalidPlan, kInvalidPlan) marks an empty slot. It
// never names a real pair: PlanArena::Append CHECKs that no plan id
// reaches kInvalidPlan. Mark CHECKs that it is not handed that key, and
// IsFresh reports it as fresh.
#ifndef MOQO_CORE_FRESH_H_
#define MOQO_CORE_FRESH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/common.h"

namespace moqo {

class FreshPairRegistry {
 public:
  // True if the ordered pair (left, right) has not been combined yet.
  bool IsFresh(uint32_t left, uint32_t right) const {
    const uint64_t key = PairKey(left, right);
    if (slots_.empty() || key == kEmpty) return true;
    for (size_t i = Mix(key) & mask_; slots_[i] != kEmpty;
         i = (i + 1) & mask_) {
      if (slots_[i] == key) return false;
    }
    return true;
  }

  // Records the pair as combined; returns false if it already was.
  bool Mark(uint32_t left, uint32_t right) {
    const uint64_t key = PairKey(left, right);
    MOQO_CHECK(key != kEmpty);
    if (MOQO_PREDICT_FALSE((count_ + 1) * 4 > slots_.size() * 3)) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    size_t i = Mix(key) & mask_;
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    ++count_;
    return true;
  }

  size_t size() const { return count_; }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr size_t kMinCapacity = 64;

  static uint64_t PairKey(uint32_t left, uint32_t right) {
    return (static_cast<uint64_t>(left) << 32) | right;
  }

  // splitmix64 finalizer (as CellIndex::KeyMap::Mix): consecutive plan
  // ids differ in few low bits, which identity hashing would cluster.
  static size_t Mix(uint64_t key) {
    uint64_t z = key + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return static_cast<size_t>(z ^ (z >> 31));
  }

  void Rehash(size_t capacity) {
    std::vector<uint64_t> old(capacity, kEmpty);
    old.swap(slots_);
    mask_ = capacity - 1;
    for (const uint64_t key : old) {
      if (key == kEmpty) continue;
      size_t i = Mix(key) & mask_;
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<uint64_t> slots_;  // kEmpty = free slot.
  size_t count_ = 0;
  size_t mask_ = 0;  // capacity - 1 once allocated.
};

}  // namespace moqo

#endif  // MOQO_CORE_FRESH_H_
