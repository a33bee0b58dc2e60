// CellIndex: multidimensional range-queryable plan index.
//
// The paper indexes result and candidate plans by cost vector and by
// resolution level and retrieves them with range queries of the form
// S[0..b, 0..r] (§4.1). Following the paper's §5.3 and footnote 3, we use a
// cell structure in the spirit of Bentley & Friedman [3] with logarithmic
// partitioning of the cost space: each plan lives in the cell identified by
// (resolution level, interesting-order tag, ⌊log_γ cost_i⌋ for each metric
// i). A range query walks the occupied cells, skips cells entirely outside
// the query box via integer comparisons on the packed cell key, takes cells
// strictly inside wholesale, and filters entries only in boundary cells.
//
// Bucket computation. Every insert and every range query computes one
// log bucket per metric. At γ = 2 the bucket of a normal double is its
// binary exponent, read from the bits; only values within 2^-22 of a
// power of two (and zero, subnormals and ∞) go through the libm formula
// ⌊log c · (1/log γ)⌋, whose rounding there could fall on either side.
// Other γ always use the formula. Either way every key is exactly the
// formula's (tests/cell_index_test.cc checks it).
//
// Data-oriented layout (docs/KERNEL.md). Cells are stored in a flat
// vector in creation order; a small open-addressing hash maps the packed
// 64-bit cell key to its slot — no per-node allocation, no pointer-chasing
// bucket walks. Each cell keeps its entries in struct-of-arrays form: the
// cost vectors live in a pareto/kernel.h CostBank (per-metric contiguous
// double lanes, arena-bump-allocated when the owning PlanSetTable supplies
// its arena), with the plan id and Δ-visibility state in one parallel
// payload array.
// Boundary-cell filtering and dominance probes run the kernel's batched
// primitives (FilterByBounds / FindDominating) over whole lanes instead of
// per-entry CostVector comparisons. Iteration order — and therefore every
// downstream insertion order — is a deterministic function of the
// insertion history alone, which is what the bit-identity suites (shard
// counts, warm vs cold fragment seeding, remote vs in-process) rely on.
//
// The index additionally maintains per-entry *visibility stamps* used by
// the optimizer's Δ-set logic (paper §4.2, function Fresh): Collect()
// marks every retrieved entry with the current invocation number and
// reports whether the entry was already visible in the immediately
// preceding invocation. Entries that were not are exactly the Δ-set
// members that still need to be combined with their peers.
#ifndef MOQO_INDEX_CELL_INDEX_H_
#define MOQO_INDEX_CELL_INDEX_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "cost/cost_vector.h"
#include "pareto/kernel.h"
#include "util/common.h"

namespace moqo {

// Wildcard for the `required_order` parameter of range queries: match
// entries with any interesting-order tag.
inline constexpr int kAnyOrder = -1;

// Visibility-stamp sentinel: an entry whose last_visible is kNeverVisible
// classifies as Δ at its first Collect in *any* invocation i >= 1
// (kNeverVisible + 1 wraps to 0, which never equals a live invocation
// number). Used for seeded fragment entries and by ResetVisibility —
// real invocation counters start at 1 and can never reach it.
inline constexpr uint32_t kNeverVisible = 0xFFFFFFFFu;

class CellIndex {
 public:
  // A materialized entry view (the storage itself is struct-of-arrays).
  struct Entry {
    uint32_t id = 0;             // Caller-defined payload (PlanId).
    uint32_t last_visible = 0;   // Last invocation that collected this entry.
    CostVector cost;
    uint8_t resolution = 0;
    uint8_t order = 0;           // Interesting-order tag (0 = unordered).
    bool delta = true;           // Entry classification in `last_visible`.
  };

  // A retrieved entry together with its Δ classification for the current
  // invocation. Deliberately slim — phase 2 streams over millions of
  // these per step and only pairs ids; costs stay in the bank lanes.
  struct Collected {
    uint32_t id = 0;
    bool delta = true;
  };

  // `dims` is the number of cost metrics; `gamma` the logarithmic cell
  // width (costs c and c' share a dimension bucket iff
  // ⌊log_γ c⌋ = ⌊log_γ c'⌋). When `arena` is non-null the cells' cost
  // lanes are bump-allocated from it (it must outlive the index);
  // otherwise the index owns heap storage.
  explicit CellIndex(int dims, double gamma = 2.0,
                     BankArena* arena = nullptr);

  // Inserts an entry; `invocation` stamps it as first visible (and Δ) in
  // the given optimizer invocation. `order` tags the plan's interesting
  // tuple order (0 = none); the order participates in the cell key so
  // order-restricted dominance queries skip whole cells.
  void Insert(uint32_t id, const CostVector& cost, int resolution,
              uint32_t invocation, int order = 0);

  // Visits every entry with resolution <= max_res and cost ⪯ bounds.
  // Does not touch visibility stamps.
  template <typename F>
  void ForEachInRange(const CostVector& bounds, int max_res, F&& fn) const {
    const Key bound_key = BoundKey(bounds, max_res);
    std::vector<uint8_t> mask;
    Entry scratch;
    for (const Cell& cell : cells_) {
      if (cell.size() == 0) continue;
      const CellRelation rel = Classify(cell.key, bound_key, kAnyOrder);
      if (rel == CellRelation::kOutside) continue;
      const uint8_t* filter = nullptr;
      if (rel == CellRelation::kBoundary) {
        mask.resize(cell.size());
        FilterByBounds(cell.bank, bounds.data(), mask.data());
        filter = mask.data();
      }
      for (size_t i = 0; i < cell.size(); ++i) {
        if (filter != nullptr && filter[i] == 0) continue;
        fn(MaterializeEntry(cell, i, &scratch));
      }
    }
  }

  // True if some entry with resolution <= max_res and a matching order
  // tag (kAnyOrder = all) has cost ⪯ bounds. If `checked` is non-null,
  // the number of per-entry dominance checks performed is added to it
  // (instrumentation for Prune).
  bool AnyInRange(const CostVector& bounds, int max_res,
                  uint64_t* checked = nullptr,
                  int required_order = kAnyOrder) const;

  // Finds some entry with resolution <= max_res, matching order tag, and
  // cost ⪯ bounds; returns true and materializes it into `*out` (when
  // non-null). The batched replacement of the old pointer-returning
  // lookup: entries live in lanes, so there is no node to point at.
  bool FindInRange(const CostVector& bounds, int max_res, Entry* out,
                   uint64_t* checked = nullptr,
                   int required_order = kAnyOrder) const;

  // Retrieves all entries in range for optimizer invocation `invocation`,
  // updating visibility stamps: an entry's Δ flag is true iff it was not
  // visible during invocation-1 (or was inserted/classified Δ earlier in
  // the current invocation).
  std::vector<Collected> Collect(const CostVector& bounds, int max_res,
                                 uint32_t invocation);

  // Removes and returns all entries with resolution <= max_res and
  // cost ⪯ bounds. (Used to re-consider candidate plans: Algorithm 2
  // lines 8-9 retrieve and delete candidates before pruning them again.)
  std::vector<Entry> Drain(const CostVector& bounds, int max_res);

  // Marks every entry as never collected (last_visible = kNeverVisible),
  // so the next Collect classifies all of them as Δ regardless of the
  // invocation number. Used when a bounds change hits a fragment-seeded
  // optimizer: sealed cells were never enumerated, so their sub-plan
  // pairings must all be (re)tried — the fresh-pair registry keeps
  // already-combined pairs from generating twice.
  void ResetVisibility();

  size_t size() const { return size_; }
  size_t NumCells() const;
  void Clear();

  // The per-metric cell coordinate of a cost value: ⌊log_γ value⌋,
  // clamped to [-127, 126], with -128 for value <= 0 and 127 for +∞.
  // With γ = 2 (every optimizer's default) it reads the exponent bits
  // and falls back to the libm formula only within 2^-22 of a power of
  // two, where the formula's rounding could land on either side; the
  // result is identical to the formula for every double. Public so the
  // exactness tests can compare the two.
  int Bucket(double value) const;

 private:
  // Packed cell key: byte 7 = resolution, byte 6 = interesting-order tag,
  // bytes 0..5 = biased per-dimension log buckets. Comparisons are
  // per-byte.
  using Key = uint64_t;

  enum class CellRelation { kOutside, kBoundary, kInside };

  // Per-entry payload beside the cost lanes: the caller's id plus the
  // Δ-visibility state. One array rather than three parallel ones —
  // Collect, Drain, and the materializing walks always read every field
  // of an entry together, and a single push_back per insert keeps the
  // seeding hot path to one growing array beside the bank.
  struct Payload {
    uint32_t id = 0;
    uint32_t last_visible = 0;
    uint8_t delta = 1;
  };

  // One cost cell in struct-of-arrays layout. All entries of a cell
  // share its resolution and order (both are part of the key), so they
  // are stored once per cell instead of once per entry.
  struct Cell {
    Key key = 0;
    CostBank bank;                 // dims cost lanes.
    std::vector<Payload> entries;  // Payload lane, parallel to the bank.
    uint8_t resolution = 0;
    uint8_t order = 0;
    size_t size() const { return entries.size(); }
  };

  // Open-addressing hash from packed cell key to slot in cells_. Linear
  // probing over a power-of-two table; replaces std::unordered_map's
  // per-node allocations and bucket-list walks on the hot insert path.
  class KeyMap {
   public:
    // Returns the mapped slot or kKernelNpos.
    uint32_t Find(Key key) const;
    // Inserts a key that must not be present.
    void Insert(Key key, uint32_t slot);
    void Clear();

   private:
    void Rehash(size_t capacity);
    static size_t Mix(Key key);

    std::vector<Key> keys_;
    std::vector<uint32_t> slots_;  // kKernelNpos = empty slot.
    size_t count_ = 0;
    size_t mask_ = 0;  // capacity - 1; 0 when empty.
  };

  Key MakeKey(const CostVector& cost, int resolution, int order) const;
  Key BoundKey(const CostVector& bounds, int max_res) const;
  // Classifies a cell against the query box described by `bound_key` and
  // the order requirement.
  CellRelation Classify(Key cell, Key bound, int required_order) const;
  // Finds or creates the cell for (cost, resolution, order).
  Cell& CellFor(const CostVector& cost, int resolution, int order);
  // Copies entry i of `cell` into *e and returns it.
  const Entry& MaterializeEntry(const Cell& cell, size_t i, Entry* e) const;

  int dims_;
  double inv_log_gamma_;
  bool exponent_buckets_;  // γ == 2: Bucket reads the exponent bits.
  size_t size_ = 0;
  BankArena* arena_ = nullptr;
  // Creation-order cell store. A fully drained cell stays as an empty
  // husk (and keeps its KeyMap slot) so a later re-insert reuses it; the
  // husk count is bounded by the number of distinct keys ever touched.
  std::vector<Cell> cells_;
  KeyMap map_;
  // Scratch mask reused by the mutating range walks.
  std::vector<uint8_t> mask_buf_;
};

}  // namespace moqo

#endif  // MOQO_INDEX_CELL_INDEX_H_
