#include "index/cell_index.h"

#include <algorithm>
#include <cstring>

namespace moqo {
namespace {

// Bias added to bucket values so they pack into unsigned bytes.
constexpr int kBucketBias = 128;
constexpr int kMinBucket = -128;  // Values <= 0 (e.g. zero error).
constexpr int kMaxBucket = 127;   // +infinity bounds.

}  // namespace

CellIndex::CellIndex(int dims, double gamma, BankArena* arena)
    : dims_(dims), arena_(arena) {
  MOQO_CHECK(dims >= 1 && dims <= kMaxMetrics);
  MOQO_CHECK(gamma > 1.0);
  inv_log_gamma_ = 1.0 / std::log(gamma);
  exponent_buckets_ = gamma == 2.0;
}

int CellIndex::Bucket(double value) const {
  if (exponent_buckets_) {
    // value = 2^e · (1 + f). The formula below computes e + log2(1 + f)
    // with an absolute error under 2^-40, so its floor is e whenever f
    // lies at least 2^-22 from 0 and from 1: the top 22 mantissa bits are
    // neither all zeros nor all ones. Zero, subnormals, negatives, ∞ and
    // NaN (biased exponent 0, sign bit set, or 0x7FF) also take the
    // formula.
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    const uint64_t biased = bits >> 52;
    const uint64_t top = (bits >> 30) & 0x3FFFFFu;
    if (biased - 1 < 0x7FEu && top - 1 < 0x3FFFFEu) {
      return std::clamp(static_cast<int>(biased) - 1023, kMinBucket + 1,
                        kMaxBucket - 1);
    }
  }
  if (value <= 0.0) return kMinBucket;
  if (std::isinf(value)) return kMaxBucket;
  const double b = std::floor(std::log(value) * inv_log_gamma_);
  if (b <= kMinBucket + 1) return kMinBucket + 1;
  if (b >= kMaxBucket - 1) return kMaxBucket - 1;
  return static_cast<int>(b);
}

CellIndex::Key CellIndex::MakeKey(const CostVector& cost, int resolution,
                                  int order) const {
  MOQO_CHECK(cost.dims() == dims_);
  MOQO_CHECK(resolution >= 0 && resolution <= 255);
  MOQO_CHECK(order >= 0 && order <= 255);
  Key key = (static_cast<Key>(resolution) << 56) |
            (static_cast<Key>(order) << 48);
  for (int i = 0; i < dims_; ++i) {
    const unsigned byte =
        static_cast<unsigned>(Bucket(cost.at(i)) + kBucketBias);
    key |= static_cast<Key>(byte & 0xFFu) << (8 * i);
  }
  return key;
}

CellIndex::Key CellIndex::BoundKey(const CostVector& bounds,
                                   int max_res) const {
  return MakeKey(bounds, std::min(max_res, 255), /*order=*/0);
}

CellIndex::CellRelation CellIndex::Classify(Key cell, Key bound,
                                            int required_order) const {
  // Resolution byte: inclusive upper bound, no per-entry re-check needed
  // (all entries in a cell share the cell's resolution).
  const unsigned cell_res = static_cast<unsigned>(cell >> 56);
  const unsigned bound_res = static_cast<unsigned>(bound >> 56);
  if (cell_res > bound_res) return CellRelation::kOutside;
  if (required_order != kAnyOrder) {
    const unsigned cell_order = static_cast<unsigned>(cell >> 48) & 0xFFu;
    if (cell_order != static_cast<unsigned>(required_order)) {
      return CellRelation::kOutside;
    }
  }
  bool inside = true;
  for (int i = 0; i < dims_; ++i) {
    const unsigned cb = static_cast<unsigned>(cell >> (8 * i)) & 0xFFu;
    const unsigned bb = static_cast<unsigned>(bound >> (8 * i)) & 0xFFu;
    if (cb > bb) return CellRelation::kOutside;
    if (cb == bb) inside = false;  // Boundary cell: filter per entry.
  }
  return inside ? CellRelation::kInside : CellRelation::kBoundary;
}

// --- KeyMap ----------------------------------------------------------------

size_t CellIndex::KeyMap::Mix(Key key) {
  // splitmix64 finalizer: the packed keys differ in few low bytes, so
  // identity hashing would cluster badly under linear probing.
  uint64_t z = key + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<size_t>(z ^ (z >> 31));
}

uint32_t CellIndex::KeyMap::Find(Key key) const {
  if (count_ == 0) return kKernelNpos;
  size_t i = Mix(key) & mask_;
  while (slots_[i] != kKernelNpos) {
    if (keys_[i] == key) return slots_[i];
    i = (i + 1) & mask_;
  }
  return kKernelNpos;
}

void CellIndex::KeyMap::Insert(Key key, uint32_t slot) {
  // Grow at 7/8 load; the table starts at 16 slots.
  if ((count_ + 1) * 8 > (mask_ + 1) * 7 || slots_.empty()) {
    Rehash(slots_.empty() ? 16 : (mask_ + 1) * 2);
  }
  size_t i = Mix(key) & mask_;
  while (slots_[i] != kKernelNpos) {
    MOQO_DCHECK(keys_[i] != key);
    i = (i + 1) & mask_;
  }
  keys_[i] = key;
  slots_[i] = slot;
  ++count_;
}

void CellIndex::KeyMap::Rehash(size_t capacity) {
  std::vector<Key> old_keys = std::move(keys_);
  std::vector<uint32_t> old_slots = std::move(slots_);
  keys_.assign(capacity, 0);
  slots_.assign(capacity, kKernelNpos);
  mask_ = capacity - 1;
  for (size_t i = 0; i < old_slots.size(); ++i) {
    if (old_slots[i] == kKernelNpos) continue;
    size_t j = Mix(old_keys[i]) & mask_;
    while (slots_[j] != kKernelNpos) j = (j + 1) & mask_;
    keys_[j] = old_keys[i];
    slots_[j] = old_slots[i];
  }
}

void CellIndex::KeyMap::Clear() {
  keys_.clear();
  slots_.clear();
  count_ = 0;
  mask_ = 0;
}

// --- CellIndex -------------------------------------------------------------

CellIndex::Cell& CellIndex::CellFor(const CostVector& cost, int resolution,
                                    int order) {
  const Key key = MakeKey(cost, resolution, order);
  uint32_t slot = map_.Find(key);
  if (slot == kKernelNpos) {
    slot = static_cast<uint32_t>(cells_.size());
    cells_.emplace_back();
    Cell& cell = cells_.back();
    cell.key = key;
    cell.bank = CostBank(dims_, arena_);
    cell.resolution = static_cast<uint8_t>(resolution);
    cell.order = static_cast<uint8_t>(order);
    map_.Insert(key, slot);
  }
  return cells_[slot];
}

const CellIndex::Entry& CellIndex::MaterializeEntry(const Cell& cell,
                                                    size_t i,
                                                    Entry* e) const {
  const Payload& p = cell.entries[i];
  e->id = p.id;
  e->last_visible = p.last_visible;
  e->cost = CostVector(dims_);
  double* c = e->cost.data();
  for (int d = 0; d < dims_; ++d) c[d] = cell.bank.At(i, d);
  e->resolution = cell.resolution;
  e->order = cell.order;
  e->delta = p.delta != 0;
  return *e;
}

void CellIndex::Insert(uint32_t id, const CostVector& cost, int resolution,
                       uint32_t invocation, int order) {
  MOQO_CHECK(cost.IsFinite());
  MOQO_CHECK(cost.IsNonNegative());
  Cell& cell = CellFor(cost, resolution, order);
  cell.bank.PushBack(cost.data());
  if (MOQO_PREDICT_FALSE(cell.entries.capacity() < cell.bank.capacity())) {
    // Keep the payload lane's growth in lockstep with the bank's padded
    // doubling: one reallocation per growth step for both arrays.
    cell.entries.reserve(cell.bank.capacity());
  }
  cell.entries.push_back({id, invocation, 1});
  ++size_;
}

bool CellIndex::AnyInRange(const CostVector& bounds, int max_res,
                           uint64_t* checked, int required_order) const {
  return FindInRange(bounds, max_res, /*out=*/nullptr, checked,
                     required_order);
}

bool CellIndex::FindInRange(const CostVector& bounds, int max_res,
                            Entry* out, uint64_t* checked,
                            int required_order) const {
  const Key bound_key = BoundKey(bounds, max_res);
  for (const Cell& cell : cells_) {
    if (cell.size() == 0) continue;
    const CellRelation rel = Classify(cell.key, bound_key, required_order);
    if (rel == CellRelation::kOutside) continue;
    if (rel == CellRelation::kInside) {
      if (out != nullptr) MaterializeEntry(cell, 0, out);
      return true;
    }
    size_t scanned = 0;
    const uint32_t hit = FindDominating(cell.bank, bounds.data(), &scanned);
    if (checked != nullptr) *checked += scanned;
    if (hit != kKernelNpos) {
      if (out != nullptr) MaterializeEntry(cell, hit, out);
      return true;
    }
  }
  return false;
}

std::vector<CellIndex::Collected> CellIndex::Collect(const CostVector& bounds,
                                                     int max_res,
                                                     uint32_t invocation) {
  std::vector<Collected> out;
  const Key bound_key = BoundKey(bounds, max_res);
  for (Cell& cell : cells_) {
    const size_t n = cell.size();
    if (n == 0) continue;
    const CellRelation rel = Classify(cell.key, bound_key, kAnyOrder);
    if (rel == CellRelation::kOutside) continue;
    const uint8_t* filter = nullptr;
    if (rel == CellRelation::kBoundary) {
      mask_buf_.resize(n);
      FilterByBounds(cell.bank, bounds.data(), mask_buf_.data());
      filter = mask_buf_.data();
    }
    for (size_t i = 0; i < n; ++i) {
      if (filter != nullptr && filter[i] == 0) continue;
      Payload& p = cell.entries[i];
      bool delta;
      if (p.last_visible == invocation) {
        // Already classified earlier in this invocation (the same set can
        // be collected for several splits); keep the classification.
        delta = p.delta != 0;
      } else {
        // Δ iff the entry was not visible in the previous invocation; in
        // that case its pairings may be missing and must be (re)tried.
        delta = p.last_visible + 1 != invocation;
        p.last_visible = invocation;
        p.delta = delta;
      }
      out.push_back({p.id, delta});
    }
  }
  return out;
}

std::vector<CellIndex::Entry> CellIndex::Drain(const CostVector& bounds,
                                               int max_res) {
  std::vector<Entry> removed;
  Entry scratch;
  const Key bound_key = BoundKey(bounds, max_res);
  for (Cell& cell : cells_) {
    size_t n = cell.size();
    if (n == 0) continue;
    const CellRelation rel = Classify(cell.key, bound_key, kAnyOrder);
    if (rel == CellRelation::kOutside) continue;
    if (rel == CellRelation::kInside) {
      for (size_t i = 0; i < n; ++i) {
        removed.push_back(MaterializeEntry(cell, i, &scratch));
      }
      cell.bank.Clear();
      cell.entries.clear();
      size_ -= n;
      continue;
    }
    mask_buf_.resize(n);
    FilterByBounds(cell.bank, bounds.data(), mask_buf_.data());
    // Swap-with-back compaction in the legacy entry order; the mask bit
    // travels with the entry moved into the vacated slot.
    size_t i = 0;
    while (i < n) {
      if (mask_buf_[i]) {
        removed.push_back(MaterializeEntry(cell, i, &scratch));
        --n;
        mask_buf_[i] = mask_buf_[n];
        cell.bank.SwapRemove(i);
        cell.entries[i] = cell.entries[n];
        cell.entries.pop_back();
        --size_;
      } else {
        ++i;
      }
    }
    // A fully drained cell stays as a husk and keeps its map slot; a
    // later insert with the same key reuses it.
  }
  return removed;
}

void CellIndex::ResetVisibility() {
  for (Cell& cell : cells_) {
    for (Payload& p : cell.entries) {
      p.last_visible = kNeverVisible;
      p.delta = 1;
    }
  }
}

size_t CellIndex::NumCells() const {
  size_t n = 0;
  for (const Cell& cell : cells_) n += cell.size() > 0 ? 1 : 0;
  return n;
}

void CellIndex::Clear() {
  cells_.clear();
  map_.Clear();
  size_ = 0;
}

}  // namespace moqo
