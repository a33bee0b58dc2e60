// PlanArena: append-only owner of all plans generated for one query.
//
// Plans are never destroyed individually (the paper deliberately never
// discards result plans, §4.2); the arena grows monotonically across
// optimizer invocations and is released wholesale when the session ends.
//
// Storage is chunked: every chunk holds kChunkPlans plans, a plan id maps
// to its chunk by shift and to its slot by mask, and growth allocates a
// fresh chunk without copying or moving any stored plan. Each plan is a
// slim record (structure, cardinality, operator, order) plus its cost,
// stored once as dims() doubles in the chunk's parallel cost lane: 56 B
// per plan at 3 metrics (BytesPerPlan). The cost dimensionality is fixed
// by the first append and CHECKed on every later one.
#ifndef MOQO_PLAN_ARENA_H_
#define MOQO_PLAN_ARENA_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "plan/plan.h"
#include "util/common.h"

namespace moqo {

class PlanArena {
 public:
  // Plans per chunk (a power of two); ids split into chunk and slot.
  static constexpr int kChunkShift = 12;
  static constexpr size_t kChunkPlans = size_t{1} << kChunkShift;
  static constexpr PlanId kSlotMask = static_cast<PlanId>(kChunkPlans - 1);

  PlanArena() = default;
  PlanArena(const PlanArena&) = delete;
  PlanArena& operator=(const PlanArena&) = delete;
  PlanArena(PlanArena&& other) noexcept;
  PlanArena& operator=(PlanArena&& other) noexcept;

  PlanId AddScan(TableSet tables, OperatorDesc op, const CostVector& cost,
                 double output_cardinality, uint8_t order = 0);
  PlanId AddJoin(TableSet tables, PlanId left, PlanId right, OperatorDesc op,
                 const CostVector& cost, double output_cardinality,
                 uint8_t order = 0);
  // An opaque leaf standing for a complete sub-join tree imported from a
  // shared cross-query plan fragment (core/fragment.h). `tables` is the
  // fragment's whole table set; `op` is the donor root's operator
  // (display only). The node has no children — joins above it only read
  // the cached cost, cardinality, and order, exactly like any sub-plan.
  PlanId AddFragment(TableSet tables, OperatorDesc op, const CostVector& cost,
                     double output_cardinality, uint8_t order = 0);

  // The plan as a value. It is assembled from the stored record and cost,
  // so it stays valid while the arena grows. Not for per-plan hot loops:
  // Prune reads cost_data() and takes the order tag from its batch, and
  // calls at() only for the rare result insertion it logs for fragment
  // publishing. Phase 2 calls it for both plans of each fresh pair.
  PlanNode at(PlanId id) const {
    MOQO_CHECK(id < size_);
    const Record& r = record(id);
    PlanNode node;
    node.tables = r.tables;
    node.left = r.left;
    node.right = r.right;
    node.op = r.op;
    node.cost = CostVector(dims_);
    const double* cost = cost_data(id);
    for (int i = 0; i < dims_; ++i) node.cost.data()[i] = cost[i];
    node.output_cardinality = r.output_cardinality;
    node.order = r.order;
    node.is_fragment = r.is_fragment;
    return node;
  }

  // The plan's dims() cost values, unchecked, for hot loops. The pointer
  // stays valid for the arena's lifetime.
  const double* cost_data(PlanId id) const {
    MOQO_DCHECK(id < size_);
    return chunks_[id >> kChunkShift].costs.get() +
           static_cast<size_t>(id & kSlotMask) * static_cast<size_t>(dims_);
  }

  size_t size() const { return size_; }
  // Cost dimensionality of every stored plan; 0 while the arena is empty.
  int dims() const { return dims_; }

  // Bytes stored per plan at `dims` cost metrics.
  static constexpr size_t BytesPerPlan(int dims) {
    return sizeof(Record) + static_cast<size_t>(dims) * sizeof(double);
  }

 private:
  // Everything of a PlanNode except its cost (see plan.h for the fields).
  struct Record {
    double output_cardinality = 0.0;
    TableSet tables;
    PlanId left = kInvalidPlan;
    PlanId right = kInvalidPlan;
    OperatorDesc op;
    uint8_t order = 0;
    bool is_fragment = false;
  };
  struct Chunk {
    std::unique_ptr<Record[]> records;
    std::unique_ptr<double[]> costs;
  };

  const Record& record(PlanId id) const {
    return chunks_[id >> kChunkShift].records[id & kSlotMask];
  }
  PlanId Append(const Record& record, const CostVector& cost);

  std::vector<Chunk> chunks_;
  size_t size_ = 0;
  int dims_ = 0;  // Fixed by the first append.
};

}  // namespace moqo

#endif  // MOQO_PLAN_ARENA_H_
