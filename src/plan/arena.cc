#include "plan/arena.h"

#include <utility>

namespace moqo {

PlanArena::PlanArena(PlanArena&& other) noexcept
    : chunks_(std::move(other.chunks_)),
      size_(std::exchange(other.size_, 0)),
      dims_(std::exchange(other.dims_, 0)) {}

PlanArena& PlanArena::operator=(PlanArena&& other) noexcept {
  chunks_ = std::move(other.chunks_);
  other.chunks_.clear();
  size_ = std::exchange(other.size_, 0);
  dims_ = std::exchange(other.dims_, 0);
  return *this;
}

PlanId PlanArena::Append(const Record& record, const CostVector& cost) {
  if (size_ == 0) dims_ = cost.dims();
  MOQO_CHECK(cost.dims() == dims_);
  MOQO_CHECK(size_ < kInvalidPlan);
  const PlanId id = static_cast<PlanId>(size_);
  const size_t slot = id & kSlotMask;
  if (slot == 0) {
    chunks_.push_back({std::make_unique<Record[]>(kChunkPlans),
                       std::unique_ptr<double[]>(new double[
                           kChunkPlans * static_cast<size_t>(dims_)])});
  }
  Chunk& chunk = chunks_.back();
  chunk.records[slot] = record;
  double* lane = chunk.costs.get() + slot * static_cast<size_t>(dims_);
  for (int i = 0; i < dims_; ++i) lane[i] = cost.at(i);
  ++size_;
  return id;
}

PlanId PlanArena::AddScan(TableSet tables, OperatorDesc op,
                          const CostVector& cost,
                          double output_cardinality, uint8_t order) {
  MOQO_CHECK(op.is_scan);
  Record r;
  r.output_cardinality = output_cardinality;
  r.tables = tables;
  r.op = op;
  r.order = order;
  return Append(r, cost);
}

PlanId PlanArena::AddJoin(TableSet tables, PlanId left, PlanId right,
                          OperatorDesc op, const CostVector& cost,
                          double output_cardinality, uint8_t order) {
  MOQO_CHECK(!op.is_scan);
  MOQO_CHECK(left < size_ && right < size_);
  Record r;
  r.output_cardinality = output_cardinality;
  r.tables = tables;
  r.left = left;
  r.right = right;
  r.op = op;
  r.order = order;
  return Append(r, cost);
}

PlanId PlanArena::AddFragment(TableSet tables, OperatorDesc op,
                              const CostVector& cost,
                              double output_cardinality, uint8_t order) {
  Record r;
  r.output_cardinality = output_cardinality;
  r.tables = tables;
  r.op = op;
  r.order = order;
  r.is_fragment = true;
  return Append(r, cost);
}

}  // namespace moqo
