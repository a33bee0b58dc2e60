// ParetoFrontier: a maintained set of mutually non-dominated cost vectors.
//
// Used by the exhaustive baseline (full Pareto plan sets), by frontier
// snapshots shown to the interaction layer, and by tests. Insertion
// discards the new entry if it is dominated and evicts entries the new one
// strictly dominates.
//
// Entries live in one list scanned with plain per-entry compares: the
// frontiers here hold tens of entries, too few for the lane passes of
// pareto/kernel.h to pay off (measured on the exhaustive baseline; see
// docs/KERNEL.md).
#ifndef MOQO_PARETO_FRONTIER_H_
#define MOQO_PARETO_FRONTIER_H_

#include <cstdint>
#include <vector>

#include "cost/cost_vector.h"

namespace moqo {

class ParetoFrontier {
 public:
  struct Entry {
    CostVector cost;
    uint64_t payload = 0;  // Caller-defined (e.g. PlanId).
  };

  // Attempts to insert; returns true if the entry was kept (i.e. it is not
  // strictly dominated by any current member). Members strictly dominated
  // by the new entry are removed. Cost-equal duplicates are kept only once
  // (the first payload wins).
  bool Insert(const CostVector& cost, uint64_t payload);

  // True if `cost` is strictly dominated by some member.
  bool IsStrictlyDominated(const CostVector& cost) const;
  // True if some member dominates `cost` (non-strictly).
  bool IsDominated(const CostVector& cost) const;

  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

}  // namespace moqo

#endif  // MOQO_PARETO_FRONTIER_H_
