#include "plan/cost_model.h"

#include <algorithm>
#include <cmath>

#include "util/common.h"

namespace moqo {
namespace {

// Null-checks the pinned snapshot before the member-init list
// dereferences it (JoinGraph is constructed before the factory body).
const CatalogSnapshot& DerefCatalog(
    const std::shared_ptr<const CatalogSnapshot>& catalog) {
  MOQO_CHECK_MSG(catalog != nullptr, "PlanFactory needs a catalog snapshot");
  return *catalog;
}

}  // namespace

CostModel::CostModel(MetricSchema schema, CostModelParams params)
    : schema_(std::move(schema)), params_(params) {}

CostVector CostModel::Assemble(double time, double cores, double error,
                               double fees, double energy, double io) const {
  CostVector out(schema_.dims());
  for (int i = 0; i < schema_.dims(); ++i) {
    switch (schema_.metric(i)) {
      case MetricId::kTime:
        out[i] = time;
        break;
      case MetricId::kCores:
        out[i] = cores;
        break;
      case MetricId::kPrecisionError:
        out[i] = error;
        break;
      case MetricId::kFees:
        out[i] = fees;
        break;
      case MetricId::kEnergy:
        out[i] = energy;
        break;
      case MetricId::kIo:
        out[i] = io;
        break;
    }
  }
  return out;
}

OpCost CostModel::ScanCost(const TableDef& table,
                           double predicate_selectivity,
                           const OperatorDesc& op, int index_order) const {
  MOQO_CHECK(op.is_scan);
  const CostModelParams& p = params_;
  const double rate = op.SamplingRate();
  const double w = op.workers;
  const double out_rows =
      std::max(1.0, table.cardinality * predicate_selectivity * rate);

  double work_ms = 0.0;  // Single-core effort.
  double io_pages = 0.0;
  if (op.scan_alg() == ScanAlg::kSeqScan) {
    // A sampled sequential scan reads the sampled fraction of pages and
    // evaluates predicates on every sampled tuple.
    io_pages = table.Pages() * rate;
    work_ms = io_pages * p.seq_page_ms +
              table.cardinality * rate * p.tuple_cpu_ms;
  } else {
    // Index scan: fetch only matching tuples via random page reads.
    const double matched = table.cardinality * predicate_selectivity * rate;
    io_pages = std::min(table.Pages(), matched);
    work_ms = io_pages * p.random_page_ms + matched * p.index_tuple_ms;
  }

  const double time = work_ms / w + (w - 1.0) * p.parallel_startup_ms;
  const double cores = w;
  double error = 0.0;
  if (rate < 1.0) {
    const double sample_rows =
        std::max(1.0, table.cardinality * predicate_selectivity * rate);
    error = std::min(1.0, p.sampling_error_scale / std::sqrt(sample_rows));
  }
  const double fees =
      work_ms * p.fee_per_core_ms * (1.0 + p.fee_parallel_premium * (w - 1.0));
  const double energy = work_ms * p.energy_per_ms *
                        (1.0 + p.energy_parallel_overhead * (w - 1.0));

  OpCost result;
  result.cost = Assemble(time, cores, error, fees, energy, io_pages);
  result.output_rows = out_rows;
  // Index scans return tuples in key order.
  if (op.scan_alg() == ScanAlg::kIndexScan && index_order > 0) {
    result.order = static_cast<uint8_t>(index_order);
  }
  return result;
}

OpCost CostModel::JoinCost(const PlanNode& left, const PlanNode& right,
                           double join_selectivity, const OperatorDesc& op,
                           int merge_order) const {
  MOQO_CHECK(!op.is_scan);
  const CostModelParams& p = params_;
  const double lrows = left.output_cardinality;
  const double rrows = right.output_cardinality;
  const double out_rows = std::max(1.0, lrows * rrows * join_selectivity);
  const double w = op.workers;

  uint8_t produced_order = 0;
  double work_ms = out_rows * p.output_tuple_ms;
  switch (op.join_alg()) {
    case JoinAlg::kHashJoin:
      work_ms += lrows * p.hash_build_ms + rrows * p.hash_probe_ms;
      break;
    case JoinAlg::kSortMergeJoin: {
      // An input already sorted on the merge key skips its sort phase;
      // the output inherits the merge key's order (paper §4.3).
      const bool left_sorted = merge_order > 0 && left.order == merge_order;
      const bool right_sorted =
          merge_order > 0 && right.order == merge_order;
      if (!left_sorted) {
        work_ms += lrows * std::log2(lrows + 2.0) * p.sort_ms;
      }
      if (!right_sorted) {
        work_ms += rrows * std::log2(rrows + 2.0) * p.sort_ms;
      }
      work_ms += (lrows + rrows) * p.merge_ms;
      if (merge_order > 0) {
        produced_order = static_cast<uint8_t>(merge_order);
      }
      break;
    }
    case JoinAlg::kBlockNestedLoop:
      work_ms += lrows * rrows * p.nested_loop_pair_ms;
      break;
  }

  const MetricSchema& schema = schema_;
  const int dims = schema.dims();
  MOQO_CHECK(left.cost.dims() == dims && right.cost.dims() == dims);
  CostVector cost(dims);
  const double* lcost = left.cost.data();
  const double* rcost = right.cost.data();
  double* out = cost.data();
  for (int i = 0; i < dims; ++i) {
    const double lc = lcost[i];
    const double rc = rcost[i];
    switch (schema.metric(i)) {
      case MetricId::kTime:
        // Sequential execution: sum of sub-plan times plus own time.
        out[i] = lc + rc + work_ms / w + (w - 1.0) * p.parallel_startup_ms;
        break;
      case MetricId::kCores:
        out[i] = std::max({lc, rc, w});
        break;
      case MetricId::kPrecisionError:
        out[i] = std::min(1.0, p.join_error_inflation * std::max(lc, rc));
        break;
      case MetricId::kFees:
        out[i] = lc + rc +
                 work_ms * p.fee_per_core_ms *
                     (1.0 + p.fee_parallel_premium * (w - 1.0));
        break;
      case MetricId::kEnergy:
        out[i] = lc + rc +
                 work_ms * p.energy_per_ms *
                     (1.0 + p.energy_parallel_overhead * (w - 1.0));
        break;
      case MetricId::kIo:
        // Joins run in memory in this model; IO comes from the scans.
        out[i] = lc + rc;
        break;
    }
  }

  OpCost result;
  result.cost = cost;
  result.output_rows = out_rows;
  result.order = produced_order;
  return result;
}

PlanFactory::PlanFactory(const Query& query, const Catalog& catalog,
                         MetricSchema schema, CostModelParams cost_params,
                         OperatorOptions op_options)
    : PlanFactory(query, catalog.Snapshot(), std::move(schema), cost_params,
                  op_options) {}

PlanFactory::PlanFactory(const Query& query,
                         std::shared_ptr<const CatalogSnapshot> catalog,
                         MetricSchema schema, CostModelParams cost_params,
                         OperatorOptions op_options)
    : query_(query),
      catalog_(std::move(catalog)),
      graph_(query, DerefCatalog(catalog_)),
      cost_model_(std::move(schema), cost_params),
      op_options_(op_options),
      join_alternatives_{JoinAlternatives(false, op_options_),
                         JoinAlternatives(true, op_options_)} {
  scan_alternatives_.reserve(query_.tables.size());
  scan_order_.reserve(query_.tables.size());
  for (int t = 0; t < query_.NumTables(); ++t) {
    const TableRef& ref = query_.tables[static_cast<size_t>(t)];
    scan_alternatives_.push_back(
        ScanAlternatives(catalog_->Get(ref.table), op_options_));
    int order = 0;
    if (op_options_.enable_interesting_orders) {
      order = 1 + graph_.FirstPredicateIncident(t);
      if (order > 255) order = 0;  // Tag domain exhausted.
    }
    scan_order_.push_back(order);
  }
}

bool PlanFactory::CanCombine(TableSet a, TableSet b) const {
  if (a.Intersects(b)) return false;
  if (!graph_.HasEdgeBetween(a, b)) return false;
  return graph_.IsConnected(a) && graph_.IsConnected(b);
}

}  // namespace moqo
