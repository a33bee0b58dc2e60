// Shared fixtures for optimizer-level tests.
#ifndef MOQO_TESTS_TEST_HELPERS_H_
#define MOQO_TESTS_TEST_HELPERS_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "index/cell_index.h"
#include "plan/cost_model.h"
#include "query/generator.h"
#include "query/query.h"
#include "service/optimizer_service.h"
#include "util/rng.h"

namespace moqo {

// Operator options small enough that exhaustive plan enumeration stays
// tractable on 2-4 table queries.
inline OperatorOptions TinyOperatorOptions(bool sampling) {
  OperatorOptions options;
  options.max_workers = 2;
  options.max_sampling_rates_per_table = sampling ? 1 : 0;
  options.enable_index_scans = true;
  options.enable_sort_merge = true;
  options.enable_nested_loop = true;
  return options;
}

// A random query world owning its catalog and factory.
struct RandomWorld {
  std::unique_ptr<Catalog> catalog;
  Query query;
  std::unique_ptr<PlanFactory> factory;
};

inline RandomWorld MakeRandomWorld(uint64_t seed, int num_tables,
                                   bool sampling,
                                   MetricSchema schema = MetricSchema::Standard3()) {
  RandomWorld world;
  world.catalog = std::make_unique<Catalog>();
  Rng rng(seed);
  GeneratorOptions gen;
  gen.num_tables = num_tables;
  gen.topology = Topology::kRandomTree;
  gen.min_cardinality = 1000.0;
  gen.max_cardinality = 1e6;
  world.query = RandomQuery(rng, gen, world.catalog.get());
  world.factory = std::make_unique<PlanFactory>(
      world.query, *world.catalog, std::move(schema), CostModelParams{},
      TinyOperatorOptions(sampling));
  return world;
}

// Submits `query` under the options in `request` (its query field is
// overwritten), optionally with a synchronous observer, and returns the
// ticket: shorthand for the many tests that need only the id.
inline StatusOr<QueryId> SubmitQuery(OptimizerService& service,
                                     const Query& query,
                                     SubmitRequest request = {},
                                     SnapshotObserver observer = nullptr) {
  request.query = query;
  if (observer != nullptr) request.observer = std::move(observer);
  StatusOr<SubmitResponse> response = service.Submit(std::move(request));
  if (!response.ok()) return response.status();
  return response.value().id;
}

inline std::vector<CostVector> CostsOf(
    const std::vector<CellIndex::Entry>& entries) {
  std::vector<CostVector> costs;
  costs.reserve(entries.size());
  for (const auto& e : entries) costs.push_back(e.cost);
  return costs;
}

// Sorted (lexicographic) cost vectors of a result frontier, with the
// plans' interesting-order and resolution tags folded in, for exact
// ("bit-identical") frontier equality assertions.
inline std::vector<std::vector<double>> FrontierSignature(
    const std::vector<CellIndex::Entry>& entries) {
  std::vector<std::vector<double>> sig;
  sig.reserve(entries.size());
  for (const CellIndex::Entry& e : entries) {
    std::vector<double> row;
    row.reserve(static_cast<size_t>(e.cost.dims()) + 2);
    for (int i = 0; i < e.cost.dims(); ++i) row.push_back(e.cost[i]);
    row.push_back(static_cast<double>(e.order));
    row.push_back(static_cast<double>(e.resolution));
    sig.push_back(std::move(row));
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

}  // namespace moqo

#endif  // MOQO_TESTS_TEST_HELPERS_H_
