// Seeded inputs of the three workloads.
//
// The program under test sees only what these functions generate. Each
// workload's difficulty is fixed by base instances chosen here, and the
// seed draws a relabelling of them: table references are permuted, bound
// to freshly named catalog tables, and predicate endpoints are swapped.
// A relabelled query has the same plan space as its base, so every seed
// does about the same work and run-to-run spread measures the program,
// not the draw. The serving workloads additionally draw per-request
// private tables, attach points and repeats from the seed.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "query/query.h"

namespace perfbench {

// anytime_session: one 10-table chain, star, cycle and random-tree query
// and one 7-table clique, in that order, over their own catalog.
struct AnytimeInputs {
  moqo::Catalog catalog;
  std::vector<moqo::Query> queries;
};
AnytimeInputs MakeAnytimeInputs(uint64_t seed);

// Index of the clique in AnytimeInputs::queries (the coverage check's
// query).
inline constexpr size_t kCliqueQuery = 4;

// A serving workload's request sequence. Clients take requests in order;
// repeat_of[i] is the index of the earlier request that request i
// repeats exactly, or -1 for a fresh query.
struct ServingInputs {
  moqo::Catalog catalog;
  // serve_shared's warm-up query (the bare 7-table core), run in set-up
  // so the core's fragments are published before timing starts. Empty
  // (no tables) for serve_distinct.
  moqo::Query warmup;
  // Fragments the warm-up publishes: one per connected sub-join of two or
  // more tables.
  uint64_t warmup_fragments = 0;
  std::vector<moqo::Query> requests;
  std::vector<int64_t> repeat_of;
};

// serve_shared: 8-table queries, a fixed 7-table TPC-H chain core plus one
// private table (its own catalog table) at a rotating root; one request
// in each block of four, at a seeded position, repeats one of the
// previous 16.
ServingInputs MakeSharedInputs(uint64_t seed, size_t count);

// serve_distinct: 7-table random-tree queries, each over its own new
// tables; no sub-join is shared and nothing repeats.
ServingInputs MakeDistinctInputs(uint64_t seed, size_t count);

// Canonical text of a query's content: every table's statistics,
// selectivity and every predicate, in order. Equal texts mean equal
// inputs to the optimizer.
std::string QueryText(const moqo::Query& query, const moqo::Catalog& catalog);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
