#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "catalog/tpch.h"
#include "query/generator.h"
#include "util/rng.h"
#include "util/str.h"

namespace perfbench {
namespace {

using moqo::Catalog;
using moqo::Query;
using moqo::Rng;

// A base instance: the library generator's query for one topology, drawn
// from a fixed shape seed. Shape seeds were picked for size: the star is
// the heaviest session (about 3 s and 0.85 GB on a 4-core x86 box) and
// the whole set stays near 10 s, so two passes fit in one run.
struct BaseShape {
  moqo::Topology topology;
  int tables;
  uint64_t shape_seed;
  double max_cardinality = 1e6;
};

constexpr BaseShape kAnytimeShapes[] = {
    {moqo::Topology::kChain, 10, 2},
    {moqo::Topology::kStar, 10, 7},
    {moqo::Topology::kCycle, 10, 2},
    {moqo::Topology::kRandomTree, 10, 2},
    {moqo::Topology::kClique, 7, 3},
};

// serve_distinct draws each request from one of these 7-table random
// trees, in a seeded round-robin so every run sees the same mix. Tables
// of at most kDistinctMaxRows rows keep a request to tens of
// milliseconds of enumeration, so a run has hundreds of samples.
constexpr uint64_t kDistinctShapeSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};
constexpr double kDistinctMaxRows = 1e5;

// serve_shared's TPC-H scale factor: small enough that a request costs
// tens of milliseconds of enumeration, so the wire, the scheduler and the
// store's read path carry a visible share of its latency.
constexpr double kSharedScaleFactor = 0.01;

Query BaseQuery(const BaseShape& shape, Catalog* base_catalog) {
  Rng rng(shape.shape_seed * 7919 + static_cast<uint64_t>(shape.topology));
  moqo::GeneratorOptions options;
  options.num_tables = shape.tables;
  options.topology = shape.topology;
  options.max_cardinality = shape.max_cardinality;
  return moqo::RandomQuery(rng, options, base_catalog);
}

std::vector<int> Permutation(int n, Rng& rng) {
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  return perm;
}

double LogUniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.UniformDouble(std::log(lo), std::log(hi)));
}

// Returns `base` (over `base_catalog`) with its table references permuted
// by `rng` and bound to fresh copies of their tables, appended to
// `catalog` as "<prefix><k>". Predicates keep their order; their
// endpoints are remapped and their orientation redrawn.
Query Relabel(const Query& base, const Catalog& base_catalog,
              const std::string& prefix, Rng& rng, Catalog* catalog) {
  const int n = base.NumTables();
  const std::vector<int> perm = Permutation(n, rng);
  std::vector<int> new_index(static_cast<size_t>(n));
  moqo::QueryBuilder builder(prefix);
  for (int k = 0; k < n; ++k) {
    const moqo::TableRef& ref = base.tables[static_cast<size_t>(perm[k])];
    moqo::TableDef def = base_catalog.Get(ref.table);
    def.name = prefix + std::to_string(k);
    const moqo::TableId id = catalog->AddTable(def);
    new_index[static_cast<size_t>(perm[k])] =
        builder.AddTable(id, ref.predicate_selectivity, "t" + std::to_string(k));
  }
  for (const moqo::JoinPredicate& p : base.joins) {
    int left = new_index[static_cast<size_t>(p.left)];
    int right = new_index[static_cast<size_t>(p.right)];
    if (rng.Bernoulli(0.5)) std::swap(left, right);
    builder.AddJoin(left, right, p.selectivity);
  }
  return builder.Build();
}

}  // namespace

AnytimeInputs MakeAnytimeInputs(uint64_t seed) {
  AnytimeInputs inputs;
  Rng rng(seed);
  for (const BaseShape& shape : kAnytimeShapes) {
    Catalog base_catalog;
    const Query base = BaseQuery(shape, &base_catalog);
    const std::string prefix = "s" + std::to_string(inputs.queries.size()) + "_";
    inputs.queries.push_back(
        Relabel(base, base_catalog, prefix, rng, &inputs.catalog));
  }
  return inputs;
}

ServingInputs MakeSharedInputs(uint64_t seed, size_t count) {
  using namespace moqo;  // TPC-H table names.
  constexpr int kCore = 7;
  // One request in each block of four repeats one of the previous 16.
  constexpr size_t kRepeatBlock = 4;
  constexpr size_t kRepeatWindow = 16;
  constexpr double kPrivateRows = 200.0;
  ServingInputs inputs;
  inputs.catalog = MakeTpchCatalog(kSharedScaleFactor);
  Catalog& catalog = inputs.catalog;
  // The core: nation - supplier - partsupp - part - lineitem - orders -
  // customer along TPC-H's foreign keys, with fixed local predicates.
  const TableId core_tables[kCore] = {kNation,   kSupplier, kPartsupp,
                                      kPart,     kLineitem, kOrders,
                                      kCustomer};
  const double core_selectivity[kCore] = {1.0, 0.5, 1.0, 0.2, 0.1, 0.3, 1.0};
  auto add_core = [&](QueryBuilder* b) {
    for (int i = 0; i < kCore; ++i) {
      b->AddTable(core_tables[i], core_selectivity[i]);
    }
    b->AddFkJoin(catalog, 1, 0);
    b->AddFkJoin(catalog, 2, 1);
    b->AddFkJoin(catalog, 2, 3);
    b->AddFkJoin(catalog, 4, 3);
    b->AddFkJoin(catalog, 4, 5);
    b->AddFkJoin(catalog, 5, 6);
  };
  QueryBuilder warmup("core7");
  add_core(&warmup);
  inputs.warmup = warmup.Build();
  inputs.warmup_fragments = kCore * (kCore - 1) / 2;  // Sub-chains of 2..7.

  // Private tables are near-identical in size and the root rotates
  // through the core, so every run sees the same mix of request costs;
  // the jitter only keeps each private table's fragments its own.
  Rng rng(seed);
  const int rotation = static_cast<int>(rng.Uniform(kCore));
  size_t repeat_slot = 1 + rng.Uniform(kRepeatBlock - 1);
  int fresh = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i % kRepeatBlock == 0 && i > 0) repeat_slot = rng.Uniform(kRepeatBlock);
    if (i % kRepeatBlock == repeat_slot) {
      const size_t window = std::min(i, kRepeatWindow);
      size_t j = i - 1 - rng.Uniform(window);
      while (inputs.repeat_of[j] >= 0) j = static_cast<size_t>(inputs.repeat_of[j]);
      inputs.requests.push_back(inputs.requests[j]);
      inputs.repeat_of.push_back(static_cast<int64_t>(j));
      continue;
    }
    TableDef priv;
    priv.name = "priv" + std::to_string(i);
    priv.cardinality = std::floor(kPrivateRows * LogUniform(rng, 0.95, 1.05));
    const TableId priv_id = catalog.AddTable(priv);
    QueryBuilder b("shared" + std::to_string(i));
    add_core(&b);
    const int ref = b.AddTable(priv_id, rng.UniformDouble(0.45, 0.55), "p");
    const int root = (rotation + fresh++) % kCore;
    const double pk_card = std::max(priv.cardinality,
                                    catalog.Get(core_tables[root]).cardinality);
    b.AddJoin(root, ref, LogUniform(rng, 0.95, 1.05) / pk_card);
    inputs.requests.push_back(b.Build());
    inputs.repeat_of.push_back(-1);
  }
  return inputs;
}

ServingInputs MakeDistinctInputs(uint64_t seed, size_t count) {
  constexpr size_t kShapes = std::size(kDistinctShapeSeeds);
  ServingInputs inputs;
  Catalog base_catalog;
  std::vector<Query> bases;
  for (uint64_t shape_seed : kDistinctShapeSeeds) {
    bases.push_back(BaseQuery(
        {moqo::Topology::kRandomTree, 7, shape_seed, kDistinctMaxRows},
        &base_catalog));
  }
  Rng rng(seed);
  std::vector<int> order;
  for (size_t i = 0; i < count; ++i) {
    if (i % kShapes == 0) order = Permutation(static_cast<int>(kShapes), rng);
    const Query& base = bases[static_cast<size_t>(order[i % kShapes])];
    const std::string prefix = "d" + std::to_string(i) + "_";
    inputs.requests.push_back(
        Relabel(base, base_catalog, prefix, rng, &inputs.catalog));
    inputs.repeat_of.push_back(-1);
  }
  return inputs;
}

std::string QueryText(const Query& query, const Catalog& catalog) {
  std::string out;
  for (const moqo::TableRef& ref : query.tables) {
    const moqo::TableDef def = catalog.Get(ref.table);
    out += moqo::StrFormat("T%d:", ref.table);
    moqo::AppendHexDouble(&out, def.cardinality);
    out += ',';
    moqo::AppendHexDouble(&out, def.row_bytes);
    out += def.has_index ? ",i," : ",-,";
    moqo::AppendHexDouble(&out, ref.predicate_selectivity);
    out += ';';
  }
  for (const moqo::JoinPredicate& p : query.joins) {
    out += moqo::StrFormat("J%d-%d:", p.left, p.right);
    moqo::AppendHexDouble(&out, p.selectivity);
    out += ';';
  }
  return out;
}

}  // namespace perfbench
