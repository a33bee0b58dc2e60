#include "plan/plan_printer.h"

#include "util/str.h"

namespace moqo {
namespace {

std::string RefName(const Query& query, TableSet tables) {
  const int t = tables.Lowest();
  const TableRef& ref = query.tables[static_cast<size_t>(t)];
  return ref.alias.empty() ? StrFormat("t%d", t) : ref.alias;
}

// "Fragment{t0,t2,t3}": an opaque leaf imported from the cross-query
// fragment store — the sub-tree's structure lives in the donor's arena.
std::string FragmentName(const Query& query, TableSet tables) {
  std::string out = "Fragment{";
  bool first = true;
  for (TableIter it(tables); !it.Done(); it.Next()) {
    if (!first) out += ",";
    first = false;
    out += RefName(query, TableSet::Singleton(it.Table()));
  }
  out += "}";
  return out;
}

void AppendPlan(const PlanArena& arena, PlanId id, const Query& query,
                std::string* out) {
  const PlanNode node = arena.at(id);
  if (node.is_fragment) {
    *out += FragmentName(query, node.tables);
    return;
  }
  if (node.IsScan()) {
    *out += node.op.ToString();
    *out += "(";
    *out += RefName(query, node.tables);
    *out += ")";
    return;
  }
  *out += node.op.ToString();
  *out += "(";
  AppendPlan(arena, node.left, query, out);
  *out += ", ";
  AppendPlan(arena, node.right, query, out);
  *out += ")";
}

void AppendTree(const PlanArena& arena, PlanId id, const Query& query,
                int depth, std::string* out) {
  const PlanNode node = arena.at(id);
  out->append(static_cast<size_t>(depth) * 2, ' ');
  if (node.is_fragment) {
    *out += FragmentName(query, node.tables);
  } else {
    *out += node.op.ToString();
    if (node.IsScan()) {
      *out += "(";
      *out += RefName(query, node.tables);
      *out += ")";
    }
  }
  *out += StrFormat("  rows=%.3g cost=", node.output_cardinality);
  *out += node.cost.ToString();
  *out += "\n";
  if (!node.IsScan()) {
    AppendTree(arena, node.left, query, depth + 1, out);
    AppendTree(arena, node.right, query, depth + 1, out);
  }
}

}  // namespace

std::string PlanToString(const PlanArena& arena, PlanId id,
                         const Query& query) {
  std::string out;
  AppendPlan(arena, id, query, &out);
  return out;
}

std::string PlanToTreeString(const PlanArena& arena, PlanId id,
                             const Query& query) {
  std::string out;
  AppendTree(arena, id, query, 0, &out);
  return out;
}

}  // namespace moqo
