#include "plan/operators.h"

#include "catalog/statistics.h"
#include "util/str.h"

namespace moqo {

std::string OperatorDesc::ToString() const {
  if (is_scan) {
    const char* name =
        scan_alg() == ScanAlg::kSeqScan ? "SeqScan" : "IndexScan";
    std::string out = name;
    if (sampling_permille != 1000) {
      out += StrFormat("(sample=%.1f%%)",
                       static_cast<double>(sampling_permille) / 10.0);
    }
    if (workers > 1) out += StrFormat("[w=%d]", workers);
    return out;
  }
  const char* name = "?";
  switch (join_alg()) {
    case JoinAlg::kHashJoin:
      name = "HashJoin";
      break;
    case JoinAlg::kSortMergeJoin:
      name = "SortMergeJoin";
      break;
    case JoinAlg::kBlockNestedLoop:
      name = "BlockNestedLoop";
      break;
  }
  std::string out = name;
  if (workers > 1) out += StrFormat("[w=%d]", workers);
  return out;
}

std::vector<OperatorDesc> ScanAlternatives(const TableDef& table,
                                           const OperatorOptions& options) {
  std::vector<OperatorDesc> out;
  std::vector<double> rates = {1.0};
  for (double r : SamplingRates(table, options.max_sampling_rates_per_table)) {
    rates.push_back(r);
  }
  const std::vector<int> workers = WorkerCounts(options.max_workers);
  for (double rate : rates) {
    for (int w : workers) {
      out.push_back(OperatorDesc::Scan(ScanAlg::kSeqScan, w, rate));
      if (options.enable_index_scans && table.has_index && w == 1) {
        // Index scans are inherently single-threaded in this model.
        out.push_back(OperatorDesc::Scan(ScanAlg::kIndexScan, 1, rate));
      }
    }
  }
  return out;
}

std::vector<OperatorDesc> JoinAlternatives(bool nested_loop,
                                           const OperatorOptions& options) {
  const std::vector<int> workers = WorkerCounts(options.max_workers);
  std::vector<OperatorDesc> out;
  out.reserve(2 * workers.size() + 1);
  for (int w : workers) {
    out.push_back(OperatorDesc::Join(JoinAlg::kHashJoin, w));
    if (options.enable_sort_merge) {
      out.push_back(OperatorDesc::Join(JoinAlg::kSortMergeJoin, w));
    }
  }
  if (nested_loop) {
    out.push_back(OperatorDesc::Join(JoinAlg::kBlockNestedLoop, 1));
  }
  return out;
}

}  // namespace moqo
