// The benchmark's metric names and units. Every untraced run reports all
// end-to-end metrics and every traced run all per-layer metrics;
// BENCHMARK.json lists the same names and units (checked by the
// benchmark's tests). README.md maps each one to the layer it measures
// and the end-to-end metric it should move.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"first_frontier_s", "s"}, {"session_s", "s"},
    {"relax_s", "s"},          {"qps", "1/s"},
    {"ttff_p50_ms", "ms"},     {"ttff_p90_ms", "ms"},
    {"done_p50_ms", "ms"},     {"done_p90_ms", "ms"},
    {"peak_rss_mb", "MB"},     {"setup_s", "s"},
};

// A traced run reports 0 for the metrics of layers its workload does not
// exercise (the anytime workload has no service, the serving workloads
// do not drive IncrementalOptimizer directly).
inline constexpr MetricSpec kPerLayer[] = {
    {"plan.factory_ms", "ms"},
    {"core.seed_ms", "ms"},
    {"core.optimize_first_ms", "ms"},
    {"core.optimize_refine_ms", "ms"},
    {"core.optimize_relax_ms", "ms"},
    {"core.snapshot_ms", "ms"},
    {"core.plans_generated", "count"},
    {"core.pairs_generated", "count"},
    {"core.candidate_retrievals", "count"},
    {"core.result_insert_ratio", "ratio"},
    {"pareto.dominance_checks", "count"},
    {"pareto.prune_calls", "count"},
    {"index.result_entries", "count"},
    {"index.candidate_entries", "count"},
    {"plan.arena_plans", "count"},
    {"plan.bytes_per_plan", "bytes"},
    {"net.submit_rtt_ms", "ms"},
    {"net.first_snapshot_wait_ms", "ms"},
    {"net.refine_wait_ms", "ms"},
    {"net.overhead_ms", "ms"},
    {"service.admit_ms", "ms"},
    {"service.first_snapshot_ms", "ms"},
    {"service.step_ms", "ms"},
    {"service.steps", "count"},
    {"service.work_steals", "count"},
    {"service.cache_hit_rate", "ratio"},
    {"service.coalesced", "count"},
    {"service.snapshot_drops", "count"},
    {"fragment_store.hits", "count"},
    {"fragment_store.hit_rate", "ratio"},
    {"fragment_store.cold_hits", "count"},
    {"fragment_store.evictions", "count"},
    {"fragment_store.hot_bytes", "bytes"},
    {"fragment_store.publishes", "count"},
    {"fragment_store.demotions", "count"},
    {"fragment_store.cold_bytes", "bytes"},
    {"fragment_store.compactions", "count"},
    {"core.plans_per_request", "count"},
    {"sharing.repeat_share", "ratio"},
    {"sharing.hot_over_budget", "ratio"},
    {"trace.overhead_pct", "%"},
    {"fail_rate", "ratio"},
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
