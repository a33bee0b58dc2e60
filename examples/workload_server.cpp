// workload_server — replays a mixed multi-query stream through the
// OptimizerService: every TPC-H join block plus a batch of random-topology
// queries, all optimized concurrently by the scheduler threads.
//
// Usage:
//   ./build/workload_server [--shards N] [--random N] [--repeat N]
//                           [--deadline-ms D] [--fragment-cache-mb M]
//                           [--refresh-drift F] [--store-path FILE]
//
//   --shards N       scheduler threads sharing one run queue (default 4)
//   --random N       number of random-topology queries mixed in (default 8)
//   --repeat N       how many times the stream is replayed (default 2);
//                    duplicates still in flight coalesce onto the running
//                    leader, identical replays are served from the
//                    frontier cache, and each replay round > 0 swaps
//                    every random query for an overlapping variant (one
//                    more trailing table trimmed per round, down to 3
//                    tables) that neither cache nor coalescing can serve
//                    — the fragment store's case
//   --deadline-ms D  per-query deadline (default: none)
//   --fragment-cache-mb M  byte budget (MiB) of the cross-query plan-
//                    fragment store (default 16; 0 disables sharing).
//                    Overlapping queries seed shared sub-join-graph
//                    frontiers from completed runs instead of
//                    re-deriving them (docs/FRAGMENT_SHARING.md)
//   --refresh-drift F  the `refresh` command, exercised between replay
//                    rounds: scale every TPC-H base table's cardinality
//                    by F (statistics drift), then call
//                    OptimizerService::RefreshCatalog(). Post-refresh
//                    rounds provably re-optimize — no cache hits, no
//                    old-epoch fragment hits — on the new statistics
//                    (docs/CATALOG_REFRESH.md). 0 disables (default)
//   --store-path FILE  persist the fragment store's cold tier to FILE
//                    (docs/FRAGMENT_PERSISTENCE.md). The log is replayed
//                    at startup — rerunning with the same path starts
//                    warm — and a tiering counter line joins the summary
//
// Numeric flags must be whole integers (numbers >= 0 for --deadline-ms
// and --refresh-drift) within their range; anything else, and any
// unknown flag, exits 2.
//
// Prints one line per finished query (state, iterations, frontier size,
// time to first frontier) and a summary with queries/sec, p50/p99
// time-to-first-frontier, cache hits, catalog refreshes, and
// fragment-store hit/miss/publish/evict counters.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "catalog/tpch.h"
#include "flags.h"
#include "query/generator.h"
#include "query/tpch_queries.h"
#include "service/optimizer_service.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace moqo;

namespace {

using Clock = std::chrono::steady_clock;

// Per-query record shared with the snapshot observer: the observer runs
// on the service's scheduler thread (or inside Submit on a cache hit).
struct Track {
  std::string name;
  Clock::time_point submitted;
  std::atomic<bool> first_seen{false};
  std::atomic<double> ttff_ms{0.0};  // Time to first frontier.
  QueryId id = kInvalidQueryId;
};

// An overlapping-but-distinct variant of `q`: the last `trim` table
// references (trailing leaves in the chain/star/cycle topologies this
// is applied to) and every predicate touching them are dropped,
// preserving the remaining predicate sequence — so the variant shares
// every surviving sub-join-graph with `q` and seeds it from the
// fragment store instead of re-deriving it. Each replay round trims one
// table more (down to 3 tables), so successive rounds stay distinct
// canonical queries; once the cap is reached, further rounds repeat a
// variant and are served by the whole-query cache instead.
Query TrimLastTables(const Query& q, int trim) {
  trim = std::min(trim, q.NumTables() - 3);
  Query out;
  out.name = q.name + "~" + std::to_string(trim);
  out.tables.assign(q.tables.begin(), q.tables.end() - trim);
  const int kept = q.NumTables() - trim;
  for (const JoinPredicate& j : q.joins) {
    if (j.left < kept && j.right < kept) out.joins.push_back(j);
  }
  return out;
}

const char* StateName(QueryState s) {
  switch (s) {
    case QueryState::kQueued: return "queued";
    case QueryState::kDone: return "done";
    case QueryState::kCancelled: return "cancelled";
    case QueryState::kExpired: return "expired";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  int shards = 4;
  int num_random = 8;
  int repeat = 2;
  double deadline_ms = 0.0;
  long long fragment_cache_mb = 16;
  double refresh_drift = 0.0;
  std::string store_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr,
                   "usage: workload_server [--shards N] [--random N] "
                   "[--repeat N] [--deadline-ms D] [--fragment-cache-mb M] "
                   "[--refresh-drift F] [--store-path FILE]\n");
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--shards") {
      shards = static_cast<int>(ParseInt(arg, value, 1, 1024));
    } else if (arg == "--random") {
      num_random = static_cast<int>(ParseInt(arg, value, 0, 4096));
    } else if (arg == "--repeat") {
      repeat = static_cast<int>(ParseInt(arg, value, 1, 4096));
    } else if (arg == "--deadline-ms") {
      deadline_ms = ParseNonNegative(arg, value);
    } else if (arg == "--fragment-cache-mb") {
      fragment_cache_mb = ParseInt(arg, value, 0, kMaxBudgetMb);
    } else if (arg == "--refresh-drift") {
      refresh_drift = ParseNonNegative(arg, value);
    } else if (arg == "--store-path") {
      store_path = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  // Build the whole workload before the service starts: the service reads
  // the catalog concurrently, and RandomQuery appends tables to it.
  Catalog catalog = MakeTpchCatalog();
  std::vector<Query> stream = TpchQueryBlocks(catalog);
  std::vector<bool> trimmable(stream.size(), false);
  Rng rng(2015);
  // Leaf-trimmable topologies only: dropping the last table of a chain,
  // star (the hub is t0), or cycle leaves a connected query.
  const Topology topologies[] = {Topology::kChain, Topology::kStar,
                                 Topology::kCycle};
  for (int i = 0; i < num_random; ++i) {
    GeneratorOptions gen;
    gen.num_tables = 4 + static_cast<int>(rng.UniformInt(0, 2));
    gen.topology = topologies[i % 3];
    Query q = RandomQuery(rng, gen, &catalog);
    q.name = "rand" + std::to_string(i);
    stream.push_back(std::move(q));
    trimmable.push_back(true);
  }

  ServiceOptions service_options;
  service_options.num_shards = shards;
  service_options.fragment_cache_bytes =
      static_cast<size_t>(fragment_cache_mb) << 20;
  service_options.fragment_store_path = store_path;
  OptimizerService service(catalog, service_options);
  if (!store_path.empty() && service.fragment_store() != nullptr) {
    const FragmentStoreStats fs = service.fragment_store()->Stats();
    std::printf(
        "fragment store %s: replayed %llu fragments (epoch %llu, torn bytes "
        "%llu)\n",
        store_path.c_str(),
        static_cast<unsigned long long>(fs.replayed_fragments),
        static_cast<unsigned long long>(service.fragment_store()->epoch()),
        static_cast<unsigned long long>(fs.replay_torn_bytes));
  }

  SubmitRequest submit;
  submit.iama.schedule = ResolutionSchedule::Moderate(5);
  submit.deadline_ms = deadline_ms;

  std::printf("workload_server: %zu queries x %d replays, %d threads, "
              "deadline %s\n\n",
              stream.size(), repeat, shards,
              deadline_ms > 0.0
                  ? (std::to_string(deadline_ms) + " ms").c_str()
                  : "none");

  std::printf("%-10s %-10s %6s %6s %10s %8s %6s\n", "query", "state",
              "iters", "plans", "ttff_ms", "cached", "coal");
  std::vector<double> ttffs;
  size_t total_queries = 0;
  const Clock::time_point wall_start = Clock::now();
  // Each round replays the full stream concurrently. Duplicates whose
  // first copy is still in flight coalesce onto the running leader; the
  // round barrier lets fully completed rounds serve later ones from the
  // frontier cache.
  for (int round = 0; round < repeat; ++round) {
    std::vector<std::unique_ptr<Track>> tracks;
    for (size_t qi = 0; qi < stream.size(); ++qi) {
      // Later rounds replay the random queries as overlapping variants:
      // distinct canonical keys (no cache/coalescing), shared
      // sub-join-graphs (fragment-store hits from earlier rounds'
      // publishes).
      const Query query = round > 0 && trimmable[qi]
                              ? TrimLastTables(stream[qi], round)
                              : stream[qi];
      auto track = std::make_unique<Track>();
      track->name = query.name;
      track->submitted = Clock::now();
      Track* t = track.get();
      SubmitRequest request = submit;
      request.query = query;
      request.observer = [t](QueryId, const FrontierSnapshot&) {
        if (!t->first_seen.exchange(true)) {
          t->ttff_ms.store(MillisSince(t->submitted));
        }
      };
      StatusOr<SubmitResponse> admitted = service.Submit(std::move(request));
      if (!admitted.ok()) {
        std::fprintf(stderr, "submit %s failed: %s\n", query.name.c_str(),
                     admitted.status().ToString().c_str());
        continue;
      }
      track->id = admitted.value().id;
      tracks.push_back(std::move(track));
    }
    for (const auto& t : tracks) {
      const QueryResult result = service.Wait(t->id);
      ++total_queries;
      char ttff_text[32] = "-";  // No frontier (e.g. expired unstarted).
      if (t->first_seen.load()) {
        const double ttff = t->ttff_ms.load();
        ttffs.push_back(ttff);  // Only real frontiers enter the stats.
        std::snprintf(ttff_text, sizeof(ttff_text), "%.3f", ttff);
      }
      std::printf("%-10s %-10s %6d %6zu %10s %8s %6s\n", t->name.c_str(),
                  StateName(result.state), result.iterations,
                  result.frontier.plans.size(), ttff_text,
                  result.from_cache ? "yes" : "no",
                  result.coalesced ? "yes" : "no");
    }
    // The `refresh` command: drift the base statistics, then tell the
    // service. The next round optimizes on the new cardinalities — its
    // repeats provably miss the old cache/fragment generations.
    if (refresh_drift > 0.0 && round + 1 < repeat) {
      const TableId num_tpch_tables = static_cast<TableId>(kLineitem) + 1;
      for (TableId id = 0; id < num_tpch_tables; ++id) {
        const double new_cardinality =
            std::max(1.0, catalog.Get(id).cardinality * refresh_drift);
        const Status updated = catalog.UpdateStats(id, new_cardinality);
        if (!updated.ok()) {
          std::fprintf(stderr, "refresh: %s\n", updated.ToString().c_str());
          return 1;
        }
      }
      const uint64_t version = service.RefreshCatalog();
      std::printf("-- refresh: TPC-H cardinalities x%.2f, catalog "
                  "version %llu (cache dropped, fragment epoch bumped)\n",
                  refresh_drift, static_cast<unsigned long long>(version));
    }
  }
  const double wall_s = MillisSince(wall_start) / 1000.0;

  const ServiceStats stats = service.stats();
  std::printf("\n%zu queries in %.3f s = %.1f queries/sec\n", total_queries,
              wall_s,
              total_queries == 0 ? 0.0 : total_queries / wall_s);
  std::printf("time to first frontier (%zu with frontiers): p50 %.3f ms, "
              "p99 %.3f ms\n",
              ttffs.size(), Percentile(ttffs, 0.50),
              Percentile(ttffs, 0.99));
  std::printf("steps %llu, completed %llu, expired %llu, cache hits %llu, "
              "coalesced %llu, catalog refreshes %llu\n",
              static_cast<unsigned long long>(stats.steps_executed),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.expired),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<unsigned long long>(stats.catalog_refreshes));
  const uint64_t fragment_lookups =
      stats.fragment_hits + stats.fragment_misses;
  if (fragment_cache_mb == 0) {
    std::printf("fragment store: disabled (--fragment-cache-mb 0)\n");
    return 0;
  }
  std::printf(
      "fragment store (%d MiB): hits %llu / %llu lookups (%.1f%%), "
      "publishes %llu, evictions %llu, resident %.1f KiB\n",
      fragment_cache_mb,
      static_cast<unsigned long long>(stats.fragment_hits),
      static_cast<unsigned long long>(fragment_lookups),
      fragment_lookups > 0
          ? 100.0 * static_cast<double>(stats.fragment_hits) /
                static_cast<double>(fragment_lookups)
          : 0.0,
      static_cast<unsigned long long>(stats.fragment_publishes),
      static_cast<unsigned long long>(stats.fragment_evictions),
      static_cast<double>(stats.fragment_bytes) / 1024.0);
  if (!store_path.empty()) {
    std::printf(
        "fragment store tiering: cold hits %llu, promotions %llu, demotions "
        "%llu, compactions %llu\n",
        static_cast<unsigned long long>(stats.fragment_cold_hits),
        static_cast<unsigned long long>(stats.fragment_promotions),
        static_cast<unsigned long long>(stats.fragment_demotions),
        static_cast<unsigned long long>(stats.fragment_compactions));
  }
  return 0;
}
