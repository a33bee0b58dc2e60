// Catalog-refresh stress: RefreshCatalog() hammered against concurrent
// Submit/Cancel/Wait on a sharded service (a TSan target in CI). The
// invariant under every interleaving: a query that completes in state
// kDone carries the version of ONE catalog generation and its frontier
// is bit-identical to a cold single-threaded run on that generation's
// snapshot — never a mix of statistics from two generations, never a
// cache or fragment hit across a refresh.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/tpch.h"
#include "query/tpch_queries.h"
#include "service/optimizer_service.h"
#include "test_helpers.h"

namespace moqo {
namespace {

using Signature = std::vector<std::vector<double>>;

// Cold single-threaded reference on a pinned snapshot: the frontier a
// run tagged with that snapshot's version must reproduce exactly.
Signature ReferenceSignature(const Query& query,
                             const std::shared_ptr<const CatalogSnapshot>&
                                 snapshot,
                             const ServiceOptions& service_opts,
                             const IamaOptions& iama, int iterations) {
  const PlanFactory factory(query, snapshot, service_opts.schema,
                            service_opts.cost_params,
                            service_opts.operator_options);
  IamaSession session(factory, iama);
  FrontierSnapshot snap;
  for (int i = 0; i < iterations; ++i) {
    snap = session.Step();
    session.ApplyAction(UserAction::Continue());
  }
  return FrontierSignature(snap.plans);
}

TEST(CatalogRefreshStressTest, RefreshRacesSubmitCancelWait) {
  Catalog catalog = MakeTpchCatalog();
  std::vector<Query> queries;
  for (const Query& q : TpchQueryBlocks(catalog)) {
    if (q.NumTables() <= 3) queries.push_back(q);
  }
  ASSERT_GE(queries.size(), 2u);
  if (queries.size() > 3) queries.resize(3);

  ServiceOptions service_opts;
  service_opts.num_shards = 2;
  service_opts.frontier_cache_capacity = 8;
  service_opts.fragment_cache_bytes = 4 << 20;
  service_opts.operator_options = TinyOperatorOptions(/*sampling=*/true);
  OptimizerService service(catalog, service_opts);

  SubmitRequest submit;
  submit.iama.schedule = ResolutionSchedule(3, 1.02, 0.3);

  // Every catalog generation's snapshot, recorded by the (single)
  // mutator BEFORE the corresponding RefreshCatalog — so by the time
  // any result is tagged with a version, its snapshot is readable.
  std::mutex snaps_mu;
  std::map<uint64_t, std::shared_ptr<const CatalogSnapshot>> snaps;
  {
    std::lock_guard<std::mutex> lock(snaps_mu);
    auto initial = catalog.Snapshot();
    snaps[initial->version()] = std::move(initial);
  }
  // Reference signatures are deduplicated per (query, version): the
  // stress loop then only pays one cold run per generation and query.
  std::mutex refs_mu;
  std::map<std::pair<size_t, uint64_t>, Signature> references;

  const double base_orders = catalog.Get(TpchTable::kOrders).cardinality;
  std::atomic<bool> refresher_done{false};
  std::thread refresher([&] {
    const int kRefreshes = 12;
    for (int i = 0; i < kRefreshes; ++i) {
      // Bounded, cycling drift: generations differ, costs stay sane.
      const double factor = 1.5 + 0.5 * (i % 4);
      ASSERT_TRUE(
          catalog.UpdateStats(TpchTable::kOrders, base_orders * factor)
              .ok());
      auto snap = catalog.Snapshot();
      {
        std::lock_guard<std::mutex> lock(snaps_mu);
        snaps[snap->version()] = std::move(snap);
      }
      service.RefreshCatalog();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    refresher_done.store(true);
  });

  const int kClients = 4;
  const int kPerClient = 24;
  std::atomic<uint64_t> verified{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const size_t qi =
            static_cast<size_t>(c + i) % queries.size();
        StatusOr<QueryId> id = SubmitQuery(service, queries[qi], submit);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        if (i % 5 == 4) service.Cancel(id.value());
        const QueryResult r = service.Wait(id.value());
        if (r.state != QueryState::kDone) continue;  // Cancelled mid-run.
        std::shared_ptr<const CatalogSnapshot> snapshot;
        {
          std::lock_guard<std::mutex> lock(snaps_mu);
          auto it = snaps.find(r.catalog_version);
          ASSERT_NE(it, snaps.end())
              << "result tagged with unknown catalog version "
              << r.catalog_version;
          snapshot = it->second;
        }
        const std::pair<size_t, uint64_t> ref_key(qi, r.catalog_version);
        Signature reference;
        {
          std::lock_guard<std::mutex> lock(refs_mu);
          auto it = references.find(ref_key);
          if (it == references.end()) {
            it = references
                     .emplace(ref_key,
                              ReferenceSignature(queries[qi], snapshot,
                                                 service_opts, submit.iama,
                                                 r.iterations))
                     .first;
          }
          reference = it->second;
        }
        ASSERT_EQ(FrontierSignature(r.frontier.plans), reference)
            << queries[qi].name << " @ catalog version "
            << r.catalog_version;
        ++verified;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  refresher.join();
  EXPECT_TRUE(refresher_done.load());
  // Most submissions complete (only every fifth is cancel-raced), so
  // the bit-identity check above ran against many interleavings.
  EXPECT_GE(verified.load(),
            static_cast<uint64_t>(kClients * kPerClient / 2));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.completed + stats.cancelled + stats.expired,
            stats.submitted);
  EXPECT_GE(stats.catalog_refreshes, 1u);
}

// Refresh also races service *destruction*: tearing the service down
// while a refresher and submitters are mid-flight must neither hang nor
// leak unfinished waiters.
TEST(CatalogRefreshStressTest, RefreshRacesDestruction) {
  Catalog catalog = MakeTpchCatalog();
  std::vector<Query> queries = TpchQueryBlocks(catalog);
  queries.resize(2);
  ServiceOptions service_opts;
  service_opts.num_shards = 2;
  service_opts.operator_options = TinyOperatorOptions(/*sampling=*/true);
  SubmitRequest submit;
  submit.iama.schedule = ResolutionSchedule(3, 1.02, 0.3);
  submit.max_iterations = 1000000;  // Runs outlive the service on purpose.

  std::atomic<bool> stop{false};
  std::thread mutator;
  {
    OptimizerService service(catalog, service_opts);
    for (const Query& q : queries) {
      ASSERT_TRUE(SubmitQuery(service, q, submit).ok());
    }
    mutator = std::thread([&] {
      int i = 0;
      while (!stop.load()) {
        ASSERT_TRUE(catalog
                        .UpdateStats(TpchTable::kOrders,
                                     1.5e6 + 1000.0 * (++i % 7))
                        .ok());
        service.RefreshCatalog();
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true);
    mutator.join();
    // Service destroyed here with runs still queued/stepping.
  }
}

}  // namespace
}  // namespace moqo
