// Tiered fragment-store persistence tests: the cold tier must make
// restarts invisible to results. A store reopened on the same log serves
// the fragments the previous process published — bit-identical, epoch
// included — through the whole service stack; a log torn mid-append
// loses at most the final partial record; a record that no longer
// decodes is skipped, not fatal; compaction reclaims superseded bytes
// without changing what replays; epoch bumps outlive the process that
// issued them; and the hot tier's byte accounting never drifts past its
// budget under same-key republish (the regression the tiering rewrite
// guards with an explicit release-before-charge).
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/tpch.h"
#include "core/iama.h"
#include "query/query.h"
#include "service/fragment_codec.h"
#include "service/fragment_store.h"
#include "service/optimizer_service.h"
#include "test_helpers.h"

namespace moqo {
namespace {

// Per-test scratch directory under TMPDIR; removed on destruction.
class TempDir {
 public:
  TempDir() {
    const char* base = std::getenv("TMPDIR");
    path_ = std::string(base != nullptr ? base : "/tmp") +
            "/moqo_persist_XXXXXX";
    char* got = mkdtemp(&path_[0]);
    EXPECT_NE(got, nullptr);
  }
  ~TempDir() {
    // Best-effort cleanup: the store log plus any compaction sibling.
    std::remove((path_ + "/store.log").c_str());
    std::remove((path_ + "/store.log.compact").c_str());
    rmdir(path_.c_str());
  }
  std::string LogPath() const { return path_ + "/store.log"; }

 private:
  std::string path_;
};

std::shared_ptr<StoredFragment> MakeFragment(int resolution_complete,
                                             size_t plans,
                                             double salt = 0.0) {
  auto frag = std::make_shared<StoredFragment>();
  frag->resolution_complete = resolution_complete;
  frag->plans.resize(plans);
  for (size_t i = 0; i < plans; ++i) {
    frag->plans[i].cost =
        CostVector{1.0 + static_cast<double>(i) + salt, 2.0, 0.1};
    frag->plans[i].output_rows = 10.0 + salt;
    frag->plans[i].order = static_cast<uint8_t>(i % 3);
    frag->plans[i].resolution = static_cast<uint8_t>(resolution_complete);
  }
  return frag;
}

FragmentStore::Options TieredOptions(const std::string& path,
                                     size_t capacity = 1 << 20) {
  FragmentStore::Options opts;
  opts.capacity_bytes = capacity;
  opts.num_shards = 2;
  opts.store_path = path;
  return opts;
}

size_t FileSize(const std::string& path) {
  struct stat st;
  EXPECT_EQ(stat(path.c_str(), &st), 0) << path;
  return static_cast<size_t>(st.st_size);
}

// --- Store-level restart tests ---------------------------------------------

TEST(FragmentPersistenceTest, RestartServesPublishedFragmentsBitIdentical) {
  TempDir dir;
  {
    FragmentStore store(TieredOptions(dir.LogPath()));
    ASSERT_TRUE(store.cold_status().ok());
    for (int i = 0; i < 8; ++i) {
      store.Publish("key" + std::to_string(i),
                    MakeFragment(/*resolution_complete=*/3, 4 + i, 0.25 * i));
    }
    store.Flush();
    EXPECT_EQ(store.Stats().cold_appends, 8u);
  }
  FragmentStore store(TieredOptions(dir.LogPath()));
  ASSERT_TRUE(store.cold_status().ok());
  const FragmentStoreStats boot = store.Stats();
  EXPECT_EQ(boot.replayed_fragments, 8u);
  EXPECT_EQ(boot.replay_torn_bytes, 0u);
  EXPECT_EQ(boot.cold_decode_errors, 0u);
  EXPECT_EQ(boot.entries, 0u);  // Replay fills only the cold index.
  for (int i = 0; i < 8; ++i) {
    const auto got = store.Lookup("key" + std::to_string(i), 3);
    ASSERT_NE(got, nullptr) << i;
    const auto want = MakeFragment(3, 4 + i, 0.25 * i);
    ASSERT_EQ(got->plans.size(), want->plans.size());
    EXPECT_EQ(got->resolution_complete, 3);
    for (size_t p = 0; p < want->plans.size(); ++p) {
      for (int d = 0; d < want->plans[p].cost.dims(); ++d) {
        EXPECT_EQ(got->plans[p].cost.at(d), want->plans[p].cost.at(d));
      }
      EXPECT_EQ(got->plans[p].order, want->plans[p].order);
    }
  }
  const FragmentStoreStats after = store.Stats();
  EXPECT_EQ(after.cold_hits, 8u);
  EXPECT_EQ(after.promotions, 8u);
  // Promoted entries now serve from the hot tier.
  ASSERT_NE(store.Lookup("key0", 3), nullptr);
  EXPECT_EQ(store.Stats().cold_hits, 8u);
}

TEST(FragmentPersistenceTest, ColdResolutionFilterStillApplies) {
  TempDir dir;
  {
    FragmentStore store(TieredOptions(dir.LogPath()));
    store.Publish("k", MakeFragment(2, 3));
    store.Flush();
  }
  FragmentStore store(TieredOptions(dir.LogPath()));
  EXPECT_EQ(store.Lookup("k", 3), nullptr);  // Too coarse even from cold.
  EXPECT_NE(store.Lookup("k", 2), nullptr);
}

TEST(FragmentPersistenceTest, HotEvictionIsDemotionAndColdStillServes) {
  TempDir dir;
  // A hot budget of ~one entry: publishing more demotes, but every
  // fragment stays servable from the log.
  FragmentStore::Options opts = TieredOptions(dir.LogPath(), 2048);
  opts.num_shards = 1;
  FragmentStore store(opts);
  for (int i = 0; i < 8; ++i) {
    store.Publish("k" + std::to_string(i), MakeFragment(2, 8));
  }
  store.Flush();
  FragmentStoreStats stats = store.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.demotions, stats.evictions);
  EXPECT_LE(stats.bytes, 2048u);
  // The evicted early keys come back via cold hit + promotion.
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(store.Lookup("k" + std::to_string(i), 2), nullptr) << i;
  }
  stats = store.Stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_GT(stats.cold_hits, 0u);
  EXPECT_LE(stats.bytes, 2048u);
}

TEST(FragmentPersistenceTest, TornTailLosesOnlyFinalRecord) {
  TempDir dir;
  size_t two_records = 0;
  {
    FragmentStore store(TieredOptions(dir.LogPath()));
    store.Publish("a", MakeFragment(2, 4));
    store.Publish("b", MakeFragment(2, 5));
    store.Flush();
  }
  two_records = FileSize(dir.LogPath());
  {
    FragmentStore store(TieredOptions(dir.LogPath()));
    store.Publish("c", MakeFragment(2, 6));
    store.Flush();
  }
  const size_t three_records = FileSize(dir.LogPath());
  ASSERT_GT(three_records, two_records);
  // Tear the third append mid-record, as a crash between the page cache
  // flushing the head and the tail would.
  ASSERT_EQ(truncate(dir.LogPath().c_str(), three_records - 3), 0);

  FragmentStore store(TieredOptions(dir.LogPath()));
  ASSERT_TRUE(store.cold_status().ok());
  const FragmentStoreStats stats = store.Stats();
  EXPECT_EQ(stats.replayed_fragments, 2u);
  EXPECT_GT(stats.replay_torn_bytes, 0u);
  EXPECT_EQ(stats.cold_decode_errors, 0u);
  EXPECT_NE(store.Lookup("a", 2), nullptr);
  EXPECT_NE(store.Lookup("b", 2), nullptr);
  EXPECT_EQ(store.Lookup("c", 2), nullptr);  // Only the torn tail is lost.

  // The store writes on: a new publish lands after the discarded tail
  // and survives the next restart.
  store.Publish("d", MakeFragment(2, 3));
  store.Flush();
  FragmentStore reopened(TieredOptions(dir.LogPath()));
  EXPECT_EQ(reopened.Stats().replayed_fragments, 3u);
  EXPECT_NE(reopened.Lookup("d", 2), nullptr);
}

TEST(FragmentPersistenceTest, UndecodableRecordSkippedNotFatal) {
  TempDir dir;
  // Forge a log by hand: valid record, framed-but-garbage payload,
  // records of unknown type tags, valid record. Replay must keep both
  // good fragments and count one decode error (the garbage frame passes
  // CRC, so this exercises the payload decoder's rejection path, not the
  // framing CRC). The unknown tags — the retired 3 and 4 and one never
  // used — are CRC-valid too; replay skips them as dead bytes without
  // decoding them.
  std::string log;
  FragmentRecord rec;
  rec.key = "good1";
  rec.epoch = 0;
  rec.resolution_complete = 2;
  AppendLogRecord(&log, LogRecordType::kFragment,
                  EncodeFragmentRecord(rec, *MakeFragment(2, 3)));
  const size_t skipped_from = log.size();
  AppendLogRecord(&log, LogRecordType::kFragment, "not a fragment payload");
  for (const uint8_t tag : {3, 4, 0x7E}) {
    AppendLogRecord(&log, static_cast<LogRecordType>(tag),
                    "payload of an unknown record type");
  }
  const size_t skipped_bytes = log.size() - skipped_from;
  rec.key = "good2";
  AppendLogRecord(&log, LogRecordType::kFragment,
                  EncodeFragmentRecord(rec, *MakeFragment(2, 4)));
  {
    std::FILE* f = std::fopen(dir.LogPath().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(log.data(), 1, log.size(), f), log.size());
    std::fclose(f);
  }
  FragmentStore store(TieredOptions(dir.LogPath()));
  ASSERT_TRUE(store.cold_status().ok());
  const FragmentStoreStats stats = store.Stats();
  EXPECT_EQ(stats.replayed_fragments, 2u);
  EXPECT_EQ(stats.cold_decode_errors, 1u);
  EXPECT_EQ(stats.cold_dead_bytes, skipped_bytes);
  EXPECT_NE(store.Lookup("good1", 2), nullptr);
  EXPECT_NE(store.Lookup("good2", 2), nullptr);
}

TEST(FragmentPersistenceTest, EpochBumpSurvivesRestart) {
  TempDir dir;
  {
    FragmentStore store(TieredOptions(dir.LogPath()));
    store.Publish("old", MakeFragment(2, 3));
    store.BumpEpoch();
    store.Publish("new", MakeFragment(2, 3));
    store.Flush();
    EXPECT_EQ(store.epoch(), 1u);
  }
  FragmentStore store(TieredOptions(dir.LogPath()));
  EXPECT_EQ(store.epoch(), 1u);  // The bump is durable.
  const FragmentStoreStats stats = store.Stats();
  // Only the post-bump fragment replays live; the pre-bump one stays
  // invalidated across the restart.
  EXPECT_EQ(stats.replayed_fragments, 1u);
  EXPECT_EQ(store.Lookup("old", 0), nullptr);
  EXPECT_NE(store.Lookup("new", 0), nullptr);
}

TEST(FragmentPersistenceTest, CompactionReclaimsSupersededBytes) {
  TempDir dir;
  FragmentStore::Options opts = TieredOptions(dir.LogPath());
  opts.compact_min_bytes = 1024;     // Compact early: this is a unit test.
  opts.compact_dead_fraction = 0.3;
  {
    FragmentStore store(opts);
    // Ever-finer republishes of the same keys: each supersedes its
    // predecessor in the log, piling up dead bytes until compaction.
    for (int round = 1; round <= 40; ++round) {
      for (int k = 0; k < 4; ++k) {
        store.Publish("k" + std::to_string(k), MakeFragment(round, 16));
      }
    }
    store.Flush();
    const FragmentStoreStats stats = store.Stats();
    EXPECT_GT(stats.compactions, 0u);
    EXPECT_EQ(stats.cold_entries, 4u);
    // Dead bytes were reclaimed: the log holds little beyond the live
    // records (compaction resets dead to zero; a few post-compaction
    // supersedes may have accrued since).
    EXPECT_LT(stats.cold_dead_bytes, stats.cold_bytes);
  }
  // What replays after compaction is exactly the finest state.
  FragmentStore store(opts);
  EXPECT_EQ(store.Stats().replayed_fragments, 4u);
  for (int k = 0; k < 4; ++k) {
    const auto got = store.Lookup("k" + std::to_string(k), 40);
    ASSERT_NE(got, nullptr) << k;
    EXPECT_EQ(got->resolution_complete, 40);
  }
}

TEST(FragmentPersistenceTest, IoFailureDegradesToDramOnly) {
  FragmentStore store(
      TieredOptions("/nonexistent-dir-for-moqo-test/store.log"));
  EXPECT_FALSE(store.cold_status().ok());
  EXPECT_FALSE(store.cold_enabled());
  // The hot tier still works.
  store.Publish("a", MakeFragment(2, 3));
  EXPECT_NE(store.Lookup("a", 2), nullptr);
  store.Flush();  // No-op, must not hang.
  EXPECT_EQ(store.Stats().cold_appends, 0u);
}

// --- Hot-tier byte accounting under same-key republish (regression) --------

TEST(FragmentPersistenceTest, SameKeyRepublishNeverExceedsByteBudget) {
  // Same-key replacement must release the old entry's bytes before
  // charging the new one's; drift here compounds on every republish
  // until the shard either thrashes or overshoots its budget. Hammer one
  // key with ever-finer, varying-size fragments and check the gauge
  // after every publish.
  const size_t kBudget = 4096;
  FragmentStore::Options opts;
  opts.capacity_bytes = kBudget;
  opts.num_shards = 1;
  FragmentStore store(opts);
  for (int i = 1; i <= 300; ++i) {
    store.Publish("hot-key", MakeFragment(i, 1 + (i * 7) % 20));
    const FragmentStoreStats stats = store.Stats();
    ASSERT_LE(stats.bytes, kBudget) << "republish " << i;
    ASSERT_LE(stats.entries, 1u) << "republish " << i;
  }
  // After the storm, exactly the finest survives.
  ASSERT_NE(store.Lookup("hot-key", 300), nullptr);
  // Drift check: republishing same-size fragments must leave the gauge
  // exactly where one publish put it — any leak compounds per publish
  // and shows up here as a strictly growing gauge.
  store.Publish("hot-key", MakeFragment(301, 5));
  const uint64_t steady = store.Stats().bytes;
  for (int i = 302; i <= 400; ++i) {
    store.Publish("hot-key", MakeFragment(i, 5));
    ASSERT_EQ(store.Stats().bytes, steady) << "republish " << i;
  }
}

// --- Cold live-byte budget --------------------------------------------------

TEST(FragmentPersistenceTest, ColdBudgetDropsOldestFirst) {
  TempDir dir;
  // Hot capacity 0: every lookup goes through the cold index, so what
  // survives the budget is directly observable.
  FragmentStore::Options opts = TieredOptions(dir.LogPath(), /*capacity=*/0);
  // Roomy enough for a handful of fragments, far too small for 40.
  opts.cold_budget_bytes = 4096;
  opts.compact_min_bytes = 1 << 30;  // Keep compaction out of the picture.
  FragmentStore store(opts);
  for (int i = 0; i < 40; ++i) {
    store.Publish("k" + std::to_string(i), MakeFragment(2, 16, 0.5 * i));
  }
  store.Flush();
  const FragmentStoreStats stats = store.Stats();
  EXPECT_GT(stats.cold_budget_dropped, 0u);
  ASSERT_LE(stats.cold_bytes - stats.cold_dead_bytes, opts.cold_budget_bytes);
  // Oldest-first: the survivors are exactly a suffix of publish order.
  bool in_suffix = false;
  for (int i = 0; i < 40; ++i) {
    const bool live = store.Lookup("k" + std::to_string(i), 2) != nullptr;
    if (live) in_suffix = true;
    if (in_suffix) {
      EXPECT_TRUE(live) << "hole at k" << i << " breaks oldest-first order";
    }
  }
  EXPECT_TRUE(in_suffix);
  EXPECT_EQ(store.Lookup("k0", 2), nullptr);
  EXPECT_NE(store.Lookup("k39", 2), nullptr);
}

TEST(FragmentPersistenceTest, ColdBudgetAppliesAtReplay) {
  TempDir dir;
  {
    FragmentStore store(TieredOptions(dir.LogPath()));  // Unlimited.
    for (int i = 0; i < 40; ++i) {
      store.Publish("k" + std::to_string(i), MakeFragment(2, 16, 0.5 * i));
    }
  }
  // Reopen with a tight budget: the recovered live set is trimmed,
  // oldest first, before the store starts serving.
  FragmentStore::Options opts = TieredOptions(dir.LogPath());
  opts.cold_budget_bytes = 4096;
  FragmentStore store(opts);
  const FragmentStoreStats stats = store.Stats();
  EXPECT_GT(stats.cold_budget_dropped, 0u);
  ASSERT_LE(stats.cold_bytes - stats.cold_dead_bytes, opts.cold_budget_bytes);
  EXPECT_LT(stats.cold_entries, 40u);
  // The newest publish survived; the oldest went first.
  EXPECT_NE(store.Lookup("k39", 2), nullptr);
  EXPECT_EQ(store.Lookup("k0", 2), nullptr);
}

// --- Fsync policy -----------------------------------------------------------

TEST(FragmentPersistenceTest, FsyncAlwaysSyncsEveryAppend) {
  TempDir dir;
  FragmentStore::Options opts = TieredOptions(dir.LogPath());
  opts.fsync_mode = FragmentFsyncMode::kAlways;
  FragmentStore store(opts);
  for (int i = 0; i < 8; ++i) {
    store.Publish("k" + std::to_string(i), MakeFragment(2, 4));
  }
  store.Flush();  // Before the bump: a bump makes queued publishes stale.
  store.BumpEpoch();
  store.Flush();
  const FragmentStoreStats stats = store.Stats();
  EXPECT_TRUE(store.cold_status().ok());
  EXPECT_EQ(stats.cold_syncs, stats.cold_appends);
  EXPECT_GE(stats.cold_syncs, 9u);  // 8 fragments + 1 epoch record.
}

TEST(FragmentPersistenceTest, FsyncIntervalSyncsOnTheTick) {
  TempDir dir;
  FragmentStore::Options opts = TieredOptions(dir.LogPath());
  opts.fsync_mode = FragmentFsyncMode::kInterval;
  opts.fsync_interval_ms = 5;
  FragmentStore store(opts);
  for (int i = 0; i < 8; ++i) {
    store.Publish("k" + std::to_string(i), MakeFragment(2, 4));
  }
  store.Flush();
  // The appends are queued-then-logged; the tick catches up with them
  // within a few intervals.
  FragmentStoreStats stats = store.Stats();
  for (int tries = 0; tries < 200 && stats.cold_syncs == 0; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats = store.Stats();
  }
  EXPECT_TRUE(store.cold_status().ok());
  EXPECT_GE(stats.cold_syncs, 1u);
  // Far fewer syncs than appends is the whole point of the mode.
  EXPECT_LE(stats.cold_syncs, stats.cold_appends);
}

TEST(FragmentPersistenceTest, FsyncIntervalFinalSyncOnShutdown) {
  TempDir dir;
  FragmentStore::Options opts = TieredOptions(dir.LogPath());
  opts.fsync_mode = FragmentFsyncMode::kInterval;
  opts.fsync_interval_ms = 60'000;  // Tick will not fire during the test.
  uint64_t syncs = 0;
  {
    FragmentStore store(opts);
    store.Publish("k", MakeFragment(2, 4));
    store.Flush();
    syncs = store.Stats().cold_syncs;
  }
  // Destruction drains and issues the shutdown sync; reopening proves
  // the record is in the log regardless.
  FragmentStore reopened(TieredOptions(dir.LogPath()));
  EXPECT_EQ(reopened.Stats().replayed_fragments, 1u);
  EXPECT_NE(reopened.Lookup("k", 2), nullptr);
  (void)syncs;
}

// --- Service-level warm restart: the end-to-end bit-identity bar -----------

// Mirrors fragment_store_test's shared workload (kept local: this suite
// must stay runnable when that file changes shape).
void AddChain(QueryBuilder* b, int* refs) {
  refs[0] = b->AddTable(TpchTable::kCustomer, 0.5);
  refs[1] = b->AddTable(TpchTable::kOrders, 1.0);
  refs[2] = b->AddTable(TpchTable::kLineitem, 0.25);
  refs[3] = b->AddTable(TpchTable::kSupplier, 1.0);
  b->AddJoin(refs[0], refs[1], 1e-5);
  b->AddJoin(refs[1], refs[2], 2e-6);
  b->AddJoin(refs[2], refs[3], 1e-4);
}

Query ChainQuery() {
  QueryBuilder b("chain");
  int refs[4];
  AddChain(&b, refs);
  return b.Build();
}

Query OverlapQuery(int variant) {
  QueryBuilder b("overlap" + std::to_string(variant));
  int refs[4];
  AddChain(&b, refs);
  const int extra = b.AddTable(TpchTable::kPart, 0.1 + 0.2 * variant);
  b.AddJoin(refs[variant % 4], extra, 1e-3);
  return b.Build();
}

ServiceOptions PersistentServiceOptions(const std::string& store_path) {
  ServiceOptions options;
  options.num_shards = 2;
  // Isolate the fragment path: no whole-query cache. Tests submit each
  // query after the previous one finished, so none coalesces.
  options.frontier_cache_capacity = 0;
  options.fragment_cache_bytes = 16u << 20;
  options.fragment_store_path = store_path;
  return options;
}

TEST(FragmentPersistenceServiceTest, WarmRestartBitIdenticalToColdRun) {
  const Catalog catalog = MakeTpchCatalog();
  SubmitRequest submit;
  submit.iama.schedule = ResolutionSchedule(4, 1.02, 0.3);
  const std::vector<Query> workload = {ChainQuery(), OverlapQuery(0),
                                       OverlapQuery(1)};
  TempDir dir;

  // Cold pass: a fresh service with an empty log. Record the final
  // frontier signature of every query — the reference a warm restart
  // must reproduce bit for bit.
  std::vector<std::vector<std::vector<double>>> cold_signatures;
  {
    OptimizerService service(catalog,
                             PersistentServiceOptions(dir.LogPath()));
    ASSERT_NE(service.fragment_store(), nullptr);
    ASSERT_TRUE(service.fragment_store()->cold_status().ok());
    for (const Query& query : workload) {
      const QueryResult result =
          service.Wait(SubmitQuery(service, query, submit).value());
      ASSERT_EQ(result.state, QueryState::kDone) << query.name;
      cold_signatures.push_back(FrontierSignature(result.frontier.plans));
    }
    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.fragment_publishes, 0u);
    // Service destruction drains the write-behind queue to the log.
  }

  // Warm pass: a new service process (as far as the store can tell) on
  // the same log. Results must be bit-identical, and the chain repeat
  // must be fully seeded from disk — zero enumeration work.
  OptimizerService service(catalog, PersistentServiceOptions(dir.LogPath()));
  ASSERT_NE(service.fragment_store(), nullptr);
  ASSERT_TRUE(service.fragment_store()->cold_status().ok());
  EXPECT_GT(service.fragment_store()->Stats().replayed_fragments, 0u);
  for (size_t q = 0; q < workload.size(); ++q) {
    const QueryResult result =
        service.Wait(SubmitQuery(service, workload[q], submit).value());
    ASSERT_EQ(result.state, QueryState::kDone) << workload[q].name;
    EXPECT_EQ(FrontierSignature(result.frontier.plans), cold_signatures[q])
        << workload[q].name;
    if (q == 0) {
      // The 4-table chain was published whole: every cell seeds from
      // the replayed log, so the warm run enumerates nothing.
      EXPECT_EQ(result.pairs_generated, 0u) << workload[q].name;
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.fragment_cold_hits, 0u);
  EXPECT_GT(stats.fragment_promotions, 0u);
}

TEST(FragmentPersistenceServiceTest, RefreshCatalogInvalidationIsDurable) {
  Catalog catalog = MakeTpchCatalog();
  SubmitRequest submit;
  submit.iama.schedule = ResolutionSchedule(4, 1.02, 0.3);
  TempDir dir;
  {
    OptimizerService service(catalog,
                             PersistentServiceOptions(dir.LogPath()));
    const QueryResult result =
        service.Wait(SubmitQuery(service, ChainQuery(), submit).value());
    ASSERT_EQ(result.state, QueryState::kDone);
    // Publishing happens on the shard thread after the result is
    // waitable; destruction is the only barrier that covers *all* of a
    // run's publishes (waiting on the publish counter only proves the
    // first one happened — a later publish racing the bump below would
    // persist under the new epoch and make this test flake).
  }
  {
    // Statistics drift, then refresh: the epoch bump that invalidates
    // every published fragment must be durable across the restart.
    OptimizerService service(catalog,
                             PersistentServiceOptions(dir.LogPath()));
    ASSERT_NE(service.fragment_store(), nullptr);
    ASSERT_GT(service.fragment_store()->Stats().replayed_fragments, 0u);
    ASSERT_TRUE(
        catalog
            .UpdateStats(TpchTable::kOrders,
                         catalog.Get(TpchTable::kOrders).cardinality * 16.0)
            .ok());
    service.RefreshCatalog();
  }
  OptimizerService service(catalog, PersistentServiceOptions(dir.LogPath()));
  ASSERT_NE(service.fragment_store(), nullptr);
  EXPECT_GE(service.fragment_store()->epoch(), 1u);
  // Pre-bump fragments stay invalidated: the replay keeps none of them.
  EXPECT_EQ(service.fragment_store()->Stats().replayed_fragments, 0u);
  // And a fresh run is still correct (publishes under the new epoch).
  const QueryResult result =
      service.Wait(SubmitQuery(service, ChainQuery(), submit).value());
  EXPECT_EQ(result.state, QueryState::kDone);
  EXPECT_EQ(service.stats().fragment_cold_hits, 0u);
}

}  // namespace
}  // namespace moqo
