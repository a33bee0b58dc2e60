#include "service/optimizer_service.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "util/str.h"

namespace moqo {
namespace {

using Clock = std::chrono::steady_clock;

// Exact textual rendering (hexfloat) so that cache keys distinguish any
// two selectivities / bounds that could produce different cost vectors.
void AppendDouble(std::string* out, double v) { AppendHexDouble(out, v); }

int ResolvedMaxIterations(const SubmitRequest& request) {
  return request.max_iterations > 0 ? request.max_iterations
                                    : request.iama.schedule.NumLevels();
}

// The catalog-version-independent tail of CanonicalQueryKey. Split out
// so Submit can do the O(query) string construction outside the
// admission lock and only prepend the version prefix under it.
// Tenant, priority, deadline, and streaming knobs are deliberately
// excluded: they never affect the frontier, so submissions differing
// only in them share cache lines and coalesce.
std::string CanonicalQueryKeySuffix(const Query& query,
                                    const MetricSchema& schema,
                                    const SubmitRequest& options) {
  std::string key = "t=";
  for (const TableRef& t : query.tables) {  // Aliases are display-only.
    key += std::to_string(t.table);
    key += ':';
    AppendDouble(&key, t.predicate_selectivity);
    key += ',';
  }
  key += ";j=";
  for (const JoinPredicate& j : query.joins) {
    // Endpoint orientation is symmetric — normalize it. The predicate
    // *sequence* stays as written: predicate indices feed the
    // interesting-order tags, so reordering could change the frontier.
    key += std::to_string(std::min(j.left, j.right));
    key += '+';
    key += std::to_string(std::max(j.left, j.right));
    key += ':';
    AppendDouble(&key, j.selectivity);
    key += ',';
  }
  key += ";m=";
  for (MetricId m : schema.metrics()) {
    key += std::to_string(static_cast<int>(m));
    key += ',';
  }
  const ResolutionSchedule& sched = options.iama.schedule;
  key += ";s=";
  key += std::to_string(sched.NumLevels());
  key += ':';
  AppendDouble(&key, sched.alpha_target());
  key += ':';
  AppendDouble(&key, sched.alpha_step());
  key += ':';
  key += std::to_string(static_cast<int>(sched.kind()));
  key += ";b=";
  if (options.iama.initial_bounds.has_value()) {
    const CostVector& b = *options.iama.initial_bounds;
    for (int i = 0; i < b.dims(); ++i) {
      AppendDouble(&key, b[i]);
      key += ',';
    }
  } else {
    key += "inf";
  }
  // Result-affecting optimizer knobs. Counter tracking and the
  // service-owned fragment fields never change a frontier.
  const OptimizerOptions& opt = options.iama.optimizer;
  key += ";o=";
  AppendDouble(&key, opt.cell_gamma);
  key += opt.prune_against_all_resolutions ? ":1" : ":0";
  key += opt.park_next_level_only ? ":1" : ":0";
  key += opt.sorted_pruning ? ":1" : ":0";
  key += ";i=";
  key += std::to_string(ResolvedMaxIterations(options));
  return key;
}

// Joins a version prefix to a precomputed suffix. The catalog version
// leads the key: frontiers depend on the base statistics, so
// submissions from different catalog generations must never share a
// cache line, a shard-placement bucket, or an in-flight leader
// (ROADMAP's missing-epoch gap).
std::string VersionedKey(uint64_t catalog_version,
                         const std::string& suffix) {
  std::string key = "v2;c=";
  key += std::to_string(catalog_version);
  key += ';';
  key += suffix;
  return key;
}

}  // namespace

std::string CanonicalQueryKey(const Query& query, const MetricSchema& schema,
                              const SubmitRequest& request,
                              uint64_t catalog_version) {
  return VersionedKey(catalog_version,
                      CanonicalQueryKeySuffix(query, schema, request));
}

// One submitted query: its observer, scheduling parameters, and the run
// it is attached to (its own for a leader; a shared one for a follower).
struct OptimizerService::QueryEntry {
  QueryId id = kInvalidQueryId;
  SnapshotObserver observer;
  // Pull-based stream handed to the submitter (null unless requested).
  // The shard pushes into it per step; finalization pushes the terminal
  // event. Its own mutex is a leaf below mu_.
  std::shared_ptr<SnapshotSubscription> subscription;
  // Admission-control identity; "" = default tenant. Finalization
  // releases the tenant's in-flight slot.
  std::string tenant;
  int priority = 1;
  bool has_deadline = false;
  Clock::time_point deadline;
  // True when this submission attached to an in-flight duplicate (stays
  // true through leadership promotion).
  bool coalesced = false;
  // Snapshots delivered to this entry's observer, credited at turn
  // boundaries under mu_; completion delivers the final frontier to
  // observers still at 0.
  int snapshots_seen = 0;
  std::atomic<bool> cancel_requested{false};
  RunState* run = nullptr;
};

// One physical optimization: the session plus the queries riding on it.
// Queue membership, leadership, followers, pending bounds, and the
// published snapshot are guarded by mu_; factory/session/steps_done/
// last_snapshot belong to the shard thread whose turn it is (a run is
// never in a queue while being stepped, and turn boundaries acquire mu_,
// ordering successive turns even across different shard threads).
struct OptimizerService::RunState {
  uint64_t run_id = 0;
  std::string key;
  Query query;
  IamaOptions iama;  // From the founding submission (key-equal for all).
  int max_iterations = 0;
  size_t home_shard = 0;
  // The catalog snapshot pinned at admission: the run optimizes on it
  // for its whole lifetime, immune to live catalog mutation. Immutable,
  // so reading it needs no lock once set.
  std::shared_ptr<const CatalogSnapshot> catalog;
  uint64_t catalog_version = 0;  // == catalog->version(), for results.
  // Fragment-store epoch observed at admission (in the same mu_
  // critical section that a RefreshCatalog would use to mark this run
  // stale): the run's fragment keys are built against this epoch, so a
  // refresh between admission and the first turn cannot make the run
  // read or write fragments of the new catalog generation.
  uint64_t fragment_epoch = 0;
  QueryId leader = kInvalidQueryId;
  std::vector<QueryId> followers;  // Attach order; promotion order.
  // ApplyBounds happened: the result no longer matches `key`, so no new
  // followers attach and the cache is not filled on completion.
  bool diverged = false;
  // RefreshCatalog happened after this run's admission: the run
  // finishes on its pinned snapshot, but — mirroring `diverged` — it
  // accepts no new followers and never publishes to the whole-query
  // cache or the fragment store (its results describe dead statistics).
  bool stale = false;
  std::optional<CostVector> pending_bounds;
  // Tenant of the founding submission, for fragment warm-hit telemetry
  // attribution: the founder paid for the run's admission slot, so its
  // tenant gets the seeding credit even after leadership promotion.
  std::string tenant;
  // Cells seeded from the fragment store were credited to
  // tenant_fragment_hits_ (done once, at the first turn boundary —
  // seeding happens entirely during session build).
  bool fragment_hits_credited = false;
  // Shard-thread-only state (built lazily on the first turn, or at
  // admission when the fragment store is enabled — see Submit):
  std::unique_ptr<PlanFactory> factory;
  std::unique_ptr<IamaSession> session;
  // Per-run adapter between the session's optimizer and the service's
  // fragment store (null when the store is disabled). Shard-thread-only
  // except for the final PublishAll, which runs after the run is
  // destroyed (the provider is moved out first) and outside mu_.
  std::unique_ptr<FragmentStoreProvider> fragment_provider;
  int steps_done = 0;
  FrontierSnapshot last_snapshot;
  // Published under mu_ at turn boundaries, for follower attach/cancel/
  // expiry results between turns.
  std::shared_ptr<const FrontierSnapshot> last_published;
  int steps_published = 0;
  // Optimizer work counters mirrored at turn boundaries (under mu_), so
  // finalization paths never touch the session from other threads.
  uint64_t plans_published = 0;
  uint64_t pairs_published = 0;
};

OptimizerService::OptimizerService(const Catalog& catalog,
                                   ServiceOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      catalog_snapshot_(catalog.Snapshot()) {
  MOQO_CHECK(options_.num_shards >= 1);
  if (options_.fragment_cache_bytes > 0) {
    FragmentStore::Options store_options;
    store_options.capacity_bytes = options_.fragment_cache_bytes;
    store_options.store_path = options_.fragment_store_path;
    store_options.cold_budget_bytes = options_.fragment_cold_budget_bytes;
    store_options.fsync_mode = options_.fragment_fsync;
    // With a store_path this replays the persistence log before any
    // query is admitted: the recovered epoch and cold index are in
    // place when the first lookup happens.
    fragment_store_ = std::make_unique<FragmentStore>(store_options);
    fragment_store_->SetCatalogVersion(catalog_snapshot_->version());
  }
  shard_queues_.resize(static_cast<size_t>(options_.num_shards));
  schedulers_.reserve(static_cast<size_t>(options_.num_shards));
  for (size_t i = 0; i < static_cast<size_t>(options_.num_shards); ++i) {
    schedulers_.emplace_back([this, i] { SchedulerLoop(i); });
  }
}

OptimizerService::~OptimizerService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : schedulers_) t.join();
  std::unique_lock<std::mutex> lock(mu_);
  for (std::deque<uint64_t>& q : shard_queues_) q.clear();
  // Unblock any Wait() on queries the shards never finished.
  while (!entries_.empty()) {
    QueryEntry* entry = entries_.begin()->second.get();
    const RunState* run = entry->run;
    FinalizeEntryLocked(entry, QueryState::kCancelled, run->last_published,
                        run->steps_published, run->plans_published,
                        run->pairs_published);
  }
  runs_.clear();
  inflight_.clear();
  // Drain threads already inside Wait(): they still touch mu_, done_cv_,
  // and results_, which must not be destroyed under them.
  waiters_cv_.wait(lock, [this] { return waiters_ == 0; });
}

StatusOr<SubmitResponse> OptimizerService::Submit(SubmitRequest request) {
  // All user input is validated here (Status, not CHECK) — this is the
  // entry point remote bytes reach after decoding, so nothing below may
  // abort on a malformed field. The query itself is validated under mu_
  // against the pinned admission snapshot (the statistics the run will
  // actually optimize on), further below.
  if (request.max_iterations < 0) {
    return Status::InvalidArgument("max_iterations must be >= 0");
  }
  if (request.priority < 1) {
    return Status::InvalidArgument("priority must be >= 1");
  }
  if (request.deadline_ms < 0.0) {
    return Status::InvalidArgument("deadline_ms must be >= 0");
  }
  if (request.iama.initial_bounds.has_value() &&
      request.iama.initial_bounds->dims() != options_.schema.dims()) {
    return Status::InvalidArgument(
        "initial_bounds dimension does not match the service metric schema");
  }
  if (request.iama.optimizer.fragment_store != nullptr ||
      request.iama.optimizer.fragment_publish) {
    return Status::InvalidArgument(
        "optimizer.fragment_store/fragment_publish are owned by the "
        "service (ServiceOptions::fragment_cache_bytes); leave them at "
        "their defaults");
  }

  const int max_iterations = ResolvedMaxIterations(request);
  if (options_.max_iterations_limit > 0 &&
      max_iterations > options_.max_iterations_limit) {
    // Checked on the resolved value so a schedule-derived step count is
    // bounded too, not just an explicit request.
    return Status::InvalidArgument(
        "max_iterations " + std::to_string(max_iterations) +
        " exceeds the service limit of " +
        std::to_string(options_.max_iterations_limit));
  }
  // Tenant quota and fair-share weight (options_ is immutable after
  // construction, so the lookup needs no lock). The weight scales the
  // round-robin turn length — scheduling only, never the frontier.
  auto quota_it = options_.tenant_quotas.find(request.tenant);
  const TenantQuota& quota = quota_it != options_.tenant_quotas.end()
                                 ? quota_it->second
                                 : options_.default_quota;
  const long long weighted_priority =
      static_cast<long long>(request.priority) *
      static_cast<long long>(std::max(1, quota.weight));
  const int effective_priority = static_cast<int>(
      std::min<long long>(weighted_priority, 1 << 20));

  // Validation and the O(query) canonical-key construction stay outside
  // the admission lock (they are the expensive part of Submit); only
  // the catalog-version prefix depends on state mu_ guards. The
  // canonical key drives shard placement, the completed-run cache, and
  // in-flight coalescing, so it is always computed. It embeds the
  // admission snapshot's version: keys from different catalog
  // generations never collide.
  std::shared_ptr<const CatalogSnapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = catalog_snapshot_;
  }
  MOQO_RETURN_IF_ERROR(ValidateQuery(request.query, *snapshot));
  const std::string key_suffix =
      CanonicalQueryKeySuffix(request.query, options_.schema, request);

  SubmitResponse response;
  // Set on a cache hit; streamed to the observer outside the lock.
  std::shared_ptr<const FrontierSnapshot> cached;
  bool notify = false;
  // Set when the new run's session must be built before it is enqueued
  // (fragment services build at admission; see below).
  RunState* build_at_admission = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      // Admission is closed for good (rolling restart); even cache hits
      // are rejected so clients fail over to a serving replica at once.
      ++stats_.drain_rejected;
      return Status::Draining(
          "service is draining for restart; resubmit to another replica");
    }
    if (catalog_snapshot_ != snapshot) {
      // A RefreshCatalog landed between the peek and admission:
      // re-validate against the snapshot this submission actually pins
      // (rare — the price of keeping validation off the hot lock).
      // Admission stays atomic with respect to refresh: a submission
      // either fully precedes one (pins the old snapshot, is marked
      // stale with the other live runs) or fully follows it.
      snapshot = catalog_snapshot_;
      MOQO_RETURN_IF_ERROR(ValidateQuery(request.query, *snapshot));
    }
    const std::string key = VersionedKey(snapshot->version(), key_suffix);
    response.catalog_version = snapshot->version();
    auto hit = options_.frontier_cache_capacity > 0 ? cache_index_.find(key)
                                                    : cache_index_.end();
    if (hit != cache_index_.end()) {
      // Cache hits occupy no run and no tenant slot, so they are served
      // even at quota or over capacity — rejecting free work helps
      // nobody.
      const QueryId id = next_id_++;
      ++stats_.submitted;
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, hit->second);
      const CacheEntry& entry = cache_lru_.front().second;
      StoredResult result;
      result.id = id;
      result.state = QueryState::kDone;
      result.iterations = entry.iterations;
      result.from_cache = true;
      result.catalog_version = entry.catalog_version;
      result.frontier = entry.frontier;  // Shared, not copied.
      RecordResultLocked(std::move(result));
      ++stats_.cache_hits;
      ++stats_.completed;
      cached = entry.frontier;
      response.id = id;
      response.from_cache = true;
      response.catalog_version = entry.catalog_version;
      if (request.subscribe) {
        // The stream of a cached result is exactly one final event.
        response.subscription = std::make_shared<SnapshotSubscription>(
            request.subscription_capacity);
        response.subscription->Push(entry.frontier, /*is_final=*/true);
      }
    } else {
      // Per-tenant in-flight quota: leaders and followers both hold a
      // slot (a follower still consumes a result, a Wait, a stream).
      auto tenant_count = tenant_inflight_.find(request.tenant);
      if (quota.max_inflight > 0 &&
          tenant_count != tenant_inflight_.end() &&
          tenant_count->second >= quota.max_inflight) {
        ++stats_.quota_rejected;
        return Status::QuotaExceeded(
            "tenant '" + request.tenant + "' is at its in-flight quota (" +
            std::to_string(quota.max_inflight) + ")");
      }
      auto flight = inflight_.find(key);
      const bool coalesces = flight != inflight_.end();
      if (!coalesces && options_.max_inflight_runs > 0 &&
          runs_.size() >= options_.max_inflight_runs) {
        // Load shed: the submission would create a run beyond the
        // bound. The retry-after hint scales with the queued backlog —
        // a crude drain-time estimate, monotone in load.
        ++stats_.shed;
        size_t queued = 0;
        for (const std::deque<uint64_t>& q : shard_queues_) {
          queued += q.size();
        }
        if (queued < 1) queued = 1;
        const uint64_t hint = static_cast<uint64_t>(
            options_.shed_retry_hint_ms * static_cast<double>(queued) + 0.5);
        return Status::Shedding(
            "service over capacity (" + std::to_string(runs_.size()) + "/" +
                std::to_string(options_.max_inflight_runs) +
                " runs in flight)",
            hint);
      }
      const QueryId id = next_id_++;
      ++stats_.submitted;
      response.id = id;
      auto entry = std::make_unique<QueryEntry>();
      entry->id = id;
      entry->observer = std::move(request.observer);
      entry->tenant = request.tenant;
      entry->priority = effective_priority;
      if (request.subscribe) {
        entry->subscription = std::make_shared<SnapshotSubscription>(
            request.subscription_capacity);
        response.subscription = entry->subscription;
      }
      ++tenant_inflight_[request.tenant];
      if (request.deadline_ms > 0.0) {
        entry->has_deadline = true;
        entry->deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   request.deadline_ms));
      }
      if (coalesces) {
        // Coalesce: ride the in-flight leader instead of optimizing the
        // same query a second time.
        RunState* run = runs_.at(flight->second).get();
        entry->run = run;
        entry->coalesced = true;
        run->followers.push_back(id);
        ++stats_.coalesced;
        response.coalesced = true;
      } else {
        auto run = std::make_unique<RunState>();
        run->run_id = next_run_id_++;
        run->key = key;
        run->query = std::move(request.query);
        run->iama = request.iama;
        run->max_iterations = max_iterations;
        // Pin the admission-time catalog generation: the snapshot the
        // session will optimize on and the fragment epoch its keys are
        // built against (see the RunState field comments).
        run->catalog = snapshot;
        run->catalog_version = snapshot->version();
        run->fragment_epoch =
            fragment_store_ != nullptr ? fragment_store_->epoch() : 0;
        run->tenant = request.tenant;
        run->home_shard = static_cast<size_t>(
            Fnv1a64(key) % static_cast<uint64_t>(options_.num_shards));
        run->leader = id;
        entry->run = run.get();
        inflight_[key] = run->run_id;
        if (fragment_store_ != nullptr) {
          // Fragment services build the session (an O(plan-space) seed
          // probe) at admission, outside the lock, and enqueue after:
          // paired with the first-turn re-probe in SchedulerLoop, this
          // brackets the window in which concurrent overlapping runs
          // publish — instead of racing them with a single mid-window
          // lookup. Until the run is enqueued below no shard can pop
          // it, so the build needs no lock.
          build_at_admission = run.get();
        } else {
          shard_queues_[run->home_shard].push_back(run->run_id);
          notify = true;
        }
        runs_.emplace(run->run_id, std::move(run));
      }
      entries_.emplace(id, std::move(entry));
    }
    // Every successful admission (fresh, coalesced, or cache hit)
    // reports the tenant's cumulative fragment warm hits as of now.
    const auto hits_it = tenant_fragment_hits_.find(request.tenant);
    if (hits_it != tenant_fragment_hits_.end()) {
      response.tenant_fragment_hits = hits_it->second;
    }
  }
  if (cached != nullptr) {
    // Stream the cached final frontier as the one and only snapshot.
    // (Waiters were already notified inside the lock.)
    if (request.observer) request.observer(response.id, *cached);
  } else if (notify) {
    work_cv_.notify_one();
  }
  if (build_at_admission != nullptr) {
    BuildRun(build_at_admission);
    {
      std::lock_guard<std::mutex> lock(mu_);
      shard_queues_[build_at_admission->home_shard].push_back(
          build_at_admission->run_id);
    }
    work_cv_.notify_one();
  }
  return response;
}

bool OptimizerService::Cancel(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  QueryEntry* entry = it->second.get();
  entry->cancel_requested.store(true, std::memory_order_relaxed);
  RunState* run = entry->run;
  if (run->leader != id) {
    // A follower detaches immediately: the run (and its other riders)
    // are unaffected, so there is no turn boundary to wait for.
    run->followers.erase(
        std::find(run->followers.begin(), run->followers.end(), id));
    FinalizeEntryLocked(entry, QueryState::kCancelled, run->last_published,
                        run->steps_published, run->plans_published,
                        run->pairs_published);
  }
  // Leaders are finalized by the shard thread at the next step boundary
  // (possibly handing leadership to the oldest follower).
  return true;
}

Status OptimizerService::ApplyBounds(QueryId id, const CostVector& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound("unknown or already finished query id");
  }
  if (bounds.dims() != options_.schema.dims()) {
    return Status::InvalidArgument(
        "bounds dimension does not match the service metric schema");
  }
  RunState* run = it->second->run;
  // Applied by the stepping shard at the next turn boundary; several
  // ApplyBounds before that boundary collapse to the latest one.
  run->pending_bounds = bounds;
  if (!run->diverged) {
    // The run's result no longer corresponds to its canonical key:
    // stop new duplicates from attaching and keep it out of the cache.
    run->diverged = true;
    auto flight = inflight_.find(run->key);
    if (flight != inflight_.end() && flight->second == run->run_id) {
      inflight_.erase(flight);
    }
  }
  return Status::OK();
}

uint64_t OptimizerService::RefreshCatalog() {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const CatalogSnapshot> fresh = catalog_.Snapshot();
  if (fresh->version() == catalog_snapshot_->version()) {
    // Nothing changed since the last pin: invalidating would only
    // throw away valid cache entries and fragments.
    return catalog_snapshot_->version();
  }
  catalog_snapshot_ = std::move(fresh);
  // Old-generation fragments become unreachable (fragment keys embed
  // the epoch) and age out of the store via LRU; cold-tier entries are
  // swept (and the bump made durable) by the store's write-behind
  // thread, with decode-time staleness checks covering the race.
  if (fragment_store_ != nullptr) {
    fragment_store_->BumpEpoch();
    fragment_store_->SetCatalogVersion(catalog_snapshot_->version());
  }
  // Whole-query cache: every resident key embeds a dead catalog version
  // and can never be hit again — drop the entries now instead of
  // letting them squat in the LRU until capacity pushes them out.
  cache_lru_.clear();
  cache_index_.clear();
  // In-flight runs finish on their pinned snapshots (the anytime
  // contract for their riders) but are excluded from every sharing
  // surface from here on — exactly the diverged-run machinery, minus
  // the bounds change.
  for (auto& [rid, run] : runs_) {
    if (run->stale) continue;
    run->stale = true;
    auto flight = inflight_.find(run->key);
    if (flight != inflight_.end() && flight->second == rid) {
      inflight_.erase(flight);
    }
  }
  ++stats_.catalog_refreshes;
  return catalog_snapshot_->version();
}

uint64_t OptimizerService::catalog_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_snapshot_->version();
}

QueryResult OptimizerService::Wait(QueryId id) {
  QueryResult result;
  std::shared_ptr<const FrontierSnapshot> frontier;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Register as a waiter: pins the id's result against retention
    // eviction and holds off service destruction until we are out.
    ++waiters_;
    ++wait_counts_[id];
    done_cv_.wait(lock, [&] {
      return results_.find(id) != results_.end() ||
             entries_.find(id) == entries_.end();
    });
    auto it = results_.find(id);
    if (it != results_.end()) {
      const StoredResult& stored = it->second;
      result.id = stored.id;
      result.state = stored.state;
      result.iterations = stored.iterations;
      result.from_cache = stored.from_cache;
      result.coalesced = stored.coalesced;
      result.plans_generated = stored.plans_generated;
      result.pairs_generated = stored.pairs_generated;
      result.catalog_version = stored.catalog_version;
      frontier = stored.frontier;  // Shared; deep copy happens unlocked.
    }  // else: unknown id — result stays default-constructed.
    auto wit = wait_counts_.find(id);
    if (--wit->second == 0) wait_counts_.erase(wit);
    if (--waiters_ == 0) waiters_cv_.notify_all();
  }
  if (frontier != nullptr) result.frontier = *frontier;
  return result;
}

ServiceStats OptimizerService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  if (fragment_store_ != nullptr) {
    // The store keeps its own (internally sharded) counters; merging
    // outside mu_ keeps the lock orders disjoint.
    const FragmentStoreStats fs = fragment_store_->Stats();
    out.fragment_hits = fs.hits;
    out.fragment_misses = fs.misses;
    out.fragment_publishes = fs.publishes;
    out.fragment_evictions = fs.evictions;
    out.fragment_bytes = fs.bytes;
    out.fragment_cold_hits = fs.cold_hits;
    out.fragment_promotions = fs.promotions;
    out.fragment_demotions = fs.demotions;
    out.fragment_compactions = fs.compactions;
  }
  return out;
}

int OptimizerService::active_waiters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiters_;
}

void OptimizerService::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

bool OptimizerService::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void OptimizerService::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  // Every finalization notifies done_cv_ (via RecordResultLocked), so
  // the predicate is re-checked exactly when an entry retires. With
  // BeginDrain() in effect no new entries can appear, making this a
  // terminating drain barrier; without it, it is simply "idle right
  // now".
  done_cv_.wait(lock, [&] { return entries_.empty(); });
}

bool OptimizerService::AnyQueuedLocked() const {
  for (const std::deque<uint64_t>& q : shard_queues_) {
    if (!q.empty()) return true;
  }
  return false;
}

uint64_t OptimizerService::PopRunLocked(size_t shard) {
  std::deque<uint64_t>& own = shard_queues_[shard];
  if (!own.empty()) {
    const uint64_t id = own.front();
    own.pop_front();
    return id;
  }
  // Steal from the back of the largest other queue: the back is the run
  // farthest from its home shard's attention, so stealing it interferes
  // least with the victim's round-robin order.
  size_t victim = shard;
  size_t victim_size = 0;
  for (size_t j = 0; j < shard_queues_.size(); ++j) {
    if (j != shard && shard_queues_[j].size() > victim_size) {
      victim = j;
      victim_size = shard_queues_[j].size();
    }
  }
  MOQO_CHECK(victim != shard);  // Caller guarantees AnyQueuedLocked().
  const uint64_t id = shard_queues_[victim].back();
  shard_queues_[victim].pop_back();
  ++stats_.work_steals;
  return id;
}

void OptimizerService::BuildRun(RunState* run) {
  // The factory pins the run's admission snapshot — not the live
  // catalog — so a RefreshCatalog between admission and this first turn
  // (or mid-run) never changes what the session optimizes on.
  run->factory = std::make_unique<PlanFactory>(
      run->query, run->catalog, options_.schema, options_.cost_params,
      options_.operator_options);
  IamaOptions iama = run->iama;
  if (fragment_store_ != nullptr) {
    run->fragment_provider = std::make_unique<FragmentStoreProvider>(
        fragment_store_.get(), run->query, options_.schema, run->iama,
        options_.operator_options.enable_interesting_orders,
        run->fragment_epoch);
    iama.optimizer.fragment_store = run->fragment_provider.get();
    iama.optimizer.fragment_publish = true;
  }
  run->session = std::make_unique<IamaSession>(*run->factory, iama);
}

void OptimizerService::RecordResultLocked(StoredResult result) {
  const QueryId id = result.id;
  results_.emplace(id, std::move(result));
  results_order_.push_back(id);
  if (options_.result_retention > 0) {
    // Evict the oldest result that no thread is blocked in Wait() on —
    // evicting a waited-on result would silently lose the frontier its
    // waiter is about to read. Pinned results keep their age (the scan
    // preserves finish order); if everything in excess is pinned,
    // retention is temporarily exceeded (soft cap).
    while (results_order_.size() > options_.result_retention) {
      auto victim = results_order_.begin();
      while (victim != results_order_.end() &&
             wait_counts_.find(*victim) != wait_counts_.end()) {
        ++victim;
      }
      if (victim == results_order_.end()) break;  // All pinned.
      results_.erase(*victim);
      results_order_.erase(victim);
    }
  }
  done_cv_.notify_all();
}

void OptimizerService::FinalizeEntryLocked(
    QueryEntry* entry, QueryState state,
    std::shared_ptr<const FrontierSnapshot> frontier, int iterations,
    uint64_t plans, uint64_t pairs) {
  StoredResult result;
  result.id = entry->id;
  result.state = state;
  result.iterations = iterations;
  result.coalesced = entry->coalesced;
  result.plans_generated = plans;
  result.pairs_generated = pairs;
  result.catalog_version = entry->run->catalog_version;
  result.frontier = frontier != nullptr
                        ? std::move(frontier)
                        : std::make_shared<const FrontierSnapshot>();
  switch (state) {
    case QueryState::kDone:
      ++stats_.completed;
      break;
    case QueryState::kCancelled:
      ++stats_.cancelled;
      break;
    case QueryState::kExpired:
      ++stats_.expired;
      break;
    case QueryState::kQueued:
      MOQO_CHECK(false);  // Not a terminal state.
  }
  if (entry->subscription != nullptr) {
    // The terminal frontier is never dropped: Push closes the stream, so
    // this event survives any backlog (drop-oldest evicts older ones to
    // make room) and late pushes from a turn already in flight are
    // ignored. Drops are folded into service stats here — the
    // subscription outlives the entry, but its count is stable once
    // closed.
    entry->subscription->Push(result.frontier, /*is_final=*/true);
    stats_.snapshot_drops += entry->subscription->dropped_total();
  }
  // Release the tenant's in-flight slot (every non-cache admission took
  // one, the anonymous tenant "" included).
  auto tenant_it = tenant_inflight_.find(entry->tenant);
  if (tenant_it != tenant_inflight_.end() && --tenant_it->second <= 0) {
    tenant_inflight_.erase(tenant_it);
  }
  RecordResultLocked(std::move(result));
  entries_.erase(entry->id);
}

void OptimizerService::SweepExpiredFollowersLocked(RunState* run,
                                                   Clock::time_point now) {
  for (size_t i = 0; i < run->followers.size();) {
    QueryEntry* f = entries_.at(run->followers[i]).get();
    if (f->has_deadline && now >= f->deadline) {
      FinalizeEntryLocked(f, QueryState::kExpired, run->last_published,
                          run->steps_published, run->plans_published,
                          run->pairs_published);
      run->followers.erase(run->followers.begin() +
                           static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void OptimizerService::CompleteRunLocked(RunState* run,
                                         std::vector<LateDelivery>* deliveries) {
  // Turn boundaries publish before completing, so the published
  // snapshot is the final frontier (the fallback covers zero-step runs).
  std::shared_ptr<const FrontierSnapshot> frontier =
      run->last_published != nullptr
          ? run->last_published
          : std::make_shared<const FrontierSnapshot>();
  // Diverged runs no longer match their key; stale runs describe a dead
  // catalog generation. Neither may fill the cache.
  if (!run->diverged && !run->stale && options_.frontier_cache_capacity > 0) {
    auto it = cache_index_.find(run->key);
    if (it != cache_index_.end()) {
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
      cache_lru_.front().second = {frontier, run->steps_done,
                                   run->catalog_version};
    } else {
      cache_lru_.emplace_front(
          run->key,
          CacheEntry{frontier, run->steps_done, run->catalog_version});
      cache_index_.emplace(run->key, cache_lru_.begin());
      if (cache_lru_.size() > options_.frontier_cache_capacity) {
        cache_index_.erase(cache_lru_.back().first);
        cache_lru_.pop_back();
      }
    }
  }
  // The final frontier is owed to every observer that never saw a step
  // snapshot (followers that attached during or after the last turn, or
  // a leader promoted after the final step); delivery happens outside
  // the lock, after all results below are visible to waiters.
  QueryEntry* leader = entries_.at(run->leader).get();
  if (leader->observer && leader->snapshots_seen == 0) {
    deliveries->push_back({run->leader, leader->observer, frontier});
  }
  FinalizeEntryLocked(leader, QueryState::kDone, frontier, run->steps_done,
                      run->plans_published, run->pairs_published);
  for (QueryId fid : run->followers) {
    QueryEntry* f = entries_.at(fid).get();
    if (f->observer && f->snapshots_seen == 0) {
      deliveries->push_back({fid, f->observer, frontier});
    }
    FinalizeEntryLocked(f, QueryState::kDone, frontier, run->steps_done,
                        run->plans_published, run->pairs_published);
  }
  run->followers.clear();
  DestroyRunLocked(run);
}

bool OptimizerService::RetireLeaderLocked(RunState* run, QueryState state) {
  QueryEntry* leader = entries_.at(run->leader).get();
  FinalizeEntryLocked(leader, state, run->last_published,
                      run->steps_published, run->plans_published,
                      run->pairs_published);
  if (run->followers.empty()) {
    DestroyRunLocked(run);
    return false;
  }
  run->leader = run->followers.front();
  run->followers.erase(run->followers.begin());
  return true;
}

void OptimizerService::DestroyRunLocked(RunState* run) {
  auto flight = inflight_.find(run->key);
  if (flight != inflight_.end() && flight->second == run->run_id) {
    inflight_.erase(flight);
  }
  runs_.erase(run->run_id);  // Frees the arena and plan indexes.
}

void OptimizerService::SchedulerLoop(size_t shard) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || AnyQueuedLocked(); });
    if (stop_) return;
    const uint64_t rid = PopRunLocked(shard);
    RunState* run = runs_.at(rid).get();
    // Adopt the run: it re-enqueues on this shard from now on, so a
    // steal moves a run once instead of being re-counted (and re-paid)
    // at every subsequent turn while the victim's queue sits empty.
    run->home_shard = shard;
    const Clock::time_point now = Clock::now();
    SweepExpiredFollowersLocked(run, now);
    // Pre-step gate: a cancelled or expired leader is finalized before
    // the (expensive) factory build; leadership hands off to the oldest
    // follower, and the run dies only when no rider remains. Queued runs
    // always have steps left (completion happens at turn end), so a
    // promoted leader continues the run rather than re-enqueueing it
    // from scratch.
    bool run_destroyed = false;
    for (;;) {
      QueryEntry* gate_leader = entries_.at(run->leader).get();
      QueryState gate = QueryState::kQueued;  // Sentinel: no event.
      if (gate_leader->cancel_requested.load(std::memory_order_relaxed)) {
        gate = QueryState::kCancelled;
      } else if (gate_leader->has_deadline && now >= gate_leader->deadline) {
        gate = QueryState::kExpired;
      }
      if (gate == QueryState::kQueued) break;
      if (!RetireLeaderLocked(run, gate)) {
        run_destroyed = true;
        break;
      }
    }
    if (run_destroyed) continue;

    // Copy the turn's inputs while mu_ is held: the leader entry cannot
    // be erased during the turn (only the stepping shard finalizes
    // leaders), so its deadline copy and atomic cancel flag are safe to
    // read unlocked; follower observers are copied by value because a
    // follower may Cancel (and its entry be freed) mid-turn.
    QueryEntry* leader = entries_.at(run->leader).get();
    const bool has_deadline = leader->has_deadline;
    const Clock::time_point deadline = leader->deadline;
    // The run steps at the highest priority among its riders: a
    // high-priority duplicate accelerates the shared run for everyone.
    int priority = leader->priority;
    std::vector<std::pair<QueryId, SnapshotObserver>> observers;
    // Subscriptions are shared_ptr copies: a rider may Cancel (and its
    // entry be finalized) mid-turn, after which pushes land on a closed
    // stream and are ignored — no dangling, no lost final event.
    std::vector<std::shared_ptr<SnapshotSubscription>> subs;
    if (leader->observer) observers.emplace_back(run->leader, leader->observer);
    if (leader->subscription != nullptr) subs.push_back(leader->subscription);
    for (QueryId fid : run->followers) {
      const QueryEntry* f = entries_.at(fid).get();
      priority = std::max(priority, f->priority);
      if (f->observer) observers.emplace_back(fid, f->observer);
      if (f->subscription != nullptr) subs.push_back(f->subscription);
    }
    std::optional<CostVector> pending = std::move(run->pending_bounds);
    run->pending_bounds.reset();
    lock.unlock();

    // Stepping happens outside the lock: this shard owns the run
    // exclusively (it is in no queue right now), so Submit/Cancel/Wait/
    // ApplyBounds stay responsive during long invocations.
    if (run->session == nullptr) {
      BuildRun(run);
    } else if (run->steps_done == 0 && run->fragment_provider != nullptr) {
      // Fragment services build the session at admission (see Submit),
      // so frontiers published by concurrent overlapping runs between
      // admission and this first turn were invisible to the build-time
      // probe. Re-probe now — lookups no longer race publishes, and a
      // late-admitted duplicate still seeds from the leader's cells.
      run->session->mutable_optimizer()->ReprobeFragments();
    }
    if (pending.has_value()) {
      // Dimensions were validated by ApplyBounds against the service
      // schema, which every session shares.
      MOQO_CHECK(run->session->SetBounds(*pending));
    }
    bool finished = false;
    QueryState end_state = QueryState::kDone;
    int steps_this_turn = 0;
    for (int i = 0; i < priority && !finished; ++i) {
      if (has_deadline && Clock::now() >= deadline) {
        finished = true;
        end_state = QueryState::kExpired;
        break;
      }
      run->last_snapshot = run->session->Step();
      ++run->steps_done;
      ++steps_this_turn;
      for (const auto& [qid, observer] : observers) {
        observer(qid, run->last_snapshot);
      }
      if (!subs.empty()) {
        // One publication copy per step, shared by every subscriber; each
        // Push is an O(1) bounded enqueue — a stalled subscriber costs
        // this shard nothing beyond it (the backpressure guarantee).
        auto shared =
            std::make_shared<const FrontierSnapshot>(run->last_snapshot);
        for (const auto& sub : subs) sub->Push(shared, /*is_final=*/false);
      }
      run->session->ApplyAction(UserAction::Continue());
      if (run->steps_done >= run->max_iterations) {
        finished = true;
      } else if (leader->cancel_requested.load(std::memory_order_relaxed)) {
        finished = true;
        end_state = QueryState::kCancelled;
      }
    }

    // The publication copy (an O(|plans|) deep copy) happens while this
    // shard still owns last_snapshot exclusively — never under mu_.
    std::shared_ptr<const FrontierSnapshot> published;
    if (steps_this_turn > 0) {
      published = std::make_shared<const FrontierSnapshot>(run->last_snapshot);
    }
    std::vector<LateDelivery> deliveries;
    lock.lock();
    stats_.steps_executed += static_cast<uint64_t>(steps_this_turn);
    if (steps_this_turn > 0) {
      for (const auto& [qid, observer] : observers) {
        auto it = entries_.find(qid);
        if (it != entries_.end()) {
          it->second->snapshots_seen += steps_this_turn;
        }
      }
      // Publish before any turn-end finalization so expired followers,
      // retired leaders, and completion all see this turn's frontier.
      run->steps_published = run->steps_done;
      run->last_published = std::move(published);
      // Mirror the optimizer's work counters for QueryResult: this
      // shard owns the session, and the mirror is read only under mu_.
      const Counters& counters = run->session->optimizer().counters();
      run->plans_published = counters.plans_generated;
      run->pairs_published = counters.pairs_generated;
      // Credit the run's fragment warm hits to its founding tenant,
      // once: seeding happens entirely while the session is built, so
      // the counter is final by the first turn boundary.
      if (!run->fragment_hits_credited) {
        run->fragment_hits_credited = true;
        if (counters.fragment_cells_seeded > 0) {
          tenant_fragment_hits_[run->tenant] +=
              counters.fragment_cells_seeded;
        }
      }
    } else if (pending.has_value() && !run->pending_bounds.has_value()) {
      // A zero-step turn (deadline hit before the first step) must not
      // swallow applied-but-unstepped bounds: restore them so the
      // completion guards below keep granting turns until a step runs
      // under them. (Re-applying SetBounds next turn is idempotent — no
      // step advanced the session since. A newer ApplyBounds that
      // arrived mid-turn supersedes them instead.)
      run->pending_bounds = std::move(pending);
    }
    // Followers are deadline-checked at both boundaries of every turn
    // (leaders between every step): a follower whose deadline passed
    // mid-turn must expire here, not ride a completing run to kDone.
    SweepExpiredFollowersLocked(run, Clock::now());
    // Linearize Cancel against completion: Cancel sets the flag under
    // mu_ while the entry is still live, so re-checking here guarantees
    // that a true-returning Cancel is observed as kCancelled even when
    // the last step finished concurrently. (Leadership cannot have
    // changed mid-turn: only the stepping shard reassigns it.)
    if (leader->cancel_requested.load(std::memory_order_relaxed)) {
      finished = true;
      end_state = QueryState::kCancelled;
    }
    // A bounds change accepted during (or right after) the final step
    // must not be silently dropped: instead of completing, the run gets
    // another turn, which applies the bounds and steps at least once
    // under them — ApplyBounds' "takes effect at the next turn
    // boundary" promise holds even against completion.
    if (finished && end_state == QueryState::kDone &&
        run->pending_bounds.has_value()) {
      finished = false;
    }
    if (!finished) {
      shard_queues_[run->home_shard].push_back(rid);  // Back of the line.
      // Wake a stealer only when there is work beyond this run: with a
      // lone run, this shard re-pops it itself before releasing mu_,
      // so a notified idle shard would always find the queues empty.
      if (shard_queues_[run->home_shard].size() > 1) work_cv_.notify_one();
      continue;
    }
    // Predict whether this turn completes the run in state kDone: either
    // the leader finished it, or a retiring leader leaves followers on a
    // run that already ran all its steps (the inner CompleteRunLocked
    // branch below). Exactly then the run's per-cell frontier logs are
    // exported for the cross-query fragment store — now, while the
    // stepping shard still owns the session (CompleteRunLocked destroys
    // the run). The provider is moved out with the logs; the actual
    // store insertion (key building, order canonicalization) happens
    // outside mu_ below. Diverged runs never publish.
    const bool will_complete_done =
        end_state == QueryState::kDone ||
        (!run->followers.empty() &&
         run->steps_done >= run->max_iterations &&
         !run->pending_bounds.has_value());
    std::unique_ptr<FragmentStoreProvider> publish_provider;
    std::vector<IncrementalOptimizer::PublishableFragment> publish_cells;
    if (will_complete_done && !run->diverged && !run->stale &&
        run->fragment_provider != nullptr && run->session != nullptr) {
      publish_cells =
          run->session->mutable_optimizer()->TakePublishableFragments();
      if (!publish_cells.empty()) {
        publish_provider = std::move(run->fragment_provider);
      }
    }
    if (end_state == QueryState::kDone) {
      CompleteRunLocked(run, &deliveries);
    } else if (RetireLeaderLocked(run, end_state)) {
      // Leader-only event and followers remain: the run survives under
      // the promoted leader.
      if (run->steps_done >= run->max_iterations &&
          !run->pending_bounds.has_value()) {
        // The retired leader raced completion: the remaining riders
        // still get the finished frontier (unless a bounds change is
        // pending, which earns the run one more turn — see above).
        CompleteRunLocked(run, &deliveries);
      } else {
        shard_queues_[run->home_shard].push_back(rid);
        if (shard_queues_[run->home_shard].size() > 1) work_cv_.notify_one();
      }
    }
    if (!deliveries.empty() || publish_provider != nullptr) {
      lock.unlock();
      for (const LateDelivery& d : deliveries) d.observer(d.id, *d.frontier);
      if (publish_provider != nullptr) {
        publish_provider->PublishAll(std::move(publish_cells));
      }
      lock.lock();
    }
  }
}

}  // namespace moqo
