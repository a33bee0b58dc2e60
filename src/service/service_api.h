/// \file
/// The versioned request/response surface of OptimizerService — one
/// entry point for in-process callers and the network wire protocol.
///
/// **Why a struct, not parameters.** The Submit surface had begun to
/// accrete positionally (query, then an options bag, then an observer,
/// with tenant/quota and streaming knobs queued up behind them). Each
/// addition would have been another overload; the wire codec would have
/// had to mirror every one. SubmitRequest consolidates the entire
/// submission — query, tenant, scheduling, bounds, streaming — into one
/// struct that the in-process API and the network codec share
/// (src/net/wire.h encodes and decodes exactly this struct), and
/// SubmitResponse carries everything admission decides.
///
/// **Error taxonomy.** Every admission rejection returns a distinct
/// util::Status code that round-trips through the wire protocol:
///   - kInvalidArgument — malformed query or options (never retry as-is);
///   - kQuotaExceeded   — the tenant is at its in-flight quota (retry
///                        after one of the tenant's queries finishes);
///   - kShedding        — the service as a whole is over capacity; the
///                        status carries Status::retry_after_ms(), the
///                        server's backoff hint;
///   - kDraining        — the service is draining for a rolling restart;
///                        resubmit to another replica;
///   - kNotFound        — Cancel/ApplyBounds on an unknown or finished
///                        run id.
/// Internal invariants stay MOQO_CHECKs; anything reachable from client
/// input — including every byte of the wire protocol — is a Status.
#ifndef MOQO_SERVICE_SERVICE_API_H_
#define MOQO_SERVICE_SERVICE_API_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/iama.h"
#include "query/query.h"
#include "service/snapshot_stream.h"
#include "util/status.h"

namespace moqo {

/// Version of the service API surface (SubmitRequest layout and the
/// admission error taxonomy). Bumped on incompatible change; the wire
/// protocol negotiates it at handshake (docs/NETWORK_API.md).
inline constexpr uint32_t kServiceApiVersion = 1;

/// Service-wide ticket for one submitted query. 0 is never issued.
using QueryId = uint64_t;
/// The never-issued id; marks unknown queries in results.
inline constexpr QueryId kInvalidQueryId = 0;

/// Observes one query's frontier stream — the *legacy, synchronous*
/// streaming path. Invoked with the service mutex released, from the
/// shard thread stepping the query's run (or from inside Submit for
/// cache hits); calls for one query are serialized; observers may
/// Submit, Cancel, or ApplyBounds, but must not Wait and must not
/// block — a blocking observer holds its scheduler shard's turn.
/// In-process tooling that wants every snapshot can keep using it;
/// anything that may stall (network peers, slow sinks) must use the
/// pull-based SnapshotSubscription instead (SubmitRequest::subscribe),
/// whose bounded queue cannot stall a shard.
using SnapshotObserver = std::function<void(QueryId, const FrontierSnapshot&)>;

/// Per-tenant admission limits and fair-share weight
/// (ServiceOptions::tenant_quotas / ServiceOptions::default_quota).
struct TenantQuota {
  /// Queries (leaders and coalesced followers alike) a tenant may have
  /// unfinished at once; further Submits return kQuotaExceeded.
  /// 0 = unlimited.
  int max_inflight = 0;
  /// Fair-share weight: the tenant's queries step at `priority * weight`
  /// steps per scheduler turn, so a weight-2 tenant converges roughly
  /// twice as fast as a weight-1 tenant under contention. Clamped to
  /// >= 1. Scheduling only — frontiers are unaffected (bit-identity
  /// holds for every weight).
  int weight = 1;
};

/// One complete submission — the single Submit entry point shared by
/// the in-process API and the network protocol.
struct SubmitRequest {
  /// The query to optimize.
  Query query;
  /// Admission-control identity; "" is the default tenant. Quotas and
  /// fair-share weights are looked up by this name. Tenancy is an
  /// admission concept only: results are tenant-independent, so
  /// caching and in-flight coalescing deliberately cross tenants.
  std::string tenant;
  /// Steps granted per scheduler turn (weighted round-robin); >= 1.
  /// Multiplied by the tenant's fair-share weight; a coalesced run
  /// steps at the maximum effective priority among its riders.
  int priority = 1;
  /// Wall-clock budget in ms, measured from admission; 0 = no deadline.
  /// An expired query completes with whatever frontier its run last
  /// produced — possibly none, if no step ran before the deadline.
  double deadline_ms = 0.0;
  /// Total session steps to run; 0 means schedule.NumLevels() — one
  /// sweep from resolution 0 to rM. Must be >= 0.
  int max_iterations = 0;
  /// Session configuration: resolution schedule, initial bounds, and
  /// result-affecting optimizer knobs. The fragment-store fields
  /// (`iama.optimizer.fragment_store`/`fragment_publish`) are owned by
  /// the service and must be left at their defaults (Submit rejects
  /// anything else).
  IamaOptions iama;
  /// Request a pull-based snapshot stream: SubmitResponse::subscription
  /// is populated with a bounded drop-oldest queue of this run's
  /// snapshots plus a guaranteed final event. The backpressure-safe
  /// path — a subscriber that never polls costs the service nothing
  /// beyond `subscription_capacity` queued snapshots.
  bool subscribe = false;
  /// Capacity (events) of the subscription's queue; clamped to >= 1.
  /// Ignored unless `subscribe` is set.
  size_t subscription_capacity = 8;
  /// Optional legacy synchronous observer (see SnapshotObserver for the
  /// contract and its sharp edge). May be combined with `subscribe`.
  SnapshotObserver observer;
};

/// What admission decided, returned by Submit on success.
struct SubmitResponse {
  /// The query's ticket for Cancel/ApplyBounds/Wait.
  QueryId id = kInvalidQueryId;
  /// The catalog version the query was admitted under.
  uint64_t catalog_version = 0;
  /// True when the submission was served instantly from the completed-
  /// run frontier cache (the subscription, if any, holds exactly one
  /// final event; Wait returns immediately).
  bool from_cache = false;
  /// True when the submission attached to a bit-identical run already
  /// in flight (it performs no optimization work of its own).
  bool coalesced = false;
  /// The pull-based snapshot stream; non-null iff
  /// SubmitRequest::subscribe was set.
  std::shared_ptr<SnapshotSubscription> subscription;
  /// Cumulative fragment-store warm hits credited to the submitting
  /// tenant: Pareto cells that runs founded by this tenant seeded from
  /// the cross-query fragment store instead of enumerating, as of this
  /// admission. 0 while fragment sharing is disabled. Lets a tenant see
  /// how much enumeration work the shared store is saving it without
  /// polling service-wide stats(). On the wire this rides SUBMIT_OK as
  /// a trailing optional field — wire-v1 peers that do not send or
  /// expect it interoperate unchanged (the decoder defaults it to 0).
  uint64_t tenant_fragment_hits = 0;
};

/// Terminal states as reported by Wait(); kQueued is only ever seen as
/// the default of a QueryResult for an unknown id — in-flight queries
/// are not observable through results.
enum class QueryState {
  kQueued,     ///< Not finished (only on unknown-id results).
  kDone,       ///< Ran all requested iterations (or served from cache).
  kCancelled,  ///< Cancel() before completion.
  kExpired,    ///< Deadline elapsed before all iterations ran.
};

/// Terminal outcome of one submitted query, as returned by Wait().
struct QueryResult {
  /// The query's ticket; kInvalidQueryId = unknown query id.
  QueryId id = kInvalidQueryId;
  /// Terminal state (kQueued only for unknown ids).
  QueryState state = QueryState::kQueued;
  /// Optimizer steps executed by the run that served this query (for a
  /// coalesced follower: the shared run's steps, not zero). May exceed
  /// the requested max_iterations when ApplyBounds landed on the run's
  /// final step: the run takes at least one extra step under the new
  /// bounds rather than dropping them.
  int iterations = 0;
  /// True when the result was served by the completed-run LRU cache.
  bool from_cache = false;
  /// True when this query attached to an in-flight duplicate (it was a
  /// follower, or was promoted to leader after attaching as one) and so
  /// triggered no optimization of its own.
  bool coalesced = false;
  /// The catalog version (Catalog::version) this result's frontier was
  /// computed under — the version of the snapshot the serving run
  /// pinned at admission (for cache hits: the version the caching run
  /// pinned, which its key guarantees equals the submitter's). Runs
  /// admitted before a RefreshCatalog() keep their old version, so
  /// clients can tell pre-refresh results from post-refresh ones.
  uint64_t catalog_version = 0;
  /// Optimizer work performed by the run that served this query, as of
  /// the run's latest turn boundary: join plans constructed
  /// (Counters::plans_generated) and fresh sub-plan pairs combined
  /// (Counters::pairs_generated). 0 for cache hits — no optimization
  /// ran. With fragment sharing enabled these are the counters a warm
  /// store visibly reduces on overlapping queries.
  uint64_t plans_generated = 0;
  /// See plans_generated.
  uint64_t pairs_generated = 0;
  /// The run's last *published* snapshot: the final frontier for kDone;
  /// for queries finalized between a run's turns (cancelled or expired
  /// followers, cancelled leaders of dead runs) the frontier from the
  /// latest turn boundary — which may trail snapshots already streamed
  /// to the observer mid-turn. Plan ids inside refer to the run's
  /// (freed) arena — treat them as opaque tags; the cost vectors and
  /// order/resolution fields are the payload.
  FrontierSnapshot frontier;
};

/// Monotonic service-lifetime counters (returned by stats()).
struct ServiceStats {
  uint64_t submitted = 0;       ///< Admitted queries (valid Submits).
  uint64_t completed = 0;       ///< Queries finished in state kDone.
  uint64_t cancelled = 0;       ///< Queries finished in state kCancelled.
  uint64_t expired = 0;         ///< Queries finished in state kExpired.
  uint64_t cache_hits = 0;      ///< Submits served by the frontier cache.
  uint64_t coalesced = 0;       ///< Submits attached to an in-flight run.
  uint64_t steps_executed = 0;  ///< Optimizer steps across all runs.
  uint64_t work_steals = 0;     ///< Runs a shard stole from another queue.
  /// Effective RefreshCatalog() calls (ones that observed a new catalog
  /// version and invalidated; no-op refreshes are not counted).
  uint64_t catalog_refreshes = 0;
  // Admission-control rejections, one counter per taxonomy code:
  uint64_t quota_rejected = 0;  ///< Submits rejected with kQuotaExceeded.
  uint64_t shed = 0;            ///< Submits load-shed with kShedding.
  uint64_t drain_rejected = 0;  ///< Submits rejected with kDraining.
  /// Snapshot events discarded by subscription drop-oldest overflow
  /// (slow consumers), accumulated when their queries finalize.
  uint64_t snapshot_drops = 0;
  // Cross-query fragment store counters (zero while the store is
  // disabled); mirrored from FragmentStoreStats.
  uint64_t fragment_hits = 0;       ///< Cells seeded from the store.
  uint64_t fragment_misses = 0;     ///< Cell lookups that found nothing.
  uint64_t fragment_publishes = 0;  ///< Cells published by completed runs.
  uint64_t fragment_evictions = 0;  ///< Cells evicted by the hot budget.
  uint64_t fragment_bytes = 0;      ///< Hot-resident fragment bytes (gauge).
  // Fragment-store tiering counters (zero unless
  // ServiceOptions::fragment_store_path enables the persistent cold
  // tier); mirrored from FragmentStoreStats.
  uint64_t fragment_cold_hits = 0;  ///< Cells served by decoding a cold
                                    ///< log record (subset of
                                    ///< fragment_hits).
  uint64_t fragment_promotions = 0;  ///< Cold hits installed back into
                                     ///< the hot tier.
  uint64_t fragment_demotions = 0;  ///< Hot evictions that stayed servable
                                    ///< from the cold tier.
  uint64_t fragment_compactions = 0;  ///< Cold-log rewrites reclaiming
                                      ///< dead bytes.

  /// The counters accumulated since `baseline` (an earlier stats()
  /// snapshot of the same service): every monotonic counter is
  /// subtracted, the fragment_bytes gauge keeps its current value.
  /// Lives next to the field list so adding a counter and keeping
  /// delta-reporting tools (e.g. perfbench's per-pass serving stats)
  /// honest is one edit, not two.
  ServiceStats Since(const ServiceStats& baseline) const {
    ServiceStats d = *this;
    d.submitted -= baseline.submitted;
    d.completed -= baseline.completed;
    d.cancelled -= baseline.cancelled;
    d.expired -= baseline.expired;
    d.cache_hits -= baseline.cache_hits;
    d.coalesced -= baseline.coalesced;
    d.steps_executed -= baseline.steps_executed;
    d.work_steals -= baseline.work_steals;
    d.catalog_refreshes -= baseline.catalog_refreshes;
    d.quota_rejected -= baseline.quota_rejected;
    d.shed -= baseline.shed;
    d.drain_rejected -= baseline.drain_rejected;
    d.snapshot_drops -= baseline.snapshot_drops;
    d.fragment_hits -= baseline.fragment_hits;
    d.fragment_misses -= baseline.fragment_misses;
    d.fragment_publishes -= baseline.fragment_publishes;
    d.fragment_evictions -= baseline.fragment_evictions;
    d.fragment_cold_hits -= baseline.fragment_cold_hits;
    d.fragment_promotions -= baseline.fragment_promotions;
    d.fragment_demotions -= baseline.fragment_demotions;
    d.fragment_compactions -= baseline.fragment_compactions;
    return d;
  }
};

}  // namespace moqo

#endif  // MOQO_SERVICE_SERVICE_API_H_
