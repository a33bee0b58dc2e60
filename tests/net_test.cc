// Wire protocol and optimizerd server tests: codec round trips and
// malformed-input rejection (every decoder is Status-returning — network
// bytes must never reach a MOQO_CHECK), remote-vs-in-process frontier
// bit-identity, the admission taxonomy over the wire (quota / shed /
// drain / not-found), connection-scoped ids, and the stalled-client
// isolation guarantee. TSan CI runs this binary: server, client, and
// scheduler threads all interleave here.
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tpch.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "query/tpch_queries.h"
#include "service/optimizer_service.h"
#include "test_helpers.h"

namespace moqo {
namespace {

using net::Frame;
using net::MsgType;
using net::OptimizerClient;
using net::OptimizerServer;
using net::ServerOptions;
using net::SnapshotMsg;

Query SmallQuery(const Catalog& catalog) {
  return TpchQueryBlocks(catalog).front();
}

// --- Codec round trips. ---

TEST(WireCodecTest, SubmitRoundTripsExactly) {
  SubmitRequest in;
  QueryBuilder b("roundtrip");
  b.AddTable(3, 0.25, "o");
  b.AddTable(7, 1.0, "l");
  b.AddTable(3, 0.1);  // Self-join reference.
  b.AddJoin(0, 1, 1e-6);
  b.AddJoin(1, 2, 0.015625);
  in.query = b.Build();
  in.tenant = "gold";
  in.priority = 7;
  in.deadline_ms = 1234.5;
  in.max_iterations = 42;
  in.subscribe = true;
  in.subscription_capacity = 3;

  Frame frame;
  frame.type = static_cast<uint8_t>(MsgType::kSubmit);
  frame.payload = net::EncodeSubmit(0xDEADBEEFCAFEBABEull, in);
  uint64_t tag = 0;
  SubmitRequest out;
  bool stream = false;
  ASSERT_TRUE(net::DecodeSubmit(frame, &tag, &out, &stream).ok());
  EXPECT_EQ(tag, 0xDEADBEEFCAFEBABEull);
  EXPECT_TRUE(stream);
  EXPECT_EQ(out.tenant, "gold");
  EXPECT_EQ(out.priority, 7);
  EXPECT_EQ(out.deadline_ms, 1234.5);
  EXPECT_EQ(out.max_iterations, 42);
  EXPECT_EQ(out.subscription_capacity, 3u);
  EXPECT_TRUE(out.subscribe);  // Forced: the server always subscribes.
  ASSERT_EQ(out.query.tables.size(), in.query.tables.size());
  for (size_t i = 0; i < in.query.tables.size(); ++i) {
    EXPECT_EQ(out.query.tables[i].table, in.query.tables[i].table);
    // Bit-exact double round trip, not approximate.
    EXPECT_EQ(out.query.tables[i].predicate_selectivity,
              in.query.tables[i].predicate_selectivity);
    EXPECT_EQ(out.query.tables[i].alias, in.query.tables[i].alias);
  }
  ASSERT_EQ(out.query.joins.size(), in.query.joins.size());
  for (size_t i = 0; i < in.query.joins.size(); ++i) {
    EXPECT_EQ(out.query.joins[i].left, in.query.joins[i].left);
    EXPECT_EQ(out.query.joins[i].right, in.query.joins[i].right);
    EXPECT_EQ(out.query.joins[i].selectivity, in.query.joins[i].selectivity);
  }
}

TEST(WireCodecTest, DecodeSubmitClampsHostileSubscriptionCapacity) {
  // A stalled client requesting a u32-max capacity would pin one deep
  // FrontierSnapshot per step in server memory; the decoder clamps the
  // knob to the server-side ceiling instead of trusting the wire.
  SubmitRequest in;
  QueryBuilder b("hostile");
  b.AddTable(0, 1.0);
  in.query = b.Build();
  in.subscribe = true;
  in.subscription_capacity = 0xFFFFFFFFu;

  Frame frame;
  frame.type = static_cast<uint8_t>(MsgType::kSubmit);
  frame.payload = net::EncodeSubmit(1, in);
  uint64_t tag = 0;
  SubmitRequest out;
  bool stream = false;
  ASSERT_TRUE(net::DecodeSubmit(frame, &tag, &out, &stream).ok());
  EXPECT_EQ(out.subscription_capacity, net::kMaxWireSubscriptionCapacity);

  // In-range capacities pass through untouched (the round-trip test
  // pins small values; this pins the boundary).
  in.subscription_capacity = net::kMaxWireSubscriptionCapacity;
  frame.payload = net::EncodeSubmit(2, in);
  ASSERT_TRUE(net::DecodeSubmit(frame, &tag, &out, &stream).ok());
  EXPECT_EQ(out.subscription_capacity, net::kMaxWireSubscriptionCapacity);
}

TEST(WireCodecTest, ResultRoundTripsBitExactly) {
  QueryResult in;
  in.id = 99;
  in.state = QueryState::kExpired;
  in.iterations = 17;
  in.from_cache = true;
  in.coalesced = true;
  in.plans_generated = 123456789012345ull;
  in.pairs_generated = 42;
  in.catalog_version = 7;
  in.frontier.iteration = 17;
  in.frontier.resolution = 3;
  in.frontier.alpha = 1.0594630943592953;  // An irrational-ish double.
  in.frontier.bounds = CostVector{1e300, 0.1, 3.0000000000000004};
  for (uint32_t i = 0; i < 5; ++i) {
    CellIndex::Entry e;
    e.id = i;
    e.last_visible = i * 7;
    e.cost = CostVector{0.1 * static_cast<double>(i) + 1e-30, 5e-324};
    e.resolution = static_cast<uint8_t>(i);
    e.order = static_cast<uint8_t>(i % 3);
    e.delta = (i % 2) == 0;
    in.frontier.plans.push_back(e);
  }

  Frame frame;
  frame.type = static_cast<uint8_t>(MsgType::kResult);
  frame.payload = net::EncodeResult(in);
  QueryResult out;
  ASSERT_TRUE(net::DecodeResult(frame, &out).ok());
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.state, in.state);
  EXPECT_EQ(out.iterations, in.iterations);
  EXPECT_EQ(out.from_cache, in.from_cache);
  EXPECT_EQ(out.coalesced, in.coalesced);
  EXPECT_EQ(out.plans_generated, in.plans_generated);
  EXPECT_EQ(out.pairs_generated, in.pairs_generated);
  EXPECT_EQ(out.catalog_version, in.catalog_version);
  EXPECT_EQ(out.frontier.iteration, in.frontier.iteration);
  EXPECT_EQ(out.frontier.alpha, in.frontier.alpha);  // Bit-exact.
  ASSERT_EQ(out.frontier.plans.size(), in.frontier.plans.size());
  EXPECT_EQ(FrontierSignature(out.frontier.plans),
            FrontierSignature(in.frontier.plans));
  for (size_t i = 0; i < in.frontier.plans.size(); ++i) {
    EXPECT_EQ(out.frontier.plans[i].cost[0], in.frontier.plans[i].cost[0]);
    EXPECT_EQ(out.frontier.plans[i].cost[1], in.frontier.plans[i].cost[1]);
    EXPECT_EQ(out.frontier.plans[i].last_visible,
              in.frontier.plans[i].last_visible);
    EXPECT_EQ(out.frontier.plans[i].delta, in.frontier.plans[i].delta);
  }
}

TEST(WireCodecTest, ErrorRoundTripsTheTaxonomy) {
  const Status in = Status::Shedding("over capacity", 75);
  Frame frame;
  frame.type = static_cast<uint8_t>(MsgType::kError);
  frame.payload = net::EncodeError(5, in);
  uint64_t tag = 0;
  Status out;
  ASSERT_TRUE(net::DecodeError(frame, &tag, &out).ok());
  EXPECT_EQ(tag, 5u);
  EXPECT_EQ(out.code(), StatusCode::kShedding);
  EXPECT_EQ(out.retry_after_ms(), 75u);
  EXPECT_EQ(out.message(), "over capacity");
}

TEST(WireCodecTest, SubmitOkRoundTripsFragmentHits) {
  SubmitResponse in;
  in.id = 42;
  in.catalog_version = 7;
  in.from_cache = true;
  in.tenant_fragment_hits = 0x1122334455667788ull;
  Frame frame;
  frame.type = static_cast<uint8_t>(MsgType::kSubmitOk);
  frame.payload = net::EncodeSubmitOk(9, in);
  uint64_t tag = 0;
  SubmitResponse out;
  ASSERT_TRUE(net::DecodeSubmitOk(frame, &tag, &out).ok());
  EXPECT_EQ(tag, 9u);
  EXPECT_EQ(out.id, 42u);
  EXPECT_EQ(out.catalog_version, 7u);
  EXPECT_TRUE(out.from_cache);
  EXPECT_FALSE(out.coalesced);
  EXPECT_EQ(out.tenant_fragment_hits, 0x1122334455667788ull);
}

// The tenant_fragment_hits trailer is optional: a SUBMIT_OK frame from
// a server predating the field (payload ends after the flags byte)
// still decodes, with the counter defaulting to 0 — and a frame with a
// partial trailer is a decode error, not a silent truncation.
TEST(WireCodecTest, SubmitOkWithoutFragmentHitsTrailerDecodes) {
  SubmitResponse in;
  in.id = 3;
  in.catalog_version = 1;
  in.tenant_fragment_hits = 55;
  const std::string full = net::EncodeSubmitOk(4, in);
  constexpr size_t kTrailerBytes = 8;
  ASSERT_GT(full.size(), kTrailerBytes);

  Frame frame;
  frame.type = static_cast<uint8_t>(MsgType::kSubmitOk);
  frame.payload = full.substr(0, full.size() - kTrailerBytes);
  uint64_t tag = 0;
  SubmitResponse out;
  out.tenant_fragment_hits = 99;  // Must be reset by the decoder.
  ASSERT_TRUE(net::DecodeSubmitOk(frame, &tag, &out).ok());
  EXPECT_EQ(tag, 4u);
  EXPECT_EQ(out.id, 3u);
  EXPECT_EQ(out.tenant_fragment_hits, 0u);

  for (size_t cut = 1; cut < kTrailerBytes; ++cut) {
    frame.payload = full.substr(0, full.size() - kTrailerBytes + cut);
    EXPECT_FALSE(net::DecodeSubmitOk(frame, &tag, &out).ok())
        << "partial " << cut << "-byte trailer decoded successfully";
  }
}

// Every truncation of a valid payload must decode to an error — never
// crash, never read out of bounds (ASan/TSan CI would flag it).
TEST(WireCodecTest, TruncationsAreErrorsNotCrashes) {
  SubmitRequest request;
  QueryBuilder b("trunc");
  b.AddTable(1, 0.5, "x");
  b.AddTable(2, 0.5, "y");
  b.AddJoin(0, 1, 0.01);
  request.query = b.Build();
  request.tenant = "t";
  const std::string full = net::EncodeSubmit(1, request);
  for (size_t len = 0; len < full.size(); ++len) {
    Frame frame;
    frame.type = static_cast<uint8_t>(MsgType::kSubmit);
    frame.payload = full.substr(0, len);
    uint64_t tag = 0;
    SubmitRequest out;
    bool stream = false;
    EXPECT_FALSE(net::DecodeSubmit(frame, &tag, &out, &stream).ok())
        << "prefix of length " << len << " decoded successfully";
  }

  QueryResult result;
  result.frontier.bounds = CostVector{1.0, 2.0};
  CellIndex::Entry e;
  e.cost = CostVector{3.0, 4.0};
  result.frontier.plans.push_back(e);
  const std::string full_result = net::EncodeResult(result);
  for (size_t len = 0; len < full_result.size(); ++len) {
    Frame frame;
    frame.type = static_cast<uint8_t>(MsgType::kResult);
    frame.payload = full_result.substr(0, len);
    QueryResult out;
    EXPECT_FALSE(net::DecodeResult(frame, &out).ok());
  }
}

TEST(WireCodecTest, TrailingGarbageRejected) {
  Frame frame;
  frame.type = static_cast<uint8_t>(MsgType::kCancel);
  frame.payload = net::EncodeCancel(1, 2) + "x";
  uint64_t tag = 0;
  QueryId id = 0;
  EXPECT_FALSE(net::DecodeCancel(frame, &tag, &id).ok());
}

TEST(WireCodecTest, HostileFieldValuesRejected) {
  {
    // Cost vector claiming more dims than kMaxMetrics.
    net::Writer w;
    w.PutU64(1);  // id
    w.PutU8(1);   // state
    w.PutU32(1);  // iterations
    w.PutU8(0);   // flags
    w.PutU64(0);  // plans
    w.PutU64(0);  // pairs
    w.PutU64(0);  // catalog_version
    w.PutU32(1);  // frontier.iteration
    w.PutU32(0);  // frontier.resolution
    w.PutF64(1.0);
    w.PutU8(200);  // bounds dims: hostile.
    Frame frame;
    frame.type = static_cast<uint8_t>(MsgType::kResult);
    frame.payload = w.bytes();
    QueryResult out;
    EXPECT_FALSE(net::DecodeResult(frame, &out).ok());
  }
  {
    // A string length far beyond the actual payload.
    net::Writer w;
    w.PutU64(1);            // tag
    w.PutU8(7);             // code
    w.PutU64(0);            // retry_after_ms
    w.PutU32(0xFFFFFFFFu);  // message length: hostile.
    Frame frame;
    frame.type = static_cast<uint8_t>(MsgType::kError);
    frame.payload = w.bytes();
    uint64_t tag = 0;
    Status status;
    EXPECT_FALSE(net::DecodeError(frame, &tag, &status).ok());
  }
  {
    // Unknown QueryState on a RESULT frame.
    QueryResult in;
    std::string payload = net::EncodeResult(in);
    payload[8] = 9;  // state byte (after the u64 id).
    Frame frame;
    frame.type = static_cast<uint8_t>(MsgType::kResult);
    frame.payload = payload;
    QueryResult out;
    EXPECT_FALSE(net::DecodeResult(frame, &out).ok());
  }
}

// --- Server integration. ---

// The server tests' default service: two shards, so a run on one shard
// and a request on the other proceed side by side. A test that passes its
// own options gets exactly the shard count it set.
ServiceOptions TwoShardOptions() {
  ServiceOptions options;
  options.num_shards = 2;
  return options;
}

struct TestServer {
  explicit TestServer(ServiceOptions service_options = TwoShardOptions(),
                      ServerOptions server_options = {}) {
    catalog = MakeTpchCatalog();
    service =
        std::make_unique<OptimizerService>(catalog, service_options);
    server = std::make_unique<OptimizerServer>(service.get(),
                                               std::move(server_options));
    const Status st = server->Start();
    MOQO_CHECK_MSG(st.ok(), "test server failed to start");
  }
  Catalog catalog;
  std::unique_ptr<OptimizerService> service;
  std::unique_ptr<OptimizerServer> server;
};

TEST(NetServerTest, RemoteResultsBitIdenticalToInProcess) {
  TestServer remote;
  // An identical but independent service: same catalog, same options,
  // no shared state — the in-process reference.
  Catalog catalog = MakeTpchCatalog();
  ServiceOptions local_options;
  local_options.num_shards = 2;
  OptimizerService local(catalog, local_options);

  OptimizerClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", remote.server->port()).ok());
  for (const Query& query : TpchQueryBlocks(remote.catalog)) {
    SubmitRequest request;
    request.query = query;
    request.max_iterations = 5;
    request.subscribe = true;
    StatusOr<SubmitResponse> submitted = client.Submit(request);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    StatusOr<QueryResult> remote_result = client.Wait(submitted.value().id);
    ASSERT_TRUE(remote_result.ok());
    EXPECT_EQ(remote_result.value().state, QueryState::kDone);

    StatusOr<QueryId> local_id = SubmitQuery(local, query, [] {
      SubmitRequest options;
      options.max_iterations = 5;
      return options;
    }());
    ASSERT_TRUE(local_id.ok());
    const QueryResult local_result = local.Wait(local_id.value());
    EXPECT_EQ(remote_result.value().iterations, local_result.iterations);
    EXPECT_EQ(FrontierSignature(remote_result.value().frontier.plans),
              FrontierSignature(local_result.frontier.plans))
        << "remote and in-process frontiers diverged for " << query.name;

    // The streamed snapshots arrive gap-marked and in order.
    uint64_t last_seq = 0;
    for (const SnapshotMsg& msg : client.TakeSnapshots(submitted.value().id)) {
      EXPECT_EQ(last_seq + msg.dropped + 1, msg.sequence);
      last_seq = msg.sequence;
    }
    EXPECT_GT(last_seq, 0u);
  }
}

// SUBMIT_OK carries the submitting tenant's cumulative fragment warm
// hits: a cold tenant reads 0, and once one of its runs has re-derived
// cells from the fragment store, later admissions report the credit.
TEST(NetServerTest, FragmentWarmHitsReportedOverWire) {
  ServiceOptions service_options = TwoShardOptions();
  // Isolate the fragment path: no whole-query cache, so every repeat
  // submission actually runs (and seeds). Each submission waits for the
  // previous one, so none coalesces.
  service_options.frontier_cache_capacity = 0;
  service_options.fragment_cache_bytes = 16 << 20;
  TestServer remote(service_options);
  OptimizerClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", remote.server->port()).ok());

  SubmitRequest request;
  request.query = TpchQueryBlocks(remote.catalog).front();
  request.tenant = "acme";

  // Cold run: publishes fragments, seeds nothing, reports 0 hits.
  StatusOr<SubmitResponse> first = client.Submit(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().tenant_fragment_hits, 0u);
  ASSERT_TRUE(client.Wait(first.value().id).ok());
  // Publishing happens on the shard thread after the result is
  // recorded, so Wait() returning does not mean the store is warm yet —
  // wait for the publish to land before submitting the warm run.
  for (int spin = 0;
       remote.service->stats().fragment_publishes == 0 && spin < 500;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(remote.service->stats().fragment_publishes, 0u);

  // Warm run: seeds the published cells (credited at its first turn).
  StatusOr<SubmitResponse> second = client.Submit(request);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(client.Wait(second.value().id).ok());
  ASSERT_GT(remote.service->stats().fragment_hits, 0u);

  // The credit is visible by the next admission of the same tenant —
  // and only for that tenant.
  StatusOr<SubmitResponse> third = client.Submit(request);
  ASSERT_TRUE(third.ok());
  EXPECT_GT(third.value().tenant_fragment_hits, 0u);
  ASSERT_TRUE(client.Wait(third.value().id).ok());

  SubmitRequest other = request;
  other.tenant = "globex";
  StatusOr<SubmitResponse> cold_tenant = client.Submit(other);
  ASSERT_TRUE(cold_tenant.ok());
  EXPECT_EQ(cold_tenant.value().tenant_fragment_hits, 0u);
  ASSERT_TRUE(client.Wait(cold_tenant.value().id).ok());
}

// The loadgen-shaped integration test: N concurrent TCP sessions, all
// results bit-identical to an in-process run of the same queries.
TEST(NetServerTest, ConcurrentSessionsMatchInProcess) {
  TestServer remote;
  const std::vector<Query> queries = TpchQueryBlocks(remote.catalog);
  constexpr int kSessions = 8;
  std::vector<std::vector<std::vector<std::vector<double>>>> remote_sigs(
      kSessions);
  std::atomic<int> failures{0};
  std::vector<std::thread> sessions;
  sessions.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      OptimizerClient client;
      if (!client.Connect("127.0.0.1", remote.server->port()).ok()) {
        ++failures;
        return;
      }
      for (const Query& query : queries) {
        SubmitRequest request;
        request.query = query;
        request.max_iterations = 4;
        StatusOr<SubmitResponse> submitted = client.Submit(request);
        if (!submitted.ok()) {
          ++failures;
          return;
        }
        StatusOr<QueryResult> result = client.Wait(submitted.value().id);
        if (!result.ok() || result.value().state != QueryState::kDone) {
          ++failures;
          return;
        }
        remote_sigs[static_cast<size_t>(s)].push_back(
            FrontierSignature(result.value().frontier.plans));
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  ASSERT_EQ(failures.load(), 0);

  Catalog catalog = MakeTpchCatalog();
  ServiceOptions local_options;
  local_options.num_shards = 2;
  OptimizerService local(catalog, local_options);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SubmitRequest options;
    options.max_iterations = 4;
    StatusOr<QueryId> id = SubmitQuery(local, queries[qi], options);
    ASSERT_TRUE(id.ok());
    const auto expected = FrontierSignature(local.Wait(id.value()).frontier.plans);
    for (int s = 0; s < kSessions; ++s) {
      EXPECT_EQ(remote_sigs[static_cast<size_t>(s)][qi], expected)
          << "session " << s << " query " << queries[qi].name;
    }
  }
}

TEST(NetServerTest, QuotaExceededOverTheWire) {
  ServiceOptions service_options;
  service_options.num_shards = 2;
  TenantQuota quota;
  quota.max_inflight = 1;
  service_options.tenant_quotas["limited"] = quota;
  TestServer remote(service_options);

  OptimizerClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", remote.server->port()).ok());
  SubmitRequest request;
  request.query = SmallQuery(remote.catalog);
  request.tenant = "limited";
  request.max_iterations = 1000000000;  // Runs until cancelled.
  StatusOr<SubmitResponse> first = client.Submit(request);
  ASSERT_TRUE(first.ok());

  SubmitRequest second;
  // A distinct query (different selectivity) so it cannot coalesce.
  QueryBuilder b("q2");
  b.AddTable(kOrders, 0.5);
  b.AddTable(kLineitem, 0.5);
  b.AddJoin(0, 1, 0.001);
  second.query = b.Build();
  second.tenant = "limited";
  StatusOr<SubmitResponse> rejected = client.Submit(second);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kQuotaExceeded);

  // Another tenant is not affected by "limited"'s quota.
  second.tenant = "other";
  second.max_iterations = 2;
  StatusOr<SubmitResponse> allowed = client.Submit(second);
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();
  ASSERT_TRUE(client.Wait(allowed.value().id).ok());

  StatusOr<bool> cancelled = client.Cancel(first.value().id);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_TRUE(cancelled.value());
  StatusOr<QueryResult> result = client.Wait(first.value().id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().state, QueryState::kCancelled);
  EXPECT_EQ(remote.service->stats().quota_rejected, 1u);
}

TEST(NetServerTest, SheddingCarriesRetryAfterHint) {
  ServiceOptions service_options;
  service_options.num_shards = 2;
  service_options.max_inflight_runs = 1;
  service_options.shed_retry_hint_ms = 40.0;
  TestServer remote(service_options);

  OptimizerClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", remote.server->port()).ok());
  SubmitRequest request;
  request.query = SmallQuery(remote.catalog);
  request.max_iterations = 1000000000;
  StatusOr<SubmitResponse> first = client.Submit(request);
  ASSERT_TRUE(first.ok());

  SubmitRequest second;
  QueryBuilder b("shed2");
  b.AddTable(kCustomer, 0.25);
  b.AddTable(kOrders, 0.5);
  b.AddJoin(0, 1, 0.0001);
  second.query = b.Build();
  StatusOr<SubmitResponse> rejected = client.Submit(second);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kShedding);
  EXPECT_GE(rejected.status().retry_after_ms(), 40u);

  // A duplicate of the running query coalesces instead of shedding —
  // riding an existing run creates no new capacity demand.
  StatusOr<SubmitResponse> duplicate = client.Submit(request);
  ASSERT_TRUE(duplicate.ok()) << duplicate.status().ToString();
  EXPECT_TRUE(duplicate.value().coalesced);

  // Cancelling the leader hands the run to the coalesced follower (the
  // run outlives its original submitter), so both ids must be cancelled
  // to actually stop it.
  ASSERT_TRUE(client.Cancel(first.value().id).ok());
  ASSERT_TRUE(client.Cancel(duplicate.value().id).ok());
  ASSERT_TRUE(client.Wait(first.value().id).ok());
  ASSERT_TRUE(client.Wait(duplicate.value().id).ok());
  EXPECT_EQ(remote.service->stats().shed, 1u);
}

TEST(NetServerTest, IterationLimitRejectsOverTheWire) {
  // Shedding bounds how many runs exist; max_iterations_limit bounds
  // how long each occupies its slot. Without it a hostile client could
  // park a near-infinite run in an in-flight slot and starve admission.
  ServiceOptions service_options = TwoShardOptions();
  service_options.max_iterations_limit = 50;
  TestServer remote(service_options);
  OptimizerClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", remote.server->port()).ok());

  SubmitRequest request;
  request.query = SmallQuery(remote.catalog);
  request.max_iterations = 1000000000;
  StatusOr<SubmitResponse> rejected = client.Submit(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  request.max_iterations = 4;
  StatusOr<SubmitResponse> admitted = client.Submit(request);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  StatusOr<QueryResult> result = client.Wait(admitted.value().id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().state, QueryState::kDone);
}

TEST(NetServerTest, DrainRejectsNewWorkFinishesOldWork) {
  TestServer remote;
  OptimizerClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", remote.server->port()).ok());
  SubmitRequest request;
  request.query = SmallQuery(remote.catalog);
  request.max_iterations = 1000000000;
  StatusOr<SubmitResponse> inflight = client.Submit(request);
  ASSERT_TRUE(inflight.ok());

  remote.server->BeginDrain();

  // New submissions on the existing connection: kDraining.
  SubmitRequest late;
  QueryBuilder b("late");
  b.AddTable(kPart, 0.5);
  b.AddTable(kPartsupp, 0.5);
  b.AddJoin(0, 1, 0.001);
  late.query = b.Build();
  StatusOr<SubmitResponse> rejected = client.Submit(late);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDraining);

  // New connections: refused at the handshake with the same code.
  OptimizerClient refused;
  const Status handshake =
      refused.Connect("127.0.0.1", remote.server->port());
  ASSERT_FALSE(handshake.ok());
  EXPECT_EQ(handshake.code(), StatusCode::kDraining);

  // The in-flight run still finishes and delivers over the connection.
  ASSERT_TRUE(client.Cancel(inflight.value().id).ok());
  StatusOr<QueryResult> result = client.Wait(inflight.value().id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().state, QueryState::kCancelled);
  EXPECT_GE(remote.service->stats().drain_rejected, 1u);
}

TEST(NetServerTest, RunIdsAreConnectionScoped) {
  TestServer remote;
  OptimizerClient owner;
  ASSERT_TRUE(owner.Connect("127.0.0.1", remote.server->port()).ok());
  SubmitRequest request;
  request.query = SmallQuery(remote.catalog);
  request.max_iterations = 1000000000;
  StatusOr<SubmitResponse> run = owner.Submit(request);
  ASSERT_TRUE(run.ok());

  // A second connection cannot cancel (or even probe) the first's run:
  // its client refuses locally, and the server's per-connection scope
  // rejects a forged CANCEL frame with kNotFound.
  OptimizerClient intruder;
  ASSERT_TRUE(intruder.Connect("127.0.0.1", remote.server->port()).ok());
  StatusOr<bool> local_refusal = intruder.Cancel(run.value().id);
  ASSERT_FALSE(local_refusal.ok());
  EXPECT_EQ(local_refusal.status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(owner.Cancel(run.value().id).ok());
  ASSERT_TRUE(owner.Wait(run.value().id).ok());
}

// A client that submits a streamed query and then never reads must not
// degrade other sessions: its subscription overflows (drop-oldest), its
// connection thread alone may block, and every other connection keeps
// completing. This is the end-to-end form of the backpressure guarantee.
TEST(NetServerTest, StalledClientDoesNotStarveOthers) {
  ServiceOptions service_options;
  service_options.num_shards = 1;  // One shard: any stall would show.
  ServerOptions server_options;
  // Tiny socket buffers so the stalled connection's thread blocks on the
  // full socket quickly, pushing the backpressure into the subscription.
  server_options.send_buffer_bytes = 4096;
  TestServer remote(service_options, server_options);

  // The stalled session, over a raw socket so nothing ever reads replies.
  int stalled_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled_fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(stalled_fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(remote.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(stalled_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);
  ASSERT_TRUE(net::WriteFrame(stalled_fd, MsgType::kHello,
                              net::EncodeHello(net::kWireVersion))
                  .ok());
  Frame hello_ok;
  ASSERT_TRUE(net::ReadFrame(stalled_fd, &hello_ok).ok());
  SubmitRequest stalled_request;
  stalled_request.query = SmallQuery(remote.catalog);
  stalled_request.max_iterations = 2000;
  stalled_request.subscribe = true;
  stalled_request.subscription_capacity = 1;
  ASSERT_TRUE(net::WriteFrame(stalled_fd, MsgType::kSubmit,
                              net::EncodeSubmit(1, stalled_request))
                  .ok());
  // From here on the stalled client reads nothing.

  // Healthy sessions proceed at full function while the stalled run
  // floods its unread stream.
  OptimizerClient healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", remote.server->port()).ok());
  for (int i = 0; i < 3; ++i) {
    QueryBuilder b("healthy" + std::to_string(i));
    b.AddTable(kSupplier, 0.5);
    b.AddTable(kNation, 0.9);
    b.AddTable(kRegion, 0.8);
    b.AddJoin(0, 1, 0.04);
    b.AddJoin(1, 2, 0.2);
    SubmitRequest request;
    request.query = b.Build();
    request.max_iterations = 4;
    request.subscribe = true;
    StatusOr<SubmitResponse> submitted = healthy.Submit(request);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    StatusOr<QueryResult> result = healthy.Wait(submitted.value().id);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().state, QueryState::kDone);
  }

  // The stalled run also completes (the service never waits for a
  // subscriber), with drops accounted once it finalizes.
  for (int spin = 0; spin < 2000; ++spin) {
    if (remote.service->stats().completed >= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const ServiceStats stats = remote.service->stats();
  EXPECT_GE(stats.completed, 4u);
  EXPECT_GT(stats.snapshot_drops, 0u);
  ::close(stalled_fd);
}

TEST(NetServerTest, MalformedFramesDropOnlyTheirConnection) {
  TestServer remote;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(remote.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // An over-limit length prefix: the server must refuse to buffer it.
  const unsigned char hostile[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(fd, hostile, sizeof(hostile), MSG_NOSIGNAL), 4);
  ::close(fd);

  // A well-behaved client is unaffected before and after.
  OptimizerClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", remote.server->port()).ok());
  SubmitRequest request;
  request.query = SmallQuery(remote.catalog);
  request.max_iterations = 2;
  StatusOr<SubmitResponse> submitted = client.Submit(request);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(client.Wait(submitted.value().id).ok());

  // Garbage *after* a valid handshake likewise kills only that session:
  // an unknown type byte, and each retired worker frame type (8-11 and
  // 22-25, from a removed distributed tier), gets an error frame and a
  // close, while the well-behaved client keeps being served.
  for (const int type : {0x77, 8, 9, 10, 11, 22, 23, 24, 25}) {
    SCOPED_TRACE(type);
    int fd2 = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd2, 0);
    ASSERT_EQ(
        ::connect(fd2, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    // Bounded reads: a server that silently ignored the frame would
    // otherwise hang the test instead of failing it.
    const timeval read_timeout{10, 0};
    ASSERT_EQ(::setsockopt(fd2, SOL_SOCKET, SO_RCVTIMEO, &read_timeout,
                           sizeof(read_timeout)),
              0);
    ASSERT_TRUE(net::WriteFrame(fd2, MsgType::kHello,
                                net::EncodeHello(net::kWireVersion))
                    .ok());
    Frame hello_ok;
    ASSERT_TRUE(net::ReadFrame(fd2, &hello_ok).ok());
    ASSERT_TRUE(
        net::WriteFrame(fd2, static_cast<MsgType>(type), "garbage").ok());
    // The server answers with an error frame, then closes the connection.
    Frame error_frame;
    ASSERT_TRUE(net::ReadFrame(fd2, &error_frame).ok());
    EXPECT_EQ(error_frame.type, static_cast<uint8_t>(MsgType::kError));
    Frame after_close;
    EXPECT_FALSE(net::ReadFrame(fd2, &after_close).ok());
    ::close(fd2);

    StatusOr<SubmitResponse> again = client.Submit(request);
    ASSERT_TRUE(again.ok());
    ASSERT_TRUE(client.Wait(again.value().id).ok());
  }
}

TEST(NetServerTest, ClientDisconnectCancelsItsRuns) {
  TestServer remote;
  {
    OptimizerClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", remote.server->port()).ok());
    SubmitRequest request;
    request.query = SmallQuery(remote.catalog);
    request.max_iterations = 1000000000;
    ASSERT_TRUE(client.Submit(request).ok());
  }  // Disconnects with the run still live.
  // The server reaps the orphaned run instead of leaking it forever.
  for (int spin = 0; spin < 2000; ++spin) {
    if (remote.service->stats().cancelled >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(remote.service->stats().cancelled, 1u);
}

}  // namespace
}  // namespace moqo
