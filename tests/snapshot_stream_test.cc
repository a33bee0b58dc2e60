// SnapshotSubscription unit tests plus the slow-subscriber regression:
// a subscriber that never polls must not stall its scheduler shard (the
// bug the pull-based stream replaced the synchronous observer for).
// The service-level tests run real shard threads — TSan CI runs this
// binary to pin the producer/consumer synchronization.
#include "service/snapshot_stream.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <memory>
#include <vector>

#include "catalog/tpch.h"
#include "gtest/gtest.h"
#include "query/tpch_queries.h"
#include "service/optimizer_service.h"
#include "test_helpers.h"

namespace moqo {
namespace {

std::shared_ptr<const FrontierSnapshot> Snap(int iteration) {
  auto s = std::make_shared<FrontierSnapshot>();
  s->iteration = iteration;
  return s;
}

TEST(SnapshotStreamTest, DeliversInOrderWithSequences) {
  SnapshotSubscription sub(8);
  sub.Push(Snap(1), false);
  sub.Push(Snap(2), false);
  sub.Push(Snap(3), true);
  for (int i = 1; i <= 3; ++i) {
    auto event = sub.Poll();
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->sequence, static_cast<uint64_t>(i));
    EXPECT_EQ(event->dropped, 0u);
    EXPECT_EQ(event->is_final, i == 3);
    EXPECT_EQ(event->snapshot->iteration, i);
  }
  EXPECT_FALSE(sub.Poll().has_value());
  EXPECT_TRUE(sub.exhausted());
  EXPECT_EQ(sub.dropped_total(), 0u);
}

TEST(SnapshotStreamTest, DropOldestRecordsGapOnSurvivor) {
  SnapshotSubscription sub(2);
  sub.Push(Snap(1), false);
  sub.Push(Snap(2), false);
  sub.Push(Snap(3), false);  // Drops 1; gap lands on 2.
  sub.Push(Snap(4), false);  // Drops 2 (carrying 1's gap); lands on 3.
  auto event = sub.Poll();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->sequence, 3u);
  EXPECT_EQ(event->dropped, 2u);  // Events 1 and 2 both vanished.
  event = sub.Poll();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->sequence, 4u);
  EXPECT_EQ(event->dropped, 0u);
  EXPECT_EQ(sub.dropped_total(), 2u);
}

// The sequence/dropped identity lets a consumer account for every event
// produced: previous sequence + dropped + 1 == this sequence.
TEST(SnapshotStreamTest, GapAccountingIdentityHolds) {
  SnapshotSubscription sub(3);
  uint64_t last_seq = 0;
  uint64_t delivered = 0;
  uint64_t gaps = 0;
  auto consume = [&](const SnapshotEvent& event) {
    // previous sequence + gap + 1 == this sequence, always.
    EXPECT_EQ(last_seq + event.dropped + 1, event.sequence);
    gaps += event.dropped;
    last_seq = event.sequence;
    ++delivered;
  };
  for (int i = 1; i <= 20; ++i) {
    sub.Push(Snap(i), false);
    if (i % 4 == 0) {  // A consumer 4x slower than the producer.
      if (auto event = sub.Poll()) consume(*event);
    }
  }
  sub.Push(Snap(21), true);
  while (auto event = sub.Poll()) consume(*event);
  EXPECT_EQ(last_seq, 21u);                 // The final event arrived...
  EXPECT_EQ(delivered + gaps, 21u);         // ...and the ledger balances.
  EXPECT_TRUE(sub.exhausted());
  EXPECT_GT(sub.dropped_total(), 0u);
  EXPECT_EQ(sub.dropped_total(), gaps);
}

TEST(SnapshotStreamTest, FinalEventSurvivesOverflow) {
  SnapshotSubscription sub(1);
  sub.Push(Snap(1), false);
  sub.Push(Snap(2), true);  // Evicts 1 but is itself never dropped.
  auto event = sub.Poll();
  ASSERT_TRUE(event.has_value());
  EXPECT_TRUE(event->is_final);
  EXPECT_EQ(event->sequence, 2u);
  EXPECT_EQ(event->dropped, 1u);
  EXPECT_TRUE(sub.exhausted());
}

TEST(SnapshotStreamTest, PushAfterFinalIsIgnored) {
  SnapshotSubscription sub(4);
  sub.Push(Snap(1), true);
  sub.Push(Snap(2), false);  // A turn already in flight; must be a no-op.
  sub.Push(Snap(3), true);
  auto event = sub.Poll();
  ASSERT_TRUE(event.has_value());
  EXPECT_TRUE(event->is_final);
  EXPECT_EQ(event->snapshot->iteration, 1);
  EXPECT_FALSE(sub.Poll().has_value());
}

TEST(SnapshotStreamTest, NextBlocksAndTimesOut) {
  SnapshotSubscription sub(4);
  EXPECT_FALSE(sub.Next(/*timeout_ms=*/10).has_value());
  sub.Push(Snap(1), true);
  auto event = sub.Next(/*timeout_ms=*/1000);
  ASSERT_TRUE(event.has_value());
  EXPECT_TRUE(event->is_final);
  // Exhausted stream: Next returns immediately instead of sleeping.
  EXPECT_FALSE(sub.Next(/*timeout_ms=*/60000).has_value());
}

TEST(SnapshotStreamTest, CapacityClampedToOne) {
  SnapshotSubscription sub(0);
  sub.Push(Snap(1), false);
  sub.Push(Snap(2), true);
  auto event = sub.Poll();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->sequence, 2u);
  EXPECT_EQ(event->dropped, 1u);
}

TEST(SnapshotStreamTest, WakeupFdPokedOnPush) {
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ASSERT_GE(efd, 0);
  SnapshotSubscription sub(4);
  sub.SetWakeupFd(efd);
  sub.Push(Snap(1), false);
  sub.Push(Snap(2), true);
  uint64_t count = 0;
  ASSERT_EQ(::read(efd, &count, sizeof(count)),
            static_cast<ssize_t>(sizeof(count)));
  EXPECT_EQ(count, 2u);  // One poke per push.
  ::close(efd);
}

TEST(SnapshotStreamTest, DetachStopsPokes) {
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ASSERT_GE(efd, 0);
  SnapshotSubscription sub(4);
  sub.SetWakeupFd(efd);
  sub.SetWakeupFd(-1);  // Detach closes the subscription's owned dup.
  sub.Push(Snap(1), false);
  uint64_t count = 0;
  EXPECT_EQ(::read(efd, &count, sizeof(count)), -1);
  EXPECT_EQ(errno, EAGAIN);  // No poke landed after the detach.
  ::close(efd);
}

TEST(SnapshotStreamTest, PokeNeverHitsARecycledDescriptor) {
  // The network-server hazard: the caller closes its wakeup fd and the
  // kernel recycles the number into an unrelated file before a deferred
  // finalization pushes. The subscription pokes its own dup, so the
  // recycled descriptor must stay untouched.
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ASSERT_GE(efd, 0);
  SnapshotSubscription sub(4);
  sub.SetWakeupFd(efd);
  ::close(efd);  // Caller drops its descriptor; the dup keeps the object.
  int pipe_fds[2];
  ASSERT_EQ(::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC), 0);
  // POSIX hands out the lowest free descriptor, so one pipe end
  // recycles efd's number — the stand-in for a newly accepted socket.
  ASSERT_TRUE(pipe_fds[0] == efd || pipe_fds[1] == efd);
  sub.Push(Snap(1), false);
  char buf[8];
  EXPECT_EQ(::read(pipe_fds[0], buf, sizeof(buf)), -1);
  EXPECT_EQ(errno, EAGAIN);  // The pipe saw no stray 8-byte write.
  ASSERT_TRUE(sub.Poll().has_value());  // The push itself still landed.
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

// --- Service integration: the subscription path end to end. ---

ServiceOptions TwoShardOptions() {
  ServiceOptions options;
  options.num_shards = 2;
  return options;
}

TEST(SnapshotStreamServiceTest, SubscriptionStreamsEveryStepWhenRoomy) {
  Catalog catalog = MakeTpchCatalog();
  OptimizerService service(catalog, TwoShardOptions());
  SubmitRequest request;
  request.query = TpchQueryBlocks(catalog).front();
  request.max_iterations = 5;
  request.subscribe = true;
  request.subscription_capacity = 64;  // Roomy: nothing drops.
  StatusOr<SubmitResponse> response = service.Submit(std::move(request));
  ASSERT_TRUE(response.ok());
  ASSERT_NE(response.value().subscription, nullptr);
  const QueryResult result = service.Wait(response.value().id);
  EXPECT_EQ(result.state, QueryState::kDone);
  auto sub = response.value().subscription;
  int events = 0;
  uint64_t last_seq = 0;
  bool saw_final = false;
  while (auto event = sub->Poll()) {
    EXPECT_EQ(event->dropped, 0u);
    EXPECT_EQ(event->sequence, last_seq + 1);
    last_seq = event->sequence;
    saw_final = event->is_final;
    ++events;
  }
  // 5 step snapshots plus the terminal event.
  EXPECT_EQ(events, 6);
  EXPECT_TRUE(saw_final);
  EXPECT_EQ(sub->dropped_total(), 0u);
  EXPECT_EQ(service.stats().snapshot_drops, 0u);
}

// The regression test for the backpressure bug: a subscriber that never
// polls while its run is live must neither stall its own run nor any
// other run on the service. With the old synchronous observer path a
// blocking consumer held its scheduler shard's turn forever; here both
// runs complete while the subscriber sleeps, and the stalled stream
// ends with a gap-marked final event.
TEST(SnapshotStreamServiceTest, SlowSubscriberStallsNothing) {
  Catalog catalog = MakeTpchCatalog();
  ServiceOptions options;
  options.num_shards = 1;  // One shard: a stall would block *everything*.
  OptimizerService service(catalog, options);
  std::vector<Query> queries = TpchQueryBlocks(catalog);
  ASSERT_GE(queries.size(), 2u);

  SubmitRequest stalled;
  stalled.query = queries[0];
  stalled.max_iterations = 12;
  stalled.subscribe = true;
  stalled.subscription_capacity = 1;  // Overflows from the second step on.
  StatusOr<SubmitResponse> a = service.Submit(std::move(stalled));
  ASSERT_TRUE(a.ok());

  SubmitRequest healthy;
  healthy.query = queries[1];
  healthy.max_iterations = 4;
  StatusOr<SubmitResponse> b = service.Submit(std::move(healthy));
  ASSERT_TRUE(b.ok());

  // Neither Wait would ever return if the unpolled subscription stalled
  // the single shard.
  EXPECT_EQ(service.Wait(b.value().id).state, QueryState::kDone);
  EXPECT_EQ(service.Wait(a.value().id).state, QueryState::kDone);

  // Only now does the consumer drain: the stream must end with a final
  // event whose gap accounting covers everything the overflow dropped.
  auto sub = a.value().subscription;
  uint64_t gaps = 0;
  uint64_t last_seq = 0;
  bool saw_final = false;
  while (auto event = sub->Poll()) {
    gaps += event->dropped;
    last_seq = event->sequence;
    saw_final = event->is_final;
  }
  EXPECT_TRUE(saw_final);
  EXPECT_EQ(last_seq, 13u);           // 12 steps + 1 final were produced.
  EXPECT_GT(gaps, 0u);                // The overflow really happened...
  EXPECT_EQ(gaps, sub->dropped_total());  // ...and is fully accounted.
  EXPECT_EQ(service.stats().snapshot_drops, sub->dropped_total());
}

TEST(SnapshotStreamServiceTest, CacheHitStreamIsOneFinalEvent) {
  Catalog catalog = MakeTpchCatalog();
  OptimizerService service(catalog, TwoShardOptions());
  Query query = TpchQueryBlocks(catalog).front();

  SubmitRequest first;
  first.query = query;
  first.max_iterations = 3;
  StatusOr<SubmitResponse> warm = service.Submit(std::move(first));
  ASSERT_TRUE(warm.ok());
  const QueryResult warm_result = service.Wait(warm.value().id);

  SubmitRequest second;
  second.query = query;
  second.max_iterations = 3;
  second.subscribe = true;
  StatusOr<SubmitResponse> hit = service.Submit(std::move(second));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().from_cache);
  auto sub = hit.value().subscription;
  ASSERT_NE(sub, nullptr);
  auto event = sub->Poll();
  ASSERT_TRUE(event.has_value());
  EXPECT_TRUE(event->is_final);
  EXPECT_EQ(event->dropped, 0u);
  EXPECT_EQ(FrontierSignature(event->snapshot->plans),
            FrontierSignature(warm_result.frontier.plans));
  EXPECT_FALSE(sub->Poll().has_value());
}

// Coalesced riders each get their own stream of the shared run.
TEST(SnapshotStreamServiceTest, FollowersGetTheirOwnStreams) {
  Catalog catalog = MakeTpchCatalog();
  ServiceOptions options = TwoShardOptions();
  options.frontier_cache_capacity = 0;  // Force coalescing, not caching.
  OptimizerService service(catalog, options);
  Query query = TpchQueryBlocks(catalog).front();

  SubmitRequest leader;
  leader.query = query;
  leader.max_iterations = 8;
  leader.subscribe = true;
  leader.subscription_capacity = 64;
  StatusOr<SubmitResponse> a = service.Submit(std::move(leader));
  ASSERT_TRUE(a.ok());
  SubmitRequest follower;
  follower.query = query;
  follower.max_iterations = 8;
  follower.subscribe = true;
  follower.subscription_capacity = 64;
  StatusOr<SubmitResponse> b = service.Submit(std::move(follower));
  ASSERT_TRUE(b.ok());

  const QueryResult ra = service.Wait(a.value().id);
  const QueryResult rb = service.Wait(b.value().id);
  EXPECT_EQ(ra.state, QueryState::kDone);
  EXPECT_EQ(rb.state, QueryState::kDone);

  auto drain_last = [](SnapshotSubscription* sub) {
    std::shared_ptr<const FrontierSnapshot> last;
    while (auto event = sub->Poll()) last = event->snapshot;
    return last;
  };
  auto last_a = drain_last(a.value().subscription.get());
  auto last_b = drain_last(b.value().subscription.get());
  ASSERT_NE(last_a, nullptr);
  ASSERT_NE(last_b, nullptr);
  // Both streams end on the shared run's final frontier.
  EXPECT_EQ(FrontierSignature(last_a->plans), FrontierSignature(last_b->plans));
  EXPECT_EQ(FrontierSignature(last_a->plans),
            FrontierSignature(ra.frontier.plans));
}

}  // namespace
}  // namespace moqo
