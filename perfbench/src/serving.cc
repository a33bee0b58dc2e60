// serve_shared and serve_distinct: a closed loop of blocking
// OptimizerClient connections over loopback to an in-process
// OptimizerServer configured like optimizerd's defaults, except that it
// runs one worker thread per shard (see ServiceConfig).
//
// Untraced runs submit requests for the run's time and report latency
// and throughput. Traced runs replay a fixed request count three times on
// fresh stacks: an untraced TCP pass (the overhead baseline), a TCP pass
// with client-side spans and service/store counters, and an in-process
// pass through OptimizerService::Submit with an observer, so that the
// wire's share is TCP minus in-process.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "net/client.h"
#include "net/server.h"
#include "service/optimizer_service.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using moqo::QueryState;

// Two connections and two worker threads: together with the server's
// I/O thread they stay within a 4-core box. With optimizerd's 4 threads
// and 4 connections the run measured the host's scheduler (in 15-second
// serve_shared runs, a spread of 0.13-0.18 against 0.05-0.09 like this).
constexpr int kClients = 2;
// Minimum set-up repetitions per run (see kMinSetupSeconds).
constexpr size_t kSetupRepeats = 21;
// optimizerd's hot-tier default, used by serve_shared.
constexpr size_t kSharedHotBytes = 16u << 20;
// serve_distinct's hot tier: below what a run publishes (tens of KB per
// request, several MB per run), so eviction demotes to the cold log.
constexpr size_t kDistinctHotBytes = 1u << 20;
// Requests per traced pass; fixed so that counts repeat exactly.
constexpr size_t kTracedShared = 384;
constexpr size_t kTracedDistinct = 128;
// Upper bounds on an untraced run's request rate, sizing its input pool
// (about 4x the rates measured on a 4-core x86 box).
constexpr double kMaxSharedQps = 400.0;
constexpr double kMaxDistinctQps = 120.0;
// Requests checked bit-for-bit against a serial reference per run.
constexpr size_t kReferenceSamples = 3;

moqo::ServiceOptions ServiceConfig(bool distinct, const std::string& dir) {
  moqo::ServiceOptions options;  // optimizerd's defaults, except threads:
  options.num_threads = 2;  // One per shard (optimizerd: 4, two per shard).
  options.num_shards = 2;
  options.max_inflight_runs = 64;
  options.max_iterations_limit = 100000;
  options.fragment_cache_bytes = distinct ? kDistinctHotBytes : kSharedHotBytes;
  if (distinct) {
    // Cold tier in the run's directory; fsync stays kNone (the default).
    options.fragment_store_path = dir + "/fragments.log";
  }
  return options;
}

// One service + server + connected clients over one input set. Members
// are destroyed in reverse order: clients, server, service, inputs.
struct Stack {
  ServingInputs inputs;
  moqo::ServiceOptions options;
  std::string dir;
  std::unique_ptr<moqo::OptimizerService> service;
  std::unique_ptr<moqo::net::OptimizerServer> server;
  std::vector<std::unique_ptr<moqo::net::OptimizerClient>> clients;

  ~Stack() {
    clients.clear();
    if (server) server->Shutdown();
    server.reset();
    service.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

moqo::SubmitRequest MakeRequest(const moqo::Query& query) {
  moqo::SubmitRequest request;
  request.query = query;
  request.tenant = "bench";
  request.subscribe = true;
  return request;
}

// Builds a stack; `tcp` adds the server and connected clients. The
// serve_shared warm-up publishes the core's fragments before returning.
std::unique_ptr<Stack> BuildStack(const RunArgs& args, bool distinct,
                                  size_t count, bool tcp, int index,
                                  CheckLog* checks) {
  auto stack = std::make_unique<Stack>();
  stack->inputs = distinct ? MakeDistinctInputs(args.seed, count)
                           : MakeSharedInputs(args.seed, count);
  stack->dir = args.scratch_dir + "/" + args.workload + "-" +
               std::to_string(index);
  std::filesystem::remove_all(stack->dir);
  std::filesystem::create_directories(stack->dir);
  stack->options = ServiceConfig(distinct, stack->dir);
  stack->service = std::make_unique<moqo::OptimizerService>(
      stack->inputs.catalog, stack->options);
  if (tcp) {
    stack->server = std::make_unique<moqo::net::OptimizerServer>(
        stack->service.get(), moqo::net::ServerOptions{});
    const moqo::Status started = stack->server->Start();
    checks->Expect(started.ok(), "server starts: " + started.ToString());
    for (int c = 0; c < kClients && started.ok(); ++c) {
      auto client = std::make_unique<moqo::net::OptimizerClient>();
      const moqo::Status st =
          client->Connect("127.0.0.1", stack->server->port());
      checks->Expect(st.ok(), "client connects: " + st.ToString());
      stack->clients.push_back(std::move(client));
    }
  }
  if (stack->inputs.warmup.NumTables() > 0) {
    moqo::SubmitRequest request = MakeRequest(stack->inputs.warmup);
    request.subscribe = false;
    auto submitted = stack->service->Submit(std::move(request));
    checks->Expect(submitted.ok() &&
                       stack->service->Wait(submitted.value().id).state ==
                           QueryState::kDone,
                   "warm-up query completes");
    // Publication trails completion; the core must be in the store
    // before timing starts so that every run sees the same hits.
    const Clock::time_point start = Clock::now();
    while (stack->service->stats().fragment_publishes <
               stack->inputs.warmup_fragments &&
           SecondsSince(start) < 30.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    checks->Expect(stack->service->stats().fragment_publishes ==
                       stack->inputs.warmup_fragments,
                   "warm-up publishes the core's fragments");
  }
  return stack;
}

struct Record {
  bool repeat = false;  // Repeats an earlier request of the sequence.
  bool done = false;
  double ttff_ms = 0.0;
  double done_ms = 0.0;
  double submit_ms = 0.0;     // Submit call (admission round trip).
  double first_wait_ms = 0.0;  // Submit return -> first snapshot.
  std::vector<double> step_gaps_ms;  // In-process: between observer calls.
  uint64_t plans_generated = 0;
  moqo::FrontierSnapshot frontier;
};

struct PassResult {
  std::vector<Record> records;  // Indexed like the inputs' requests.
  size_t issued = 0;
  double wall_s = 0.0;
  moqo::ServiceStats stats;  // Delta over the pass.
};

// Closed loop over TCP: each client takes the next request index, submits
// it, waits for its first snapshot and its result, and repeats until
// `limit` requests were issued or `seconds` elapsed.
PassResult TcpPass(Stack* stack, size_t limit, double seconds) {
  PassResult pass;
  pass.records.resize(limit);
  std::atomic<size_t> next{0};
  const moqo::ServiceStats before = stack->service->stats();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (auto& client_ptr : stack->clients) {
    moqo::net::OptimizerClient* client = client_ptr.get();
    threads.emplace_back([&, client] {
      for (;;) {
        if (SecondsSince(start) >= seconds) return;
        const size_t i = next.fetch_add(1);
        if (i >= limit) return;
        Record& rec = pass.records[i];
        const Clock::time_point t0 = Clock::now();
        auto submitted = client->Submit(MakeRequest(stack->inputs.requests[i]));
        rec.submit_ms = MsSince(t0);
        rec.repeat = stack->inputs.repeat_of[i] >= 0;
        if (!submitted.ok()) {
          std::fprintf(stderr, "perfbench: submit %zu: %s\n", i,
                       submitted.status().ToString().c_str());
          if (!client->connected()) return;
          continue;
        }
        const moqo::QueryId id = submitted.value().id;
        const Clock::time_point t1 = Clock::now();
        auto first = client->WaitSnapshot(id);
        if (!first.ok()) return;
        rec.first_wait_ms = MsSince(t1);
        rec.ttff_ms = MsSince(t0);
        auto result = client->Wait(id);
        if (!result.ok()) return;
        rec.done_ms = MsSince(t0);
        client->TakeSnapshots(id);
        rec.done = result.value().state == QueryState::kDone;
        rec.plans_generated = result.value().plans_generated;
        rec.frontier = std::move(result.value().frontier);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  pass.wall_s = SecondsSince(start);
  pass.issued = std::min(next.load(), limit);
  pass.stats = stack->service->stats().Since(before);
  return pass;
}

// The same closed loop in-process: Submit with an observer, then Wait.
// Observer calls can trail Wait (final-frontier deliveries to coalesced
// followers), so each request's timeline is shared with its observer.
PassResult InProcessPass(Stack* stack, size_t limit) {
  struct Timeline {
    std::mutex mu;
    Clock::time_point submitted;
    Clock::time_point last;
    double ttff_ms = 0.0;
    std::vector<double> gaps_ms;
  };
  PassResult pass;
  pass.records.resize(limit);
  std::atomic<size_t> next{0};
  const moqo::ServiceStats before = stack->service->stats();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < limit;) {
        Record& rec = pass.records[i];
        auto timeline = std::make_shared<Timeline>();
        moqo::SubmitRequest request = MakeRequest(stack->inputs.requests[i]);
        request.subscribe = false;
        request.observer = [timeline](moqo::QueryId,
                                      const moqo::FrontierSnapshot&) {
          const Clock::time_point now = Clock::now();
          std::lock_guard<std::mutex> lock(timeline->mu);
          const double since_last =
              std::chrono::duration<double, std::milli>(now - timeline->last)
                  .count();
          if (timeline->ttff_ms == 0.0) {
            timeline->ttff_ms = std::chrono::duration<double, std::milli>(
                                    now - timeline->submitted)
                                    .count();
          } else {
            timeline->gaps_ms.push_back(since_last);
          }
          timeline->last = now;
        };
        const Clock::time_point t0 = Clock::now();
        {
          std::lock_guard<std::mutex> lock(timeline->mu);
          timeline->submitted = t0;
        }
        auto submitted = stack->service->Submit(std::move(request));
        rec.submit_ms = MsSince(t0);
        rec.repeat = stack->inputs.repeat_of[i] >= 0;
        if (!submitted.ok()) continue;
        moqo::QueryResult result = stack->service->Wait(submitted.value().id);
        rec.done_ms = MsSince(t0);
        rec.done = result.state == QueryState::kDone;
        rec.plans_generated = result.plans_generated;
        rec.frontier = std::move(result.frontier);
        std::lock_guard<std::mutex> lock(timeline->mu);
        // A follower whose only frontier is the final one sees it first.
        rec.ttff_ms = timeline->ttff_ms > 0.0 ? timeline->ttff_ms : rec.done_ms;
        rec.step_gaps_ms = timeline->gaps_ms;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  pass.wall_s = SecondsSince(start);
  pass.issued = std::min(next.load(), limit);
  pass.stats = stack->service->stats().Since(before);
  return pass;
}

// Values of `field` over the pass's completed requests (only those that
// repeat no earlier request, when `fresh_only`).
template <typename F>
std::vector<double> Collect(const PassResult& pass, F field,
                            bool fresh_only = false) {
  std::vector<double> values;
  for (size_t i = 0; i < pass.issued; ++i) {
    const Record& rec = pass.records[i];
    if (rec.done && !(fresh_only && rec.repeat)) values.push_back(field(rec));
  }
  return values;
}

size_t Completed(const PassResult& pass) {
  return static_cast<size_t>(
      std::count_if(pass.records.begin(),
                    pass.records.begin() + static_cast<int64_t>(pass.issued),
                    [](const Record& r) { return r.done; }));
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// Checks a pass's results: every completed repeat returned its original's
// exact frontier, and a seeded sample of fresh requests matches a serial,
// store-free IamaSession bit for bit. (Requests that did not complete are
// counted as failed, not checked.)
void CheckPass(const PassResult& pass, const Stack& stack, uint64_t seed,
               CheckLog* checks) {
  const ServingInputs& in = stack.inputs;
  std::vector<size_t> fresh;
  for (size_t i = 0; i < pass.issued; ++i) {
    const Record& rec = pass.records[i];
    if (!rec.done) continue;
    const int64_t j = in.repeat_of[i];
    if (j < 0) {
      fresh.push_back(i);
    } else if (static_cast<size_t>(j) < pass.issued &&
               pass.records[static_cast<size_t>(j)].done) {
      checks->Expect(FrontierDigest(rec.frontier) ==
                         FrontierDigest(pass.records[static_cast<size_t>(j)]
                                            .frontier),
                     "repeat " + std::to_string(i) + " matches request " +
                         std::to_string(j));
    }
  }
  checks->Expect(!fresh.empty(), "some fresh request completed");
  moqo::Rng rng(seed ^ 0x5eedULL);
  for (size_t s = 0; s < kReferenceSamples && !fresh.empty(); ++s) {
    const size_t i = fresh[rng.Uniform(fresh.size())];
    MatchesSerialReference(in.requests[i], in.catalog, stack.options,
                           pass.records[i].frontier, checks);
  }
}

// The workload properties a cache or store depends on.
struct Sharing {
  double repeat_share = 0.0;        // Submissions repeating an earlier one.
  double store_seeded_share = 0.0;  // Looked-up cells seeded from the store.
  uint64_t hot_bytes = 0;           // Hot-tier bytes resident at the end.
  size_t hot_budget = 0;
  uint64_t evictions = 0;  // Nonzero: publishes outgrew the hot budget.
  uint64_t cold_bytes = 0;
};

Sharing MeasureSharing(const PassResult& pass, const Stack& stack) {
  const moqo::FragmentStoreStats store =
      stack.service->fragment_store()->Stats();
  const moqo::ServiceStats& s = pass.stats;
  Sharing sh;
  sh.repeat_share = Share(
      static_cast<uint64_t>(std::count_if(
          stack.inputs.repeat_of.begin(),
          stack.inputs.repeat_of.begin() + static_cast<int64_t>(pass.issued),
          [](int64_t j) { return j >= 0; })),
      pass.issued);
  sh.store_seeded_share =
      Share(s.fragment_hits, s.fragment_hits + s.fragment_misses);
  sh.hot_bytes = store.bytes;
  sh.hot_budget = stack.options.fragment_cache_bytes;
  sh.evictions = s.fragment_evictions;
  sh.cold_bytes = store.cold_bytes;
  char line[320];
  std::snprintf(line, sizeof(line),
                "repeat_share=%.4f store_seeded_share=%.4f hot_bytes=%llu "
                "hot_budget=%zu evictions=%llu cold_bytes=%llu",
                sh.repeat_share, sh.store_seeded_share,
                static_cast<unsigned long long>(sh.hot_bytes), sh.hot_budget,
                static_cast<unsigned long long>(sh.evictions),
                static_cast<unsigned long long>(sh.cold_bytes));
  Note("sharing", line);
  return sh;
}

void AddLatencyMetrics(const PassResult& pass, Report* r) {
  const std::vector<double> ttff =
      Collect(pass, [](const Record& x) { return x.ttff_ms; });
  const std::vector<double> done =
      Collect(pass, [](const Record& x) { return x.done_ms; });
  const std::vector<double> refine =
      Collect(pass, [](const Record& x) { return x.done_ms - x.ttff_ms; });
  r->Add("first_frontier_s", Mean(ttff) / 1000.0, "s");
  r->Add("session_s", Mean(done) / 1000.0, "s");
  r->Add("relax_s", Mean(refine) / 1000.0, "s");
  r->Add("qps", static_cast<double>(ttff.size()) / pass.wall_s, "1/s");
  r->Add("ttff_p50_ms", Quantile(ttff, 0.5), "ms");
  r->Add("ttff_p90_ms", Quantile(ttff, 0.9), "ms");
  r->Add("done_p50_ms", Quantile(done, 0.5), "ms");
  r->Add("done_p90_ms", Quantile(done, 0.9), "ms");
}

}  // namespace

void RunServing(const RunArgs& args, bool distinct, Outcome* out) {
  // Untraced runs stop on time; the input pool only has to outlast it.
  const size_t traced = distinct ? kTracedDistinct : kTracedShared;
  const size_t count =
      args.trace ? traced
                 : static_cast<size_t>(
                       args.seconds * (distinct ? kMaxDistinctQps : kMaxSharedQps));
  RssSampler rss;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  const Clock::time_point setup_start = Clock::now();
  while (setup_s.size() < kSetupRepeats ||
         SecondsSince(setup_start) < kMinSetupSeconds) {
    const Clock::time_point start = Clock::now();
    stack.reset();
    stack = BuildStack(args, distinct, count, /*tcp=*/true,
                       static_cast<int>(setup_s.size()), &out->checks);
    setup_s.push_back(SecondsSince(start));
  }
  if (!out->checks.ok()) return;
  Note("setup_s", std::to_string(setup_s.size()) + " set-ups, median " +
                      std::to_string(Median(setup_s)) + " s");
  Report& r = out->report;

  if (!args.trace) {
    const PassResult pass = TcpPass(stack.get(), count, args.seconds);
    const double peak_rss_mb = rss.Stop();
    const size_t completed = Completed(pass);
    out->attempted = pass.issued;
    out->failed = pass.issued - completed;
    if (pass.issued == count) Note("warning", "request pool exhausted");
    Note("samples", std::to_string(completed) + " completed of " +
                        std::to_string(pass.issued) + " in " +
                        std::to_string(pass.wall_s) + " s");
    MeasureSharing(pass, *stack);
    CheckPass(pass, *stack, args.seed, &out->checks);
    AddLatencyMetrics(pass, &r);
    r.Add("peak_rss_mb", peak_rss_mb, "MB");
    r.Add("setup_s", Median(setup_s), "s");
    return;
  }

  // Traced: baseline pass, spanned pass, in-process replay — each on a
  // fresh stack built exactly like the timed one.
  const double no_limit = 1e9;
  const PassResult baseline = TcpPass(stack.get(), traced, no_limit);
  stack.reset();
  const int index = static_cast<int>(setup_s.size());
  stack = BuildStack(args, distinct, traced, true, index, &out->checks);
  const PassResult tcp = TcpPass(stack.get(), traced, no_limit);
  const Sharing sharing = MeasureSharing(tcp, *stack);
  CheckPass(tcp, *stack, args.seed, &out->checks);
  stack.reset();
  stack = BuildStack(args, distinct, traced, false, index + 1,
                     &out->checks);
  const PassResult local = InProcessPass(stack.get(), traced);
  CheckPass(local, *stack, args.seed, &out->checks);
  stack.reset();

  out->attempted = baseline.issued + tcp.issued + local.issued;
  out->failed = out->attempted - Completed(baseline) - Completed(tcp) -
                Completed(local);
  auto median_of = [](const PassResult& p, double Record::*field) {
    return Median(Collect(p, [field](const Record& x) { return x.*field; }));
  };
  std::vector<double> gaps;
  for (const Record& rec : local.records) {
    gaps.insert(gaps.end(), rec.step_gaps_ms.begin(), rec.step_gaps_ms.end());
  }
  const moqo::ServiceStats& s = tcp.stats;
  r.Add("net.submit_rtt_ms", median_of(tcp, &Record::submit_ms), "ms");
  r.Add("net.first_snapshot_wait_ms", median_of(tcp, &Record::first_wait_ms),
        "ms");
  r.Add("net.refine_wait_ms",
        Median(Collect(tcp, [](const Record& x) {
          return x.done_ms - x.ttff_ms;
        })),
        "ms");
  r.Add("net.overhead_ms",
        median_of(tcp, &Record::ttff_ms) - median_of(local, &Record::ttff_ms),
        "ms");
  r.Add("service.admit_ms", median_of(local, &Record::submit_ms), "ms");
  r.Add("service.first_snapshot_ms", median_of(local, &Record::ttff_ms), "ms");
  r.Add("service.step_ms", Median(gaps), "ms");
  r.Add("service.steps", static_cast<double>(s.steps_executed), "count");
  r.Add("service.work_steals", static_cast<double>(s.work_steals), "count");
  r.Add("service.cache_hit_rate", Share(s.cache_hits, s.submitted), "ratio");
  r.Add("service.coalesced", static_cast<double>(s.coalesced), "count");
  r.Add("service.snapshot_drops", static_cast<double>(s.snapshot_drops),
        "count");
  r.Add("fragment_store.hits", static_cast<double>(s.fragment_hits), "count");
  r.Add("fragment_store.hit_rate",
        Share(s.fragment_hits, s.fragment_hits + s.fragment_misses), "ratio");
  r.Add("fragment_store.cold_hits", static_cast<double>(s.fragment_cold_hits),
        "count");
  r.Add("fragment_store.evictions", static_cast<double>(s.fragment_evictions),
        "count");
  r.Add("fragment_store.hot_bytes", static_cast<double>(sharing.hot_bytes), "bytes");
  r.Add("fragment_store.publishes", static_cast<double>(s.fragment_publishes),
        "count");
  r.Add("fragment_store.demotions", static_cast<double>(s.fragment_demotions),
        "count");
  r.Add("fragment_store.cold_bytes", static_cast<double>(sharing.cold_bytes),
        "bytes");
  r.Add("fragment_store.compactions",
        static_cast<double>(s.fragment_compactions), "count");
  // Over fresh requests only: a repeat reports its original's work or
  // none, depending on whether it coalesced or hit the frontier cache.
  r.Add("core.plans_per_request",
        Mean(Collect(
            tcp,
            [](const Record& x) {
              return static_cast<double>(x.plans_generated);
            },
            /*fresh_only=*/true)),
        "count");
  r.Add("sharing.repeat_share", sharing.repeat_share, "ratio");
  r.Add("sharing.hot_over_budget",
        static_cast<double>(sharing.hot_bytes) /
            static_cast<double>(sharing.hot_budget),
        "ratio");
  r.Add("trace.overhead_pct", (tcp.wall_s / baseline.wall_s - 1.0) * 100.0,
        "%");
}

}  // namespace perfbench
