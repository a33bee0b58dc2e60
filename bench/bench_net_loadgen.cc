// bench_net_loadgen — serving-stack latency under overload.
//
// Boots an OptimizerServer (in-process, loopback TCP) with a deliberately
// small --max-inflight, then throws client fleets at it that exceed that
// capacity. Sessions behave like well-written clients: on kShedding they
// honor the server's retry-after hint and resubmit. The headline metric
// is time-to-first-frontier (submit call to first streamed snapshot,
// *including* shed-retry delays) at p50/p99 — what an interactive caller
// actually experiences when the service is saturated, and the number the
// admission-control design trades throughput against.
//
// Appends a "net_loadgen" member to BENCH_service.json next to the
// in-process service numbers from bench_service_throughput (which owns
// and rewrites that file; this bench only merges its own key).
//
// Usage: ./build/bench_net_loadgen [--queries N] [--max-inflight N]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tpch.h"
#include "net/client.h"
#include "net/server.h"
#include "query/query.h"
#include "service/optimizer_service.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace moqo;

namespace {

using Clock = std::chrono::steady_clock;

// Same workload shape as examples/loadgen.cpp: seeded random chain joins
// over the TPC-H base tables, distinct per (session, index) so runs do
// real optimization instead of hitting the frontier cache.
Query MakeQuery(Rng* rng, int session, int index) {
  const int num_tables = 3 + static_cast<int>(rng->Uniform(4));
  QueryBuilder b("nb_s" + std::to_string(session) + "_q" +
                 std::to_string(index));
  for (int i = 0; i < num_tables; ++i) {
    b.AddTable(static_cast<TableId>(rng->Uniform(8)),
               rng->UniformDouble(0.05, 1.0));
  }
  for (int i = 1; i < num_tables; ++i) {
    b.AddJoin(i - 1, i, rng->UniformDouble(1e-6, 0.1));
  }
  return b.Build();
}

struct RunResult {
  int sessions = 0;
  uint64_t ok = 0;
  uint64_t shed_rejections = 0;
  uint64_t transport_errors = 0;
  double wall_s = 0.0;
  double ttff_p50_ms = 0.0;
  double ttff_p99_ms = 0.0;
};

RunResult RunFleet(uint16_t port, int sessions, int queries_per_session) {
  RunResult out;
  out.sessions = sessions;
  std::vector<std::vector<double>> ttff(static_cast<size_t>(sessions));
  std::atomic<uint64_t> ok{0}, shed{0}, errors{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> fleet;
  fleet.reserve(static_cast<size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    fleet.emplace_back([&, s] {
      Rng rng(0x9E3779B9u + static_cast<uint64_t>(s));
      net::OptimizerClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        ++errors;
        return;
      }
      for (int q = 0; q < queries_per_session; ++q) {
        SubmitRequest request;
        request.query = MakeQuery(&rng, s, q);
        request.max_iterations = 6;
        request.subscribe = true;
        const Clock::time_point t0 = Clock::now();
        StatusOr<SubmitResponse> submitted = client.Submit(request);
        // A well-behaved overload client: sleep the hinted backoff and
        // resubmit until admitted. The retry time stays inside the ttff
        // measurement — shedding is supposed to *shape* latency, and
        // this is where that shows up.
        while (!submitted.ok() &&
               submitted.status().code() == StatusCode::kShedding) {
          ++shed;
          const uint64_t hint = submitted.status().retry_after_ms();
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::min<uint64_t>(hint > 0 ? hint : 1, 250)));
          submitted = client.Submit(request);
        }
        if (!submitted.ok()) {
          ++errors;
          return;
        }
        StatusOr<bool> first = client.WaitSnapshot(submitted.value().id);
        if (!first.ok()) {
          ++errors;
          return;
        }
        ttff[static_cast<size_t>(s)].push_back(MillisSince(t0));
        if (!client.Wait(submitted.value().id).ok()) {
          ++errors;
          return;
        }
        ++ok;
      }
    });
  }
  for (std::thread& t : fleet) t.join();
  out.wall_s = MillisSince(start) / 1000.0;
  out.ok = ok.load();
  out.shed_rejections = shed.load();
  out.transport_errors = errors.load();
  std::vector<double> all;
  for (const auto& v : ttff) all.insert(all.end(), v.begin(), v.end());
  out.ttff_p50_ms = Percentile(all, 0.50);
  out.ttff_p99_ms = Percentile(all, 0.99);
  return out;
}

// Replaces any previous "net_loadgen" member and inserts the new one
// before the file's closing brace. Both writers of this file have known
// output shapes, so plain string surgery is safe.
bool MergeIntoBenchJson(const std::string& member) {
  std::string body;
  if (std::FILE* f = std::fopen("BENCH_service.json", "r")) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
    std::fclose(f);
  }
  const std::string key = ",\n  \"net_loadgen\":";
  const size_t existing = body.find(key);
  if (existing != std::string::npos) {
    // Drop the stale member and everything after it (it is always the
    // last member this bench appended, followed only by the close).
    body.erase(existing);
  } else {
    while (!body.empty() &&
           (body.back() == '\n' || body.back() == ' ' || body.back() == '}')) {
      const char c = body.back();
      body.pop_back();
      if (c == '}') break;
    }
  }
  while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
    body.pop_back();
  }
  if (body.empty()) body = "{\n  \"bench\": \"net_loadgen\"";
  body += key + " " + member + "\n}\n";
  std::FILE* f = std::fopen("BENCH_service.json", "w");
  if (f == nullptr) return false;
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int queries_per_session = 3;
  size_t max_inflight = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--queries" && i + 1 < argc) {
      queries_per_session = std::atoi(argv[++i]);
    } else if (arg == "--max-inflight" && i + 1 < argc) {
      max_inflight = static_cast<size_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  Catalog catalog = MakeTpchCatalog();
  ServiceOptions service_options;
  service_options.num_shards = 2;
  service_options.max_inflight_runs = max_inflight;
  OptimizerService service(catalog, service_options);
  net::OptimizerServer server(&service, {});
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    return 1;
  }

  std::printf(
      "# bench_net_loadgen: loopback TCP, max_inflight=%zu, %d "
      "queries/session\n"
      "# ttff includes shed-retry backoff (client honors retry-after)\n"
      "%9s %6s %6s %10s %13s %13s %8s\n",
      max_inflight, queries_per_session, "sessions", "ok", "shed", "wall_s",
      "ttff_p50_ms", "ttff_p99_ms", "q/s");

  std::string members;
  const int fleets[] = {4, 16, 48};  // Under, at, and far past capacity.
  bool failed = false;
  for (int sessions : fleets) {
    const RunResult r = RunFleet(server.port(), sessions, queries_per_session);
    failed = failed || r.transport_errors > 0;
    const double qps = r.wall_s > 0 ? static_cast<double>(r.ok) / r.wall_s : 0;
    std::printf("%9d %6llu %6llu %10.3f %13.3f %13.3f %8.1f\n", sessions,
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.shed_rejections), r.wall_s,
                r.ttff_p50_ms, r.ttff_p99_ms, qps);
    std::fflush(stdout);
    char row[320];
    std::snprintf(
        row, sizeof(row),
        "%s\n    {\"sessions\": %d, \"ok\": %llu, \"shed\": %llu, "
        "\"wall_s\": %.6f, \"ttff_p50_ms\": %.3f, \"ttff_p99_ms\": %.3f, "
        "\"qps\": %.3f}",
        members.empty() ? "" : ",", sessions,
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.shed_rejections), r.wall_s,
        r.ttff_p50_ms, r.ttff_p99_ms, qps);
    members += row;
  }
  server.BeginDrain();
  service.WaitIdle();
  server.Shutdown();
  if (failed) {
    std::fprintf(stderr, "transport errors during bench; not writing json\n");
    return 1;
  }

  const std::string member = "{\n    \"max_inflight\": " +
                             std::to_string(max_inflight) +
                             ",\n    \"fleets\": [" + members +
                             "\n    ]\n  }";
  if (!MergeIntoBenchJson(member)) {
    std::fprintf(stderr, "failed to write BENCH_service.json\n");
    return 1;
  }
  std::printf("# merged \"net_loadgen\" into BENCH_service.json\n");
  return 0;
}
