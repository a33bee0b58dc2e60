// loadgen — TCP load generator for optimizerd.
//
// Opens N concurrent client sessions (one connection + one thread each),
// submits random TPC-H join queries with snapshot streaming, and reports
// time-to-first-frontier percentiles plus the admission-taxonomy counts
// (shed / quota / drain) the server returned. The overload tool for the
// serving stack: crank --sessions past the server's --max-inflight and
// watch kShedding with retry-after hints instead of queue collapse.
//
// Usage:
//   ./build/loadgen --port P [--host H] [--sessions N] [--queries M]
//                   [--tenants T] [--priority P] [--deadline-ms D]
//                   [--max-iterations K] [--retries R] [--seed S] [--json] [--digest]
//
//   --port P        server port (required)
//   --host H        server address (default 127.0.0.1)
//   --sessions N    concurrent connections (default 8)
//   --queries M     queries per session (default 4)
//   --tenants T     spread sessions across T tenant names "t0".."t{T-1}"
//                   (default 1)
//   --priority P    per-query priority (default 1)
//   --deadline-ms D per-query deadline (default none)
//   --max-iterations K  session steps per query (default 0 = schedule)
//   --retries R     max resubmits after kShedding, honoring the server's
//                   retry-after hint (default 3)
//   --seed S        workload seed (default 1)
//   --json          emit one machine-readable JSON summary line
//   --digest        print one "loadgen-digest: NAME HEX" line per query
//                   that finished kDone: an order-insensitive FNV-1a over
//                   the final frontier's exact cost bits, order tags, and
//                   resolutions. Two runs against equivalent servers must
//                   produce identical digest sets — the bit-identity
//                   probe tests/optimizerd_smoke.sh uses to compare a
//                   crash-recovered warm store against a cold run
//
// Numeric flags must be whole integers (a number >= 0 for --deadline-ms)
// within their range; anything else names the flag and exits 2.
//
// Exit status: 0 when every query either finished or was rejected with a
// taxonomy code; 1 on any protocol/transport error; 2 on a bad flag.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tpch.h"
#include "flags.h"
#include "net/client.h"
#include "query/query.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/str.h"

using namespace moqo;

namespace {

using Clock = std::chrono::steady_clock;

// A random chain join over the 8 TPC-H base tables. Selectivities are
// seeded, so distinct (session, index) pairs yield distinct canonical
// queries — the workload exercises real optimization, not just the
// frontier cache.
Query MakeQuery(Rng* rng, int session, int index) {
  const int num_tables = 3 + static_cast<int>(rng->Uniform(4));  // 3..6
  QueryBuilder b("lg_s" + std::to_string(session) + "_q" +
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

// Order-insensitive digest of a final frontier's exact content: each
// plan renders to hex cost bits + order + resolution, the rows are
// sorted (frontier iteration order is not part of the bit-identity
// contract), and the concatenation is FNV-1a hashed.
uint64_t FrontierDigest(const FrontierSnapshot& frontier) {
  std::vector<std::string> rows;
  rows.reserve(frontier.plans.size());
  for (const CellIndex::Entry& e : frontier.plans) {
    std::string row;
    for (int i = 0; i < e.cost.dims(); ++i) {
      AppendHexDouble(&row, e.cost[i]);
      row += ',';
    }
    row += '|';
    row += std::to_string(static_cast<int>(e.order));
    row += '|';
    row += std::to_string(static_cast<int>(e.resolution));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  std::string all;
  for (const std::string& row : rows) {
    all += row;
    all += ';';
  }
  return Fnv1a64(all);
}

struct SessionTally {
  uint64_t ok = 0;
  uint64_t shed = 0;           // kShedding rejections observed.
  uint64_t quota = 0;          // kQuotaExceeded rejections.
  uint64_t drain = 0;          // kDraining rejections.
  uint64_t invalid = 0;        // kInvalidArgument rejections.
  uint64_t transport_errors = 0;
  uint64_t snapshots = 0;
  uint64_t gaps = 0;  // Snapshot events lost to drop-oldest (from markers).
  std::vector<double> ttff_ms;
  // (query name, frontier digest) per kDone query; see --digest.
  std::vector<std::pair<std::string, uint64_t>> digests;
};

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  int sessions = 8;
  int queries = 4;
  int tenants = 1;
  int priority = 1;
  double deadline_ms = 0.0;
  int max_iterations = 0;
  int retries = 3;
  uint64_t seed = 1;
  bool json = false;
  bool digest = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = static_cast<int>(ParseInt(arg, next(), 1, 65535));
    } else if (arg == "--sessions") {
      sessions = static_cast<int>(ParseInt(arg, next(), 1, 4096));
    } else if (arg == "--queries") {
      queries = static_cast<int>(ParseInt(arg, next(), 0, INT_MAX));
    } else if (arg == "--tenants") {
      tenants = static_cast<int>(ParseInt(arg, next(), 1, INT_MAX));
    } else if (arg == "--priority") {
      priority = static_cast<int>(ParseInt(arg, next(), 1, INT_MAX));
    } else if (arg == "--deadline-ms") {
      deadline_ms = ParseNonNegative(arg, next());
    } else if (arg == "--max-iterations") {
      max_iterations = static_cast<int>(ParseInt(arg, next(), 0, INT_MAX));
    } else if (arg == "--retries") {
      retries = static_cast<int>(ParseInt(arg, next(), 0, INT_MAX));
    } else if (arg == "--seed") {
      seed = static_cast<uint64_t>(ParseInt(arg, next(), 0, LLONG_MAX));
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--digest") {
      digest = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "loadgen: --port is required\n");
    return 2;
  }

  std::vector<SessionTally> tallies(static_cast<size_t>(sessions));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(sessions));
  const Clock::time_point wall_start = Clock::now();

  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      SessionTally& tally = tallies[static_cast<size_t>(s)];
      Rng rng(seed * 1000003 + static_cast<uint64_t>(s));
      net::OptimizerClient client;
      Status st = client.Connect(host, static_cast<uint16_t>(port));
      if (!st.ok()) {
        // A draining/over-capacity server refuses at the handshake —
        // taxonomy, not a transport error.
        if (st.code() == StatusCode::kDraining) {
          tally.drain += static_cast<uint64_t>(queries);
        } else if (st.code() == StatusCode::kShedding) {
          tally.shed += static_cast<uint64_t>(queries);
        } else {
          ++tally.transport_errors;
        }
        return;
      }
      for (int q = 0; q < queries; ++q) {
        SubmitRequest request;
        request.query = MakeQuery(&rng, s, q);
        request.tenant = "t" + std::to_string(s % tenants);
        request.priority = priority;
        request.deadline_ms = deadline_ms;
        request.max_iterations = max_iterations;
        request.subscribe = true;
        const Clock::time_point t0 = Clock::now();
        StatusOr<SubmitResponse> submitted = client.Submit(request);
        for (int attempt = 0;
             !submitted.ok() &&
             submitted.status().code() == StatusCode::kShedding &&
             attempt < retries;
             ++attempt) {
          ++tally.shed;
          const uint64_t hint = submitted.status().retry_after_ms();
          std::this_thread::sleep_for(
              std::chrono::milliseconds(std::min<uint64_t>(
                  hint > 0 ? hint : 1, 250)));
          submitted = client.Submit(request);
        }
        if (!submitted.ok()) {
          switch (submitted.status().code()) {
            case StatusCode::kShedding:
              ++tally.shed;
              break;
            case StatusCode::kQuotaExceeded:
              ++tally.quota;
              break;
            case StatusCode::kDraining:
              ++tally.drain;
              break;
            case StatusCode::kInvalidArgument:
              ++tally.invalid;
              break;
            default:
              ++tally.transport_errors;
              break;
          }
          if (!client.connected()) return;
          continue;
        }
        const QueryId id = submitted.value().id;
        StatusOr<bool> first = client.WaitSnapshot(id);
        if (!first.ok()) {
          ++tally.transport_errors;
          return;
        }
        tally.ttff_ms.push_back(MillisSince(t0));
        StatusOr<QueryResult> result = client.Wait(id);
        if (!result.ok()) {
          ++tally.transport_errors;
          return;
        }
        if (digest && result.value().state == QueryState::kDone) {
          tally.digests.emplace_back(request.query.name,
                                     FrontierDigest(result.value().frontier));
        }
        for (const net::SnapshotMsg& msg : client.TakeSnapshots(id)) {
          ++tally.snapshots;
          tally.gaps += msg.dropped;
        }
        ++tally.ok;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      MillisSince(wall_start) / 1000.0;

  SessionTally total;
  for (const SessionTally& t : tallies) {
    total.ok += t.ok;
    total.shed += t.shed;
    total.quota += t.quota;
    total.drain += t.drain;
    total.invalid += t.invalid;
    total.transport_errors += t.transport_errors;
    total.snapshots += t.snapshots;
    total.gaps += t.gaps;
    total.ttff_ms.insert(total.ttff_ms.end(), t.ttff_ms.begin(),
                         t.ttff_ms.end());
  }
  const double p50 = Percentile(total.ttff_ms, 0.50);
  const double p99 = Percentile(total.ttff_ms, 0.99);

  if (digest) {
    std::vector<std::pair<std::string, uint64_t>> all;
    for (const SessionTally& t : tallies) {
      all.insert(all.end(), t.digests.begin(), t.digests.end());
    }
    std::sort(all.begin(), all.end());
    for (const auto& [name, d] : all) {
      std::printf("loadgen-digest: %s %016llx\n", name.c_str(),
                  static_cast<unsigned long long>(d));
    }
  }

  if (json) {
    std::printf(
        "{\"sessions\":%d,\"queries_per_session\":%d,\"ok\":%llu,"
        "\"shed\":%llu,\"quota\":%llu,\"drain\":%llu,\"invalid\":%llu,"
        "\"transport_errors\":%llu,\"snapshots\":%llu,\"gaps\":%llu,"
        "\"ttff_p50_ms\":%.3f,\"ttff_p99_ms\":%.3f,\"wall_s\":%.3f,"
        "\"qps\":%.1f}\n",
        sessions, queries, static_cast<unsigned long long>(total.ok),
        static_cast<unsigned long long>(total.shed),
        static_cast<unsigned long long>(total.quota),
        static_cast<unsigned long long>(total.drain),
        static_cast<unsigned long long>(total.invalid),
        static_cast<unsigned long long>(total.transport_errors),
        static_cast<unsigned long long>(total.snapshots),
        static_cast<unsigned long long>(total.gaps), p50, p99, wall_s,
        wall_s > 0 ? static_cast<double>(total.ok) / wall_s : 0.0);
  } else {
    std::printf(
        "loadgen: %d sessions x %d queries against %s:%d\n"
        "  finished %llu, shed %llu, quota %llu, drain %llu, invalid %llu, "
        "transport errors %llu\n"
        "  snapshots %llu (gap-dropped %llu), ttff p50 %.2f ms, p99 %.2f ms, "
        "%.2f s wall, %.1f q/s\n",
        sessions, queries, host.c_str(), port,
        static_cast<unsigned long long>(total.ok),
        static_cast<unsigned long long>(total.shed),
        static_cast<unsigned long long>(total.quota),
        static_cast<unsigned long long>(total.drain),
        static_cast<unsigned long long>(total.invalid),
        static_cast<unsigned long long>(total.transport_errors),
        static_cast<unsigned long long>(total.snapshots),
        static_cast<unsigned long long>(total.gaps), p50, p99, wall_s,
        wall_s > 0 ? static_cast<double>(total.ok) / wall_s : 0.0);
  }
  return total.transport_errors == 0 ? 0 : 1;
}
