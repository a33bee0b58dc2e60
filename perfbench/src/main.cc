// perfbench: the repository benchmark's workload runner.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --scratch DIR
//
// Runs one workload (anytime_session, serve_shared or serve_distinct) and
// prints its result as the last stdout line (see report.h). Exits 0 when
// every output check passed, 1 when one failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>

#include "metrics.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload anytime_session|serve_shared|"
               "serve_distinct --seed N --seconds S --trace 0|1 "
               "--scratch DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.scratch_dir.empty() || !(args.seconds > 0.0)) {
    return Usage();
  }

  perfbench::Outcome out;
  if (args.workload == "anytime_session") {
    perfbench::RunAnytimeSession(args, &out);
  } else if (args.workload == "serve_shared") {
    perfbench::RunServing(args, /*distinct=*/false, &out);
  } else if (args.workload == "serve_distinct") {
    perfbench::RunServing(args, /*distinct=*/true, &out);
  } else {
    return Usage();
  }

  if (args.trace) {
    out.report.Add("fail_rate",
                   out.attempted == 0 ? 0.0
                                      : static_cast<double>(out.failed) /
                                            static_cast<double>(out.attempted),
                   "ratio");
  }
  perfbench::Report result;
  std::string error;
  const bool conforms =
      args.trace
          ? perfbench::Conform(out.report, perfbench::kPerLayer,
                               std::size(perfbench::kPerLayer), true, &result,
                               &error)
          : perfbench::Conform(out.report, perfbench::kEndToEnd,
                               std::size(perfbench::kEndToEnd), false, &result,
                               &error);
  out.checks.Expect(conforms, "metric set: " + error);
  out.checks.Expect(out.attempted > 0, "at least one request attempted");
  perfbench::Note("checks",
                  std::to_string(out.checks.checks() -
                                 static_cast<int>(out.checks.failures().size())) +
                      " of " + std::to_string(out.checks.checks()) + " passed");
  std::printf("%s\n",
              result.Json(out.checks.ok(), out.attempted, out.failed).c_str());
  return out.checks.ok() ? 0 : 1;
}
