// The benchmark's workloads. Each runs in its own process (see main.cc).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "checks.h"
#include "report.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  // Directory for files a run writes (the fragment log); created and
  // removed by the run.
  std::string scratch_dir;
};

// Set-up runs again and again until it has run a workload's minimum
// number of times and for at least this long; setup_s is the median. The
// time floor keeps a cheap set-up's samples from all falling in the
// first milliseconds of the process.
inline constexpr double kMinSetupSeconds = 1.0;

struct Outcome {
  Report report;
  CheckLog checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// anytime_session: the paper's interactive loop in-process.
void RunAnytimeSession(const RunArgs& args, Outcome* out);

// serve_shared / serve_distinct: closed-loop clients against an
// in-process optimizerd over loopback TCP.
void RunServing(const RunArgs& args, bool distinct, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
