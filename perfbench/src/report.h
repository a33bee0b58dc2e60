// Metric collection and the result line the benchmark prints.
//
// Every run ends with one JSON object on its last stdout line:
//   {"correct": ..., "attempted": N, "failed": N,
//    "metrics": {"name": {"value": V, "unit": "U"}, ...}}
// Earlier lines starting with "# " are human-readable context (sample
// counts, sharing properties, check results).
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MsSince(Clock::time_point start) {
  return SecondsSince(start) * 1000.0;
}

// Median of `values` (mean of the two middle elements for even sizes);
// 0 for an empty sample.
double Median(std::vector<double> values);

// The p-quantile (p in [0, 1]) by linear interpolation between order
// statistics (the same rule as numpy's default); 0 for an empty sample.
double Quantile(std::vector<double> values, double p);

// VmHWM of this process in MiB (peak resident set size).
double PeakRssMb();

// Samples this process's resident set size every 10 ms on a thread of its
// own, from construction until Stop(). The result is the peak of the
// RSS's one-second moving mean: a sustained peak, which one 10 ms overlap
// of two requests' transient buffers cannot set the way it sets VmHWM.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  // Stops sampling (idempotent) and returns the peak one-second mean RSS
  // in MiB (the mean of all samples when there are fewer).
  double Stop();

 private:
  std::mutex mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::vector<double> samples_mb_;
  std::thread thread_;
};

// Ordered metric set of one run.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void Add(const std::string& name, double value, const std::string& unit);

  const std::vector<Metric>& metrics() const { return metrics_; }

  // The result line: the four contract keys, metrics in insertion order.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

// Copies `in` to `out` ordered by `specs`. A spec's metric missing from
// `in` is added as 0 when `zero_fill` is set, and is an error otherwise.
// Fails, with `error` set, when `in` holds a metric not in `specs` or one
// whose unit differs from its spec.
bool Conform(const Report& in, const MetricSpec* specs, size_t count,
             bool zero_fill, Report* out, std::string* error);

// Prints one "# key: value" context line to stdout.
void Note(const std::string& key, const std::string& value);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
