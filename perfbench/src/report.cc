#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <unistd.h>

namespace perfbench {

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

constexpr auto kRssPeriod = std::chrono::milliseconds(10);
constexpr size_t kRssWindow = 100;  // Samples per second.

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         1048576.0;
}

}  // namespace

RssSampler::RssSampler()
    : thread_([this] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_) {
          lock.unlock();
          const double mb = ResidentMb();
          lock.lock();
          samples_mb_.push_back(mb);
          stop_cv_.wait_for(lock, kRssPeriod, [this] { return stop_; });
        }
      }) {}

RssSampler::~RssSampler() { Stop(); }

double RssSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  const size_t window = std::min(kRssWindow, samples_mb_.size());
  if (window == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < window; ++i) sum += samples_mb_[i];
  double peak = sum;
  for (size_t i = window; i < samples_mb_.size(); ++i) {
    sum += samples_mb_[i] - samples_mb_[i - window];
    peak = std::max(peak, sum);
  }
  return peak / static_cast<double>(window);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no NaN/Inf; a metric without a defined value reports 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

bool Conform(const Report& in, const MetricSpec* specs, size_t count,
             bool zero_fill, Report* out, std::string* error) {
  for (const Report::Metric& m : in.metrics()) {
    const MetricSpec* spec = std::find_if(
        specs, specs + count, [&](const MetricSpec& s) { return m.name == s.name; });
    if (spec == specs + count || m.unit != spec->unit) {
      *error = "unexpected metric " + m.name + " [" + m.unit + "]";
      return false;
    }
  }
  for (const MetricSpec* spec = specs; spec != specs + count; ++spec) {
    const auto found =
        std::find_if(in.metrics().begin(), in.metrics().end(),
                     [&](const Report::Metric& m) { return m.name == spec->name; });
    if (found == in.metrics().end() && !zero_fill) {
      *error = std::string("missing metric ") + spec->name;
      return false;
    }
    out->Add(spec->name, found == in.metrics().end() ? 0.0 : found->value,
             spec->unit);
  }
  return true;
}

void Note(const std::string& key, const std::string& value) {
  std::printf("# %s: %s\n", key.c_str(), value.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
