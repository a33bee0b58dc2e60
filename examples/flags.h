// Strict numeric flag parsing shared by the example drivers. A value that
// is not wholly a number in range names its flag and exits 2, the same
// status the drivers use for unknown flags.
#ifndef MOQO_EXAMPLES_FLAGS_H_
#define MOQO_EXAMPLES_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace moqo {

// Megabyte budgets are shifted into bytes; 1 TiB keeps the shift exact.
constexpr long long kMaxBudgetMb = 1LL << 20;

// Parses all of `text` as a base-10 integer in [lo, hi]; anything else
// (empty, trailing bytes, out of range) names `flag` and exits 2.
inline long long ParseInt(const std::string& flag, const std::string& text,
                          long long lo, long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || errno != 0 || *end != '\0' || v < lo || v > hi) {
    std::fprintf(stderr, "%s wants an integer in [%lld, %lld], got '%s'\n",
                 flag.c_str(), lo, hi, text.c_str());
    std::exit(2);
  }
  return v;
}

// Parses all of `text` as a finite number >= 0, or exits 2 like ParseInt.
inline double ParseNonNegative(const std::string& flag,
                               const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || errno != 0 || *end != '\0' || !std::isfinite(v) ||
      v < 0.0) {
    std::fprintf(stderr, "%s wants a number >= 0, got '%s'\n", flag.c_str(),
                 text.c_str());
    std::exit(2);
  }
  return v;
}

}  // namespace moqo

#endif  // MOQO_EXAMPLES_FLAGS_H_
