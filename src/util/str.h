// Small string formatting helpers (printf-style StrFormat and joining).
#ifndef MOQO_UTIL_STR_H_
#define MOQO_UTIL_STR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace moqo {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Joins `parts` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep);

// Appends the exact hexfloat rendering ("%a") of `v` to `out`. Used for
// canonical cache/fragment keys: two doubles get the same rendering iff
// they are bit-identical, so keys distinguish any two selectivities or
// bounds that could produce different cost vectors.
void AppendHexDouble(std::string* out, double v);

// FNV-1a over the bytes of `s`. Stable across platforms and standard-
// library versions, unlike std::hash<std::string> — fragment-store
// lock-shard placement and the frontier digests key on it, and neither
// should shift between toolchains.
uint64_t Fnv1a64(const std::string& s);

}  // namespace moqo

#endif  // MOQO_UTIL_STR_H_
