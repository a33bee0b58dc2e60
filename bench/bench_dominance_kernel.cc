// bench_dominance_kernel — microbenchmark of the data-oriented Pareto
// kernel (pareto/kernel.h) against the scalar layout it replaced.
//
// Two workloads, each at cell sizes {16, 256, 4096} x dims {2, 3}:
//
//   filter   mask every entry of a cell against query bounds
//            (boundary-cell filtering in Collect/Drain/ForEachInRange):
//            scalar = per-entry CostVector::Dominates over an
//            array-of-structs vector; kernel = FilterByBounds lane pass.
//   probe    first-dominator search with early exit (pruning's
//            "∃ pA ⪯ α·c(p)" range probe): scalar = early-exit Dominates
//            loop; kernel = FindDominating blocked scan.
//
// Throughput is reported in million entry-comparisons per second
// (filter) and million probes per second (probe), plus the
// kernel/scalar speedup. Output: a table on stdout and BENCH_kernel.json
// in the working directory so the perf trajectory is tracked across PRs.
//
// Usage:
//   ./build/bench_dominance_kernel            run + write BENCH_kernel.json
//   ./build/bench_dominance_kernel --verify   cross-check scalar vs kernel
//                                             bit-identity only; exits
//                                             nonzero on any mismatch (CI
//                                             smoke step, Release matrix)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cost/cost_vector.h"
#include "pareto/kernel.h"
#include "util/rng.h"

namespace moqo {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CostVector RandomCost(Rng& rng, int dims) {
  CostVector c(dims);
  for (int d = 0; d < dims; ++d) {
    c[d] = 0.25 * static_cast<double>(rng.UniformInt(0, 63));
  }
  return c;
}

struct Workload {
  std::vector<CostVector> cell;   // Scalar (AoS) cell contents.
  CostBank bank;                  // The same contents in lane layout.
  std::vector<CostVector> probes; // Query bounds, ~50% hit rate.

  Workload(int cell_size, int dims, uint64_t seed) : bank(dims) {
    Rng rng(seed);
    cell.reserve(static_cast<size_t>(cell_size));
    for (int i = 0; i < cell_size; ++i) {
      const CostVector c = RandomCost(rng, dims);
      cell.push_back(c);
      bank.PushBack(c.data());
    }
    // Half loose probes (hit early — the cheap case for everyone), half
    // selective probes (mostly miss — the case that drives pruning cost,
    // where the whole cell is scanned).
    for (int i = 0; i < 32; ++i) probes.push_back(RandomCost(rng, dims));
    for (int i = 0; i < 32; ++i) {
      CostVector tight = RandomCost(rng, dims);
      for (int d = 0; d < dims; ++d) tight[d] *= 0.05;
      probes.push_back(tight);
    }
  }
};

struct Result {
  const char* workload;
  int cell_size;
  int dims;
  double scalar_mps;  // Million entry-ops/sec, scalar path.
  double kernel_mps;  // Million entry-ops/sec, kernel path.
  double speedup() const {
    return scalar_mps > 0.0 ? kernel_mps / scalar_mps : 0.0;
  }
};

// Calibrates reps so each measured side runs ~80ms, then measures.
template <typename F>
double MeasureMs(F&& body, long* reps_out) {
  long reps = 1;
  for (;;) {
    const double t0 = NowMs();
    for (long r = 0; r < reps; ++r) body(r);
    const double elapsed = NowMs() - t0;
    if (elapsed >= 80.0 || reps > (1L << 40)) {
      *reps_out = reps;
      return elapsed;
    }
    reps *= elapsed < 8.0 ? 10 : 2;
  }
}

Result BenchFilter(const Workload& w) {
  const size_t n = w.cell.size();
  std::vector<uint8_t> mask(n);
  uint64_t sink = 0;
  long reps = 0;
  // Loose probes only: a boundary cell's bounds sit inside the cell's
  // value range by construction (cells far above the bounds classify
  // outside and are never filtered).
  const double scalar_ms = MeasureMs(
      [&](long r) {
        const CostVector& b = w.probes[static_cast<size_t>(r) % 32];
        for (size_t i = 0; i < n; ++i) {
          mask[i] = w.cell[i].Dominates(b);
        }
        sink += mask[static_cast<size_t>(r) % n];
      },
      &reps);
  const double scalar_mps =
      static_cast<double>(reps) * static_cast<double>(n) / scalar_ms / 1e3;
  const double kernel_ms = MeasureMs(
      [&](long r) {
        const CostVector& b = w.probes[static_cast<size_t>(r) % 32];
        sink += FilterByBounds(w.bank, b.data(), mask.data());
      },
      &reps);
  const double kernel_mps =
      static_cast<double>(reps) * static_cast<double>(n) / kernel_ms / 1e3;
  if (sink == 0xDEAD) std::printf("#");
  return {"filter", static_cast<int>(n), w.bank.dims(), scalar_mps,
          kernel_mps};
}

Result BenchProbe(const Workload& w) {
  // Metric: million probes/sec over the identical probe stream — the
  // early-exit asymmetry (scalar exits per entry, kernel per block) is
  // part of what is being measured.
  const size_t n = w.cell.size();
  uint64_t sink = 0;
  long reps = 0;
  const double scalar_ms = MeasureMs(
      [&](long r) {
        const CostVector& b = w.probes[static_cast<size_t>(r) % 64];
        for (size_t i = 0; i < n; ++i) {
          if (w.cell[i].Dominates(b)) {
            sink += i;
            return;
          }
        }
      },
      &reps);
  const double scalar_mps = static_cast<double>(reps) / scalar_ms / 1e3;
  const double kernel_ms = MeasureMs(
      [&](long r) {
        const CostVector& b = w.probes[static_cast<size_t>(r) % 64];
        sink += FindDominating(w.bank, b.data());
      },
      &reps);
  const double kernel_mps = static_cast<double>(reps) / kernel_ms / 1e3;
  if (sink == 0xDEAD) std::printf("#");
  return {"probe", static_cast<int>(n), w.bank.dims(), scalar_mps,
          kernel_mps};
}

// --verify: scalar-vs-kernel bit-identity cross-check (the CI smoke).
// Returns the number of mismatches.
int Verify() {
  int failures = 0;
  Rng rng(20260808);
  for (int trial = 0; trial < 500; ++trial) {
    const int dims = 2 + trial % 3;
    const int n = 1 + static_cast<int>(rng.Uniform(512));
    Workload w(n, dims, 1000 + static_cast<uint64_t>(trial));
    std::vector<uint8_t> mask(w.cell.size());
    for (const CostVector& b : w.probes) {
      FilterByBounds(w.bank, b.data(), mask.data());
      uint32_t expect_first = kKernelNpos;
      for (size_t i = 0; i < w.cell.size(); ++i) {
        const bool in = w.cell[i].Dominates(b);
        if (in && expect_first == kKernelNpos) {
          expect_first = static_cast<uint32_t>(i);
        }
        if ((mask[i] != 0) != in) {
          std::fprintf(stderr, "FilterByBounds mismatch trial %d entry %zu\n",
                       trial, i);
          ++failures;
        }
      }
      if (FindDominating(w.bank, b.data()) != expect_first) {
        std::fprintf(stderr, "FindDominating mismatch trial %d\n", trial);
        ++failures;
      }
    }
  }
  return failures;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--verify") {
      const int failures = Verify();
      if (failures != 0) {
        std::fprintf(stderr, "verify: %d mismatches\n", failures);
        return 1;
      }
      std::printf("verify: scalar and kernel paths bit-identical\n");
      return 0;
    }
  }

  std::vector<Result> results;
  std::printf("%-8s %10s %6s %14s %14s %10s\n", "workload", "cell", "dims",
              "scalar_mops", "kernel_mops", "speedup");
  for (int dims : {2, 3}) {
    for (int cell : {16, 256, 4096}) {
      const Workload w(cell, dims, static_cast<uint64_t>(cell) * 31 + dims);
      for (const Result& r :
           {BenchFilter(w), BenchProbe(w)}) {
        results.push_back(r);
        std::printf("%-8s %10d %6d %14.1f %14.1f %9.2fx\n", r.workload,
                    r.cell_size, r.dims, r.scalar_mps, r.kernel_mps,
                    r.speedup());
      }
    }
  }

  FILE* f = std::fopen("BENCH_kernel.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"dominance_kernel\",\n");
    std::fprintf(f,
                 "  \"unit\": \"million ops/sec (filter: entries, probe: "
                 "probes)\",\n");
    std::fprintf(f, "  \"configs\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(f,
                   "    {\"workload\": \"%s\", \"cell\": %d, \"dims\": %d, "
                   "\"scalar_mops\": %.1f, \"kernel_mops\": %.1f, "
                   "\"speedup\": %.2f}%s\n",
                   r.workload, r.cell_size, r.dims, r.scalar_mps,
                   r.kernel_mps, r.speedup(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_kernel.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace moqo

int main(int argc, char** argv) { return moqo::Main(argc, argv); }
