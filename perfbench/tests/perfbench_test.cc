// Unit tests of the benchmark's own code: metric output, the output
// checks, and seed determinism of the generated inputs. The end-to-end
// tests (whole runs through run.py) are in test_run.py.
#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "inputs.h"
#include "metrics.h"
#include "report.h"

namespace perfbench {
namespace {

TEST(MetricOutput, ResultLineCarriesEveryNameWithItsUnit) {
  Report in;
  for (const MetricSpec& spec : kEndToEnd) in.Add(spec.name, 1.5, spec.unit);
  Report out;
  std::string error;
  ASSERT_TRUE(Conform(in, kEndToEnd, std::size(kEndToEnd), false, &out,
                      &error))
      << error;
  const std::string json = out.Json(true, 3, 0);
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                       "\"metrics\": {",
                       0),
            0u);
  for (const MetricSpec& spec : kEndToEnd) {
    EXPECT_NE(json.find("\"" + std::string(spec.name) +
                        "\": {\"value\": 1.5, \"unit\": \"" + spec.unit + "\"}"),
              std::string::npos)
        << spec.name;
  }
}

TEST(MetricOutput, RejectsUnknownMissingOrMisunitedMetrics) {
  std::string error;
  Report out;
  Report unknown;
  unknown.Add("not_a_metric", 1.0, "s");
  EXPECT_FALSE(Conform(unknown, kPerLayer, std::size(kPerLayer), true, &out,
                       &error));

  Report wrong_unit;
  wrong_unit.Add("setup_s", 1.0, "ms");
  EXPECT_FALSE(Conform(wrong_unit, kEndToEnd, std::size(kEndToEnd), true,
                       &out, &error));

  // End-to-end metrics are never zero-filled.
  Report partial;
  partial.Add("setup_s", 1.0, "s");
  EXPECT_FALSE(Conform(partial, kEndToEnd, std::size(kEndToEnd), false, &out,
                       &error));
  EXPECT_NE(error.find("missing metric"), std::string::npos);
}

TEST(MetricOutput, PerLayerMetricsOfUnexercisedLayersReportZero) {
  Report in;
  in.Add("core.seed_ms", 2.0, "ms");
  Report out;
  std::string error;
  ASSERT_TRUE(Conform(in, kPerLayer, std::size(kPerLayer), true, &out,
                      &error));
  ASSERT_EQ(out.metrics().size(), std::size(kPerLayer));
  for (const Report::Metric& m : out.metrics()) {
    EXPECT_EQ(m.value, m.name == "core.seed_ms" ? 2.0 : 0.0) << m.name;
  }
}

TEST(MetricOutput, MetricNamesAreUnique) {
  std::set<std::string> names;
  for (const MetricSpec& spec : kEndToEnd) names.insert(spec.name);
  for (const MetricSpec& spec : kPerLayer) names.insert(spec.name);
  EXPECT_EQ(names.size(), std::size(kEndToEnd) + std::size(kPerLayer));
}

TEST(Checks, CorruptedDigestFailsTheReferenceCheck) {
  const ServingInputs in = MakeDistinctInputs(11, 1);
  const moqo::ServiceOptions options;
  CheckLog reference_checks;
  moqo::FrontierSnapshot served =
      SerialFinalFrontier(in.requests[0], in.catalog, options,
                          moqo::IamaOptions(), &reference_checks);
  ASSERT_TRUE(reference_checks.ok());
  ASSERT_FALSE(served.plans.empty());

  CheckLog clean;
  EXPECT_TRUE(MatchesSerialReference(in.requests[0], in.catalog, options,
                                     served, &clean));
  EXPECT_TRUE(clean.ok());

  // One cost bit of one plan flipped: the digest and the check must fail.
  const uint64_t digest = FrontierDigest(served);
  double* cost = served.plans.back().cost.data();
  cost[0] = std::nextafter(cost[0], 1e300);
  EXPECT_NE(FrontierDigest(served), digest);
  CheckLog corrupted;
  EXPECT_FALSE(MatchesSerialReference(in.requests[0], in.catalog, options,
                                      served, &corrupted));
  EXPECT_FALSE(corrupted.ok());
}

TEST(Checks, DigestIgnoresPlanOrder) {
  const ServingInputs in = MakeDistinctInputs(12, 1);
  CheckLog checks;
  moqo::FrontierSnapshot frontier =
      SerialFinalFrontier(in.requests[0], in.catalog, moqo::ServiceOptions(),
                          moqo::IamaOptions(), &checks);
  ASSERT_GE(frontier.plans.size(), 2u);
  const uint64_t digest = FrontierDigest(frontier);
  std::swap(frontier.plans.front(), frontier.plans.back());
  EXPECT_EQ(FrontierDigest(frontier), digest);
}

TEST(Checks, BoundsViolationIsDetected) {
  moqo::FrontierSnapshot snapshot;
  snapshot.bounds = moqo::CostVector{10.0, 10.0};
  moqo::CellIndex::Entry inside;
  inside.cost = moqo::CostVector{10.0, 1.0};
  snapshot.plans.push_back(inside);
  EXPECT_TRUE(RespectsBounds(snapshot));
  moqo::CellIndex::Entry outside;
  outside.cost = moqo::CostVector{1.0, 10.5};
  snapshot.plans.push_back(outside);
  EXPECT_FALSE(RespectsBounds(snapshot));
}

std::vector<std::string> Texts(const std::vector<moqo::Query>& queries,
                               const moqo::Catalog& catalog) {
  std::vector<std::string> texts;
  for (const moqo::Query& q : queries) texts.push_back(QueryText(q, catalog));
  return texts;
}

TEST(Inputs, AnytimeInputsRepeatPerSeedAndRelabelAcrossSeeds) {
  const AnytimeInputs a = MakeAnytimeInputs(3);
  const AnytimeInputs b = MakeAnytimeInputs(3);
  const AnytimeInputs c = MakeAnytimeInputs(4);
  ASSERT_EQ(a.queries.size(), 5u);
  EXPECT_EQ(Texts(a.queries, a.catalog), Texts(b.queries, b.catalog));
  EXPECT_NE(Texts(a.queries, a.catalog), Texts(c.queries, c.catalog));
  const int tables[] = {10, 10, 10, 10, 7};
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].NumTables(), tables[i]);
    // A relabelling keeps the plan space: same predicate count.
    EXPECT_EQ(a.queries[i].joins.size(), c.queries[i].joins.size());
  }
  EXPECT_EQ(a.queries[kCliqueQuery].joins.size(), 21u);  // 7 choose 2.
}

TEST(Inputs, SharedInputsRepeatPerSeed) {
  const ServingInputs a = MakeSharedInputs(5, 400);
  const ServingInputs b = MakeSharedInputs(5, 400);
  EXPECT_EQ(Texts(a.requests, a.catalog), Texts(b.requests, b.catalog));
  EXPECT_EQ(a.repeat_of, b.repeat_of);
  const ServingInputs c = MakeSharedInputs(6, 400);
  EXPECT_NE(Texts(a.requests, a.catalog), Texts(c.requests, c.catalog));
  size_t repeats = 0;
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].NumTables(), 8);
    const int64_t j = a.repeat_of[i];
    if (j < 0) continue;
    ++repeats;
    ASSERT_LT(static_cast<size_t>(j), i);
    EXPECT_LT(a.repeat_of[static_cast<size_t>(j)], 0);  // Points at a fresh one.
    EXPECT_EQ(QueryText(a.requests[i], a.catalog),
              QueryText(a.requests[static_cast<size_t>(j)], a.catalog));
  }
  EXPECT_EQ(repeats, 100u);  // One in each block of four.
}

TEST(Inputs, DistinctInputsRepeatPerSeedAndShareNoTable) {
  const ServingInputs a = MakeDistinctInputs(9, 40);
  const ServingInputs b = MakeDistinctInputs(9, 40);
  EXPECT_EQ(Texts(a.requests, a.catalog), Texts(b.requests, b.catalog));
  std::set<moqo::TableId> seen;
  for (const moqo::Query& q : a.requests) {
    EXPECT_EQ(q.NumTables(), 7);
    for (const moqo::TableRef& ref : q.tables) {
      EXPECT_TRUE(seen.insert(ref.table).second) << "table reused";
    }
  }
  for (int64_t j : a.repeat_of) EXPECT_EQ(j, -1);
}

TEST(Memory, SampledPeakFollowsASustainedAllocation) {
  RssSampler sampler;
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // 64 MiB, touched and held for longer than the one-second window.
  std::vector<char> block(64u << 20, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  const double held_mb = sampler.Stop();
  EXPECT_GT(held_mb, 32.0);
  EXPECT_LE(held_mb, PeakRssMb() + 1e-9);
  EXPECT_EQ(sampler.Stop(), held_mb);  // Stop is idempotent.
  EXPECT_EQ(block[12345], 1);
}

}  // namespace
}  // namespace perfbench
