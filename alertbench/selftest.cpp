// Self-tests of the benchmark's own logic: the seed rule, span self time,
// the percentile rule and the ledger check.
// Build and run with `python3 alertbench/run.py --self-test`.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/engine.hpp"
#include "campaign/figures.hpp"
#include "obs/metrics.hpp"
#include "pass.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace alertbench {
namespace {

std::vector<std::string> keys_of(
    const std::vector<alert::campaign::CampaignSpec>& specs,
    std::size_t reps) {
  std::vector<std::string> keys;
  for (const auto& spec : specs) {
    for (const auto& unit : alert::campaign::expand_units(spec, reps).units) {
      keys.push_back(unit.key);
    }
  }
  return keys;
}

std::vector<std::string> workload_keys(Workload w, std::uint64_t seed) {
  return keys_of(workload_specs(w, seed), workload_reps(w));
}

TEST(Seeds, SameSeedGivesIdenticalKeys) {
  const auto first = workload_keys(Workload::Arena10k, 7);
  ASSERT_EQ(first.size(), kArenaReps);
  EXPECT_EQ(first, workload_keys(Workload::Arena10k, 7));
}

TEST(Seeds, DifferentSeedsShareNoKey) {
  std::set<std::string> seen;
  for (const std::uint64_t seed : {kDefaultSeed, std::uint64_t{1},
                                   std::uint64_t{2}, std::uint64_t{1} << 40}) {
    for (const std::string& key : workload_keys(Workload::Arena10k, seed)) {
      EXPECT_TRUE(seen.insert(key).second) << "seed " << seed << " " << key;
    }
  }
}

TEST(Seeds, DefaultSeedKeepsThePaperDefaultSeed) {
  const auto specs = workload_specs(Workload::Arena10k, kDefaultSeed);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].points.at(0).config.seed,
            alert::campaign::paper_default_scenario().seed);
}

TEST(Seeds, PaperWorkloadsRunTheRegistrysOwnKeys) {
  std::vector<alert::campaign::CampaignSpec> registry;
  for (const auto& def : alert::campaign::figure_registry()) {
    registry.push_back(def.build());
  }
  const auto expected = keys_of(registry, kPaperReps);
  ASSERT_FALSE(expected.empty());
  for (const Workload w : {Workload::PaperCold, Workload::PaperWarm}) {
    EXPECT_EQ(workload_keys(w, kDefaultSeed), expected);
    EXPECT_EQ(workload_keys(w, 5), expected);
  }
}

Span span(const char* name, std::int64_t parent, std::uint64_t start,
          std::uint64_t end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  // campaign [0,100) with two overlapping units [10,50) and [30,70), a
  // later unit [80,90), and a child that overhangs its parent's end.
  // unit 1 has a nested child [12,20); the leaf has no children.
  const std::vector<Span> spans = {
      span("campaign", kNoParent, 0, 100),  // 0
      span("unit", 0, 10, 50),              // 1
      span("unit", 0, 30, 70),              // 2
      span("unit", 0, 80, 90),              // 3
      span("campaign.cache.load", 1, 12, 20),
      span("late", 0, 95, 120),             // clipped to [95,100)
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  // Covered: [10,70) + [80,90) + [95,100) = 60 + 10 + 5.
  EXPECT_EQ(self[0], 100u - 75u);
  EXPECT_EQ(self[1], 40u - 8u);
  EXPECT_EQ(self[2], 40u);
  EXPECT_EQ(self[3], 10u);
  EXPECT_EQ(self[4], 8u);
}

TEST(Spans, SelfTimeOfNestedChainCountsEachLevelOnce) {
  const std::vector<Span> spans = {
      span("pass", kNoParent, 0, 1000),
      span("campaign", 0, 100, 900),
      span("unit", 1, 200, 800),
      span("core.run_once", 2, 250, 750),
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 200u);
  EXPECT_EQ(self[1], 200u);
  EXPECT_EQ(self[2], 100u);
  EXPECT_EQ(self[3], 500u);
}

TEST(Percentiles, RuleNeedsTenSamplesBeyond) {
  EXPECT_EQ(min_samples(50), 1u);
  EXPECT_EQ(min_samples(90), 100u);
  EXPECT_EQ(min_samples(99), 1000u);
}

TEST(Percentiles, NearestRankOnKnownSamples) {
  std::vector<std::uint64_t> samples;
  for (std::uint64_t v = 100; v >= 1; --v) samples.push_back(v);  // unsorted
  EXPECT_EQ(percentile(samples, 50), 50u);
  EXPECT_EQ(percentile(samples, 90), 90u);
  samples.pop_back();  // 99 samples: p90 is withheld, p50 is not
  EXPECT_FALSE(percentile(samples, 90).has_value());
  EXPECT_EQ(percentile(samples, 50), 51u);  // rank ceil(49.5) = 50 of 2..100
  EXPECT_EQ(percentile({7}, 50), 7u);
  EXPECT_FALSE(percentile({}, 50).has_value());
}

TEST(Ledger, BalancedOnlyWhenEveryOpenedPacketHasOneFate) {
  const auto run_with = [](std::uint64_t opened, std::uint64_t delivered,
                           std::uint64_t dropped, std::uint64_t expired) {
    alert::obs::MetricsRegistry metrics;
    metrics.counter("packets.opened").inc(opened);
    metrics.counter("packets.delivered").inc(delivered);
    metrics.counter("packets.dropped").inc(dropped);
    metrics.counter("packets.expired").inc(expired);
    alert::core::RunResult run;
    run.metrics = metrics.snapshot();
    return run;
  };
  EXPECT_TRUE(ledger_balanced(run_with(10, 6, 3, 1)));
  EXPECT_FALSE(ledger_balanced(run_with(10, 6, 3, 0)));
  EXPECT_FALSE(ledger_balanced(alert::core::RunResult{}));
}

}  // namespace
}  // namespace alertbench
