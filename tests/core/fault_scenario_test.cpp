#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "campaign/spec.hpp"  // alert-lint: allow(module-layering) test checks fault scenarios round-trip campaign specs
#include "core/scenario_codec.hpp"

namespace alert::core {
namespace {

/// Value of `key` in a canonical dump, or "" when the key is absent.
std::string value_of(const std::string& dump, std::string_view key) {
  const std::string needle = std::string(key) + "=";
  std::size_t pos = 0;
  while (pos < dump.size()) {
    const std::size_t eol = dump.find('\n', pos);
    const std::string_view line(dump.data() + pos, eol - pos);
    if (line.substr(0, needle.size()) == needle) {
      return std::string(line.substr(needle.size()));
    }
    pos = eol + 1;
  }
  return "";
}

ScenarioConfig faulty_scenario() {
  ScenarioConfig cfg;
  cfg.node_count = 80;
  cfg.flow_count = 3;
  cfg.duration_s = 20.0;
  cfg.seed = 7;
  cfg.faults.loss.iid = 0.2;
  cfg.faults.churn.mttf_s = 8.0;
  cfg.faults.churn.mttr_s = 3.0;
  cfg.faults.outages.push_back({{250.0, 250.0}, 100.0, 5.0, 12.0});
  cfg.mac.arq.enabled = true;
  return cfg;
}

// --- codec: conditional emission + golden regression -----------------------

TEST(FaultCodec, DefaultDumpCarriesNoFaultKeys) {
  const std::string dump = canonical_scenario(ScenarioConfig{});
  EXPECT_EQ(dump.find("faults."), std::string::npos);
  EXPECT_EQ(dump.find("mac.arq"), std::string::npos);
}

TEST(FaultCodec, DefaultUnitKeysMatchPreFaultGoldens) {
  // Pinned before the fault layer existed: any change here invalidates
  // every warm campaign cache and breaks the defaults-are-inert contract.
  EXPECT_EQ(scenario_unit_key(ScenarioConfig{}, 0),
            "4a25d63079def6e2ca4937f1865e8d61feae5907");
  EXPECT_EQ(scenario_unit_key(campaign::paper_default_scenario(), 0),
            "70a531c203713def02848ccb57c5ac480fe76522");
}

TEST(FaultCodec, ActivePlanEmitsEveryKnob) {
  const std::string dump = canonical_scenario(faulty_scenario());
  for (const char* key :
       {"faults.loss.iid", "faults.loss.gilbert", "faults.loss.ge_p_good_bad",
        "faults.loss.ge_p_bad_good", "faults.loss.ge_loss_good",
        "faults.loss.ge_loss_bad", "faults.churn.mttf_s",
        "faults.churn.mttr_s", "faults.outages", "mac.arq.enabled",
        "mac.arq.retry_limit", "mac.arq.ack_timeout_s",
        "mac.arq.backoff_base_s", "mac.arq.ack_bytes"}) {
    EXPECT_NE(dump.find(std::string(key) + "="), std::string::npos) << key;
  }
  // ARQ alone (no fault plan) must also surface — it changes behaviour.
  ScenarioConfig arq_only;
  arq_only.mac.arq.enabled = true;
  EXPECT_NE(canonical_scenario(arq_only).find("mac.arq.enabled=true"),
            std::string::npos);
}

TEST(FaultCodec, FaultKnobsRoundTripThroughParams) {
  const ScenarioConfig original = faulty_scenario();
  const std::string dump = canonical_scenario(original);
  ScenarioConfig rebuilt;
  rebuilt.node_count = original.node_count;
  rebuilt.flow_count = original.flow_count;
  rebuilt.duration_s = original.duration_s;
  rebuilt.seed = original.seed;
  std::string error;
  for (const char* key :
       {"faults.loss.iid", "faults.loss.gilbert", "faults.loss.ge_p_good_bad",
        "faults.loss.ge_p_bad_good", "faults.loss.ge_loss_good",
        "faults.loss.ge_loss_bad", "faults.churn.mttf_s",
        "faults.churn.mttr_s", "faults.outages", "mac.arq.enabled",
        "mac.arq.retry_limit", "mac.arq.ack_timeout_s",
        "mac.arq.backoff_base_s", "mac.arq.ack_bytes"}) {
    ASSERT_TRUE(apply_scenario_param(rebuilt, key, value_of(dump, key),
                                     &error))
        << key << ": " << error;
  }
  EXPECT_EQ(canonical_scenario(rebuilt), dump);
  EXPECT_EQ(scenario_unit_key(rebuilt, 0), scenario_unit_key(original, 0));
}

TEST(FaultCodec, FaultKnobsChangeTheUnitKey) {
  const ScenarioConfig base;
  ScenarioConfig lossy = base;
  lossy.faults.loss.iid = 0.1;
  EXPECT_NE(scenario_unit_key(lossy, 0), scenario_unit_key(base, 0));
  ScenarioConfig arq = base;
  arq.mac.arq.enabled = true;
  EXPECT_NE(scenario_unit_key(arq, 0), scenario_unit_key(base, 0));
  EXPECT_NE(scenario_unit_key(arq, 0), scenario_unit_key(lossy, 0));
}

TEST(FaultCodec, MalformedOutagesAreRejected) {
  ScenarioConfig cfg;
  std::string error;
  for (const char* bad : {"1:2:3", "1:2:3:4:5:6", "a:b:c:d:e", "1:2:3:4:"}) {
    EXPECT_FALSE(apply_scenario_param(cfg, "faults.outages", bad, &error))
        << bad;
  }
  EXPECT_TRUE(apply_scenario_param(cfg, "faults.outages",
                                   "250:250:100:5:12;10:10:5:0:1", &error))
      << error;
  ASSERT_EQ(cfg.faults.outages.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.faults.outages[1].radius_m, 5.0);
}

// --- scenario validation: hard exit-2 contract -----------------------------

using FaultScenarioDeathTest = ::testing::Test;

TEST(FaultScenarioDeathTest, RunOnceRejectsBadLossProbability) {
  ScenarioConfig cfg;
  cfg.faults.loss.iid = 2.0;
  EXPECT_EXIT((void)run_once(cfg, 0), ::testing::ExitedWithCode(2),
              "invalid scenario");
}

TEST(FaultScenarioDeathTest, RunOnceRejectsBadChurn) {
  ScenarioConfig cfg;
  cfg.faults.churn.mttf_s = -1.0;
  EXPECT_EXIT((void)run_once(cfg, 0), ::testing::ExitedWithCode(2),
              "invalid scenario");
}

TEST(FaultScenarioDeathTest, RunOnceRejectsUselessArqBudget) {
  ScenarioConfig cfg;
  cfg.mac.arq.enabled = true;
  cfg.mac.arq.retry_limit = 0;
  EXPECT_EXIT((void)run_once(cfg, 0), ::testing::ExitedWithCode(2),
              "invalid scenario");
}

TEST(FaultScenarioDeathTest, FlowsWithFewerThanTwoNodesAreRejected) {
  // run_once would spin forever drawing a destination other than the
  // source, so the rejection is checked through validate_scenario.
  for (const std::size_t nodes : {std::size_t{0}, std::size_t{1}}) {
    ScenarioConfig cfg;
    cfg.node_count = nodes;
    cfg.flow_count = 1;
    EXPECT_EXIT(validate_scenario(cfg), ::testing::ExitedWithCode(2),
                "invalid scenario: flows need at least two nodes");
  }
}

TEST(FaultScenarioDeathTest, ValidateScenarioIsCallableUpFront) {
  ScenarioConfig cfg;
  cfg.faults.outages.push_back({{0.0, 0.0}, 10.0, 5.0, 1.0});  // end < start
  EXPECT_EXIT(validate_scenario(cfg), ::testing::ExitedWithCode(2),
              "invalid scenario");
}

// --- fault runs: determinism + graceful degradation ------------------------

TEST(FaultExperiment, FaultRunsAreByteStable) {
  const ScenarioConfig cfg = faulty_scenario();
  const RunResult a = run_once(cfg, 0);
  const RunResult b = run_once(cfg, 0);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
}

TEST(FaultExperiment, FaultsActuallyPerturbTheRun) {
  ScenarioConfig plain;
  plain.node_count = 80;
  plain.flow_count = 3;
  plain.duration_s = 20.0;
  plain.seed = 7;
  const RunResult ideal = run_once(plain, 0);
  const RunResult faulty = run_once(faulty_scenario(), 0);
  EXPECT_NE(ideal.trace_digest, faulty.trace_digest);
  EXPECT_LT(faulty.delivered, ideal.delivered);
}

TEST(FaultExperiment, ArqRecoversDeliveryUnderLoss) {
  ScenarioConfig lossy;
  lossy.node_count = 80;
  lossy.flow_count = 3;
  lossy.duration_s = 20.0;
  lossy.seed = 7;
  lossy.faults.loss.iid = 0.3;
  const RunResult without = run_once(lossy, 0);
  lossy.mac.arq.enabled = true;
  const RunResult with = run_once(lossy, 0);
  EXPECT_GT(with.delivered, without.delivered);
  EXPECT_GT(with.delivered, 0u);
}

}  // namespace
}  // namespace alert::core
