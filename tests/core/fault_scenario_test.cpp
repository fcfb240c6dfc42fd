#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "campaign/spec.hpp"  // alert-lint: allow(module-layering) test checks fault scenarios round-trip campaign specs
#include "core/scenario_codec.hpp"

namespace alert::core {
namespace {

/// The (key, value) pairs of a canonical dump, in dump order.
std::vector<std::pair<std::string, std::string>> dump_pairs(
    const std::string& dump) {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::size_t pos = 0;
  while (pos < dump.size()) {
    const std::size_t eol = dump.find('\n', pos);
    const std::string line = dump.substr(pos, eol - pos);
    const std::size_t eq = line.find('=');
    pairs.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    pos = eol + 1;
  }
  return pairs;
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
  std::string error;
  for (const auto& [key, value] : dump_pairs(dump)) {
    ASSERT_TRUE(apply_scenario_param(rebuilt, key, value, &error))
        << key << ": " << error;
  }
  EXPECT_EQ(canonical_scenario(rebuilt), dump);
  EXPECT_EQ(scenario_unit_key(rebuilt, 0), scenario_unit_key(original, 0));
}

/// Every semantic field off its default, the fault plan and ARQ included.
ScenarioConfig off_default_scenario() {
  ScenarioConfig c;
  c.field = {1.5, 2.5, 900.25, 800.125};
  c.node_count = 123;
  c.mobility = MobilityKind::Group;
  c.speed_mps = 3.25;
  c.group_count = 7;
  c.group_range_m = 99.5;
  c.radio_range_m = 211.0;
  c.mac.bandwidth_bps = 1e6;
  c.mac.slot_s = 2e-4;
  c.mac.difs_s = 3e-5;
  c.mac.propagation_mps = 2.5e8;
  c.mac.contention_per_neighbor = 0.2;
  c.mac.arq = {true, 3, 0.002, 0.0005, 20};
  c.hello_period_s = 1.5;
  c.pseudonym_period_s = 15.0;
  c.faults.loss = {0.1, true, 0.07, 0.2, 0.01, 0.5};
  c.faults.churn.mttf_s = 50.0;
  c.faults.churn.mttr_s = 5.0;
  c.faults.outages = {{{250.0, 250.0}, 100.0, 5.0, 12.0},
                      {{1.0 / 3.0, 10.0}, 5.0, 0.0, 1.0}};
  c.flow_count = 5;
  c.packet_interval_s = 1.0 / 3.0;  // needs all 17 digits to round-trip
  c.payload_bytes = 256;
  c.packets_per_flow = 9;
  c.traffic_start_s = 4.5;
  c.min_pair_distance_m = 10.0;
  c.max_pair_distance_m = 700.0;
  c.duration_s = 42.0;
  c.destination_update = false;
  c.location = {9, 0.5, 2.0};
  c.crypto_cost = {0.001, 0.002, 0.1, 0.2, 0.3, 0.01, 0.0002};
  c.protocol = ProtocolKind::Zap;
  c.alert.partitions_h = 4;
  c.alert.k_anonymity = 12.5;
  c.alert.max_hops = 30;
  c.alert.per_hop_processing_s = 1e-4;
  c.alert.notify_and_go = false;
  c.alert.notify_t_s = 0.002;
  c.alert.notify_t0_s = 0.005;
  c.alert.cover_bytes = 32;
  c.alert.intersection_countermeasure = true;
  c.alert.countermeasure_m = 4;
  c.alert.bitmap_flips = 8;
  c.alert.send_confirmation = false;
  c.alert.confirm_timeout_s = 2.5;
  c.alert.max_retransmissions = 2;
  c.alert.use_nak = false;
  c.alert.use_perimeter_fallback = false;
  c.gpsr = {12, false, 3e-4};
  c.alarm = {20.0, 11, 3e-4};
  c.ao2p = {9, 3e-4, 0.01, 150.0};
  c.zap = {200.0, 20, 3e-4, false};
  c.residency_sample_period_s = 3.0;
  c.run_attacks = true;
  c.compromise_budgets = {2, 5};
  c.seed = 99;
  return c;
}

TEST(ScenarioCodec, EveryKeyRoundTripsThroughParams) {
  const std::string dump = canonical_scenario(off_default_scenario());
  // Every row really is off its default: no line matches the default
  // config's dump (all rows shown by switching the ARQ on).
  ScenarioConfig defaults;
  defaults.mac.arq.enabled = true;
  const std::string default_dump = canonical_scenario(defaults);
  const auto pairs = dump_pairs(dump);
  const auto default_pairs = dump_pairs(default_dump);
  EXPECT_EQ(pairs.size(), default_pairs.size());
  for (const auto& [key, value] : pairs) {
    if (key == "mac.arq.enabled") continue;
    const std::pair<std::string, std::string> row{key, value};
    EXPECT_EQ(std::count(default_pairs.begin(), default_pairs.end(), row), 0)
        << key << " is at its default";
  }

  ScenarioConfig rebuilt;
  std::string error;
  for (const auto& [key, value] : pairs) {
    ASSERT_TRUE(apply_scenario_param(rebuilt, key, value, &error))
        << key << ": " << error;
  }
  EXPECT_EQ(canonical_scenario(rebuilt), dump);

  // Strict: a value that does not parse is refused and changes nothing.
  for (const auto& [key, value] : pairs) {
    EXPECT_FALSE(apply_scenario_param(rebuilt, key, value + "x!", &error))
        << key;
    EXPECT_NE(error.find("bad value"), std::string::npos) << key;
  }
  EXPECT_EQ(canonical_scenario(rebuilt), dump);
}

TEST(ScenarioCodec, AliasAndUnknownKeys) {
  ScenarioConfig cfg;
  std::string error;
  ASSERT_TRUE(apply_scenario_param(cfg, "partitions_h", "3", &error));
  EXPECT_EQ(cfg.alert.partitions_h, 3);
  EXPECT_FALSE(apply_scenario_param(cfg, "nodez", "40", &error));
  EXPECT_EQ(error, "unknown scenario parameter 'nodez'");
  EXPECT_FALSE(apply_scenario_param(cfg, "node_count", "-1", &error));
  EXPECT_FALSE(apply_scenario_param(cfg, "node_count", " 5", &error));
  EXPECT_FALSE(apply_scenario_param(cfg, "compromise_budgets", "1,", &error));
  EXPECT_FALSE(apply_scenario_param(cfg, "alert.partitions_h", "99999999999",
                                    &error));
  EXPECT_EQ(cfg.node_count, 200u);
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

TEST(FaultScenarioDeathTest, NonPositivePeriodsAreRejected) {
  // Each paces a periodic process that a zero period would never advance.
  for (const std::string key :
       {"hello_period_s", "pseudonym_period_s", "packet_interval_s",
        "location.update_period_s", "location.replication_period_s",
        "residency_sample_period_s"}) {
    ScenarioConfig cfg;
    std::string error;
    ASSERT_TRUE(apply_scenario_param(cfg, key, "0", &error)) << error;
    EXPECT_EXIT(validate_scenario(cfg), ::testing::ExitedWithCode(2),
                "invalid scenario: " + key + " must be > 0")
        << key;
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
