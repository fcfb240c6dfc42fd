#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace alert::core {
namespace {

/// Small, fast scenario for harness tests.
ScenarioConfig small_scenario() {
  ScenarioConfig cfg;
  cfg.node_count = 80;
  cfg.flow_count = 3;
  cfg.duration_s = 20.0;
  cfg.seed = 7;
  return cfg;
}

TEST(Experiment, RunOnceIsDeterministic) {
  const ScenarioConfig cfg = small_scenario();
  const RunResult a = run_once(cfg, 0);
  const RunResult b = run_once(cfg, 0);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.mean_hops, b.mean_hops);
  EXPECT_DOUBLE_EQ(a.mean_participants, b.mean_participants);
}

TEST(Experiment, DifferentReplicationsDiffer) {
  const ScenarioConfig cfg = small_scenario();
  const RunResult a = run_once(cfg, 0);
  const RunResult b = run_once(cfg, 1);
  // Same config, different seeds: traffic endpoints differ.
  EXPECT_NE(a.mean_latency_s, b.mean_latency_s);
}

TEST(Experiment, TrafficIsGenerated) {
  const RunResult r = run_once(small_scenario(), 0);
  // 3 flows, one packet each 2 s from t=3 to t=20: ~8 packets per flow.
  EXPECT_GE(r.sent, 20u);
  EXPECT_LE(r.sent, 30u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.mean_hops, 0.0);
  EXPECT_GT(r.mean_latency_s, 0.0);
}

TEST(Experiment, PacketsPerFlowCapRespected) {
  ScenarioConfig cfg = small_scenario();
  cfg.packets_per_flow = 2;
  const RunResult r = run_once(cfg, 0);
  EXPECT_EQ(r.sent, 6u);  // 3 flows x 2 packets
}

class ProtocolSweep : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ProtocolSweep, EveryProtocolDeliversTraffic) {
  ScenarioConfig cfg = small_scenario();
  cfg.node_count = 120;  // dense enough for all baselines
  cfg.protocol = GetParam();
  const RunResult r = run_once(cfg, 0);
  EXPECT_GT(r.sent, 0u);
  EXPECT_GT(r.delivery_rate(), 0.5)
      << "protocol " << protocol_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(All, ProtocolSweep,
                         ::testing::Values(ProtocolKind::Alert,
                                           ProtocolKind::Gpsr,
                                           ProtocolKind::Alarm,
                                           ProtocolKind::Ao2p),
                         [](const auto& param_info) {
                           return protocol_name(param_info.param);
                         });

TEST(Experiment, AlertHasMoreParticipantsThanGpsr) {
  ScenarioConfig cfg = small_scenario();
  cfg.node_count = 150;
  cfg.duration_s = 40.0;
  cfg.protocol = ProtocolKind::Alert;
  const RunResult alert_run = run_once(cfg, 0);
  cfg.protocol = ProtocolKind::Gpsr;
  const RunResult gpsr_run = run_once(cfg, 0);
  EXPECT_GT(alert_run.mean_participants, gpsr_run.mean_participants);
  EXPECT_GT(alert_run.rf_per_packet, 0.0);
  EXPECT_DOUBLE_EQ(gpsr_run.rf_per_packet, 0.0);
}

TEST(Experiment, DestinationUpdateTogglesFreezing) {
  ScenarioConfig cfg = small_scenario();
  cfg.speed_mps = 8.0;
  cfg.duration_s = 60.0;
  cfg.protocol = ProtocolKind::Gpsr;
  cfg.destination_update = true;
  const RunResult with = run_once(cfg, 0);
  cfg.destination_update = false;
  const RunResult without = run_once(cfg, 0);
  // Stale destination positions cannot beat fresh ones.
  EXPECT_GE(with.delivery_rate() + 0.05, without.delivery_rate());
}

TEST(Experiment, ResidencySamplesCollected) {
  const RunResult r = run_once(small_scenario(), 0);
  EXPECT_FALSE(r.remaining_by_sample.empty());
  // First sample is the initial population: at least as large as later.
  EXPECT_GE(r.remaining_by_sample.front() + 1e-9,
            r.remaining_by_sample.back());
}

TEST(Experiment, RunExperimentAggregatesReplications) {
  const ExperimentResult r = run_experiment(small_scenario(), 3, 1);
  EXPECT_EQ(r.runs.size(), 3u);
  EXPECT_EQ(r.fold("delivery_rate").count(), 3u);
  EXPECT_GT(r.fold("latency_ms").mean(), 0.0);
  EXPECT_GE(r.fold("delivery_rate").ci95_halfwidth(), 0.0);
}

TEST(Experiment, ParallelAndSerialAggregationMatch) {
  const ScenarioConfig cfg = small_scenario();
  const ExperimentResult serial = run_experiment(cfg, 3, 1);
  const ExperimentResult parallel = run_experiment(cfg, 3, 3);
  // Exact: aggregation happens in replication order regardless of thread
  // count, so parallel and serial results are bit-identical.
  EXPECT_EQ(serial.fold("latency_ms").mean(),
            parallel.fold("latency_ms").mean());
  EXPECT_EQ(serial.fold("delivery_rate").mean(),
            parallel.fold("delivery_rate").mean());
  EXPECT_EQ(serial.trace_digests, parallel.trace_digests);
}

TEST(Experiment, GroupMobilityScenarioRuns) {
  ScenarioConfig cfg = small_scenario();
  cfg.mobility = MobilityKind::Group;
  cfg.group_count = 5;
  cfg.group_range_m = 200.0;
  const RunResult r = run_once(cfg, 0);
  EXPECT_GT(r.delivered, 0u);
}

TEST(Experiment, AttacksOnlyRunWhenRequested) {
  ScenarioConfig cfg = small_scenario();
  cfg.run_attacks = false;
  const RunResult off = run_once(cfg, 0);
  EXPECT_DOUBLE_EQ(off.timing_source_rate, 0.0);
  cfg.run_attacks = true;
  cfg.protocol = ProtocolKind::Gpsr;
  const RunResult on = run_once(cfg, 0);
  EXPECT_GT(on.timing_source_rate, 0.5);  // GPSR is exposed
}

TEST(Scenario, ProtocolNames) {
  EXPECT_STREQ(protocol_name(ProtocolKind::Alert), "ALERT");
  EXPECT_STREQ(protocol_name(ProtocolKind::Gpsr), "GPSR");
  EXPECT_STREQ(protocol_name(ProtocolKind::Alarm), "ALARM");
  EXPECT_STREQ(protocol_name(ProtocolKind::Ao2p), "AO2P");
}

TEST(Scenario, NetworkConfigDerivation) {
  ScenarioConfig cfg;
  cfg.radio_range_m = 123.0;
  cfg.hello_period_s = 2.0;
  const net::NetworkConfig n = cfg.network_config();
  EXPECT_DOUBLE_EQ(n.radio_range_m, 123.0);
  EXPECT_DOUBLE_EQ(n.neighbor_max_age_s, 5.0);
}

}  // namespace
}  // namespace alert::core
