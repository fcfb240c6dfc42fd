/// Cross-cutting integration tests asserting the paper's headline claims
/// at reduced scale, so a regression in any module that would change a
/// figure's *shape* fails CI before the benches are ever run.

#include <gtest/gtest.h>

#include "analysis/theory.hpp"
#include "core/experiment.hpp"

namespace alert {
namespace {

core::ScenarioConfig scenario(core::ProtocolKind proto) {
  core::ScenarioConfig cfg;
  cfg.node_count = 150;
  cfg.duration_s = 50.0;
  cfg.flow_count = 5;
  cfg.protocol = proto;
  cfg.seed = 31337;
  return cfg;
}

TEST(PaperProperties, AlertLatencySlightlyAboveGpsrFarBelowAlarm) {
  const auto alert_r = core::run_experiment(scenario(core::ProtocolKind::Alert), 3, 1);
  const auto gpsr_r = core::run_experiment(scenario(core::ProtocolKind::Gpsr), 3, 1);
  const auto alarm_r = core::run_experiment(scenario(core::ProtocolKind::Alarm), 3, 1);
  const auto ao2p_r = core::run_experiment(scenario(core::ProtocolKind::Ao2p), 3, 1);
  // Fig. 14a ordering.
  EXPECT_GT(alert_r.fold("latency_ms").mean(), gpsr_r.fold("latency_ms").mean());
  EXPECT_LT(alert_r.fold("latency_ms").mean(), gpsr_r.fold("latency_ms").mean() * 10.0);
  EXPECT_GT(alarm_r.fold("latency_ms").mean(), alert_r.fold("latency_ms").mean() * 5.0);
  EXPECT_GT(ao2p_r.fold("latency_ms").mean(), alert_r.fold("latency_ms").mean() * 5.0);
}

TEST(PaperProperties, AlertHopsAboveGreedyBaselines) {
  const auto alert_r = core::run_experiment(scenario(core::ProtocolKind::Alert), 3, 1);
  const auto gpsr_r = core::run_experiment(scenario(core::ProtocolKind::Gpsr), 3, 1);
  // Fig. 15a: ALERT pays extra hops for anonymity, but not absurdly many.
  EXPECT_GT(alert_r.fold("hops").mean(), gpsr_r.fold("hops").mean());
  EXPECT_LT(alert_r.fold("hops").mean(), gpsr_r.fold("hops").mean() + 6.0);
}

TEST(PaperProperties, RouteOverlapSeparatesAlertFromBaselines) {
  const auto alert_r = core::run_experiment(scenario(core::ProtocolKind::Alert), 3, 1);
  const auto gpsr_r = core::run_experiment(scenario(core::ProtocolKind::Gpsr), 3, 1);
  // Sec. 3.1: ALERT's routes change per packet; GPSR repeats its path.
  EXPECT_LT(alert_r.fold("route_overlap").mean(), 0.5);
  EXPECT_GT(gpsr_r.fold("route_overlap").mean(), 0.6);
}

TEST(PaperProperties, RfCountMonotoneInH) {
  double prev = -1.0;
  for (const int h : {2, 4, 6}) {
    core::ScenarioConfig cfg = scenario(core::ProtocolKind::Alert);
    cfg.alert.partitions_h = h;
    const auto r = core::run_experiment(cfg, 3, 1);
    EXPECT_GT(r.fold("rf_per_packet").mean(), prev) << "H=" << h;
    prev = r.fold("rf_per_packet").mean();
  }
}

TEST(PaperProperties, RfCountNearEq10Expectation) {
  // Fig. 11: simulated RFs per packet tracks the Eq. 10 line (within a
  // factor that absorbs the voids-create-RFs excess).
  core::ScenarioConfig cfg = scenario(core::ProtocolKind::Alert);
  cfg.node_count = 200;
  cfg.alert.partitions_h = 5;
  const auto r = core::run_experiment(cfg, 3, 1);
  const double expected = analysis::expected_rfs(5);
  EXPECT_GT(r.fold("rf_per_packet").mean(), 0.5 * expected);
  EXPECT_LT(r.fold("rf_per_packet").mean(), 3.0 * expected);
}

TEST(PaperProperties, ResidencyDecayTracksEq15) {
  // Fig. 12 vs Fig. 9a: the simulated zone residency and the analytical
  // N_r(t) agree on the decayed fraction within a factor of ~1.6 at
  // moderate horizons (the exponential model is itself approximate).
  core::ScenarioConfig cfg = scenario(core::ProtocolKind::Alert);
  cfg.node_count = 200;
  cfg.duration_s = 30.0;
  cfg.residency_sample_period_s = 20.0;
  const auto r = core::run_experiment(cfg, 5, 1);
  const auto remaining = r.fold_each(&core::RunResult::remaining_by_sample);
  ASSERT_GE(remaining.size(), 2u);
  const double initial = remaining[0].mean();
  const double later = remaining[1].mean();
  ASSERT_GT(initial, 0.0);
  const analysis::NetworkShape net{1000.0, 1000.0, 200.0};
  const double predicted_fraction =
      analysis::remaining_nodes(net, 5, 2.0, 20.0) /
      analysis::dest_zone_population(net, 5);
  const double measured_fraction = later / initial;
  EXPECT_GT(measured_fraction, predicted_fraction / 1.6);
  EXPECT_LT(measured_fraction, predicted_fraction * 1.6);
}

TEST(PaperProperties, AlertDeliveryBeatsGpsrWithoutDestUpdate) {
  // Fig. 16b's "interesting observation".
  core::ScenarioConfig alert_cfg = scenario(core::ProtocolKind::Alert);
  alert_cfg.destination_update = false;
  alert_cfg.speed_mps = 6.0;
  core::ScenarioConfig gpsr_cfg = alert_cfg;
  gpsr_cfg.protocol = core::ProtocolKind::Gpsr;
  const auto alert_r = core::run_experiment(alert_cfg, 3, 1);
  const auto gpsr_r = core::run_experiment(gpsr_cfg, 3, 1);
  EXPECT_GT(alert_r.fold("delivery_rate").mean(), gpsr_r.fold("delivery_rate").mean());
}

TEST(PaperProperties, NotifyAndGoCostsOnlyCoverBytes) {
  // Sec. 2.6: camouflage adds ~eta tiny cover packets per data packet and
  // a few milliseconds of hold, not extra routed traffic.
  core::ScenarioConfig with_cfg = scenario(core::ProtocolKind::Alert);
  core::ScenarioConfig without_cfg = with_cfg;
  without_cfg.alert.notify_and_go = false;
  const auto with_r = core::run_experiment(with_cfg, 3, 1);
  const auto without_r = core::run_experiment(without_cfg, 3, 1);
  EXPECT_GT(with_r.fold("cover_per_data").mean(), 5.0);
  EXPECT_DOUBLE_EQ(without_r.fold("cover_per_data").mean(), 0.0);
  EXPECT_NEAR(with_r.fold("hops").mean(), without_r.fold("hops").mean(), 1.5);
  // fold() is unscaled: the latency difference is in seconds.
  EXPECT_LT(with_r.fold("latency_ms").mean() - without_r.fold("latency_ms").mean(), 0.01);
}

TEST(PaperProperties, AlarmControlTrafficDoublesItsHopAccounting) {
  const auto r = core::run_experiment(scenario(core::ProtocolKind::Alarm), 3, 1);
  // Fig. 15a: dissemination accounting raises ALARM's hops well above its
  // pure routing hops.
  EXPECT_GT(r.fold("hops_with_control").mean(), r.fold("hops").mean() * 1.5);
}

}  // namespace
}  // namespace alert
