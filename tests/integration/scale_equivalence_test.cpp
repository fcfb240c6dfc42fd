/// Grid equivalence at scenario level (docs/SCALE.md): on fields large
/// enough that net::Network answers range queries from its spatial grid,
/// a run must reproduce bit-for-bit the determinism digest and event count
/// of a linear-scan run of the same scenario. The pinned values below come
/// from such a scan run; they cover random-waypoint and group mobility,
/// fault injection with ARQ, and a 10k-node arena whose packet ledger must
/// close clean.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/experiment.hpp"
#include "net/network.hpp"

namespace alert {
namespace {

/// Determinism digest and event count of the linear-scan run.
struct ScanRun {
  std::uint64_t digest;
  std::uint64_t events;
};

/// Paper density (200 nodes / km^2) on a 1.5 km field: 6x6 range-sized
/// cells, the smallest square field that selects the grid.
core::ScenarioConfig grid_field_scenario() {
  core::ScenarioConfig config;
  config.field = util::Rect{0.0, 0.0, 1500.0, 1500.0};
  config.node_count = 450;
  config.duration_s = 30.0;
  config.flow_count = 5;
  return config;
}

void expect_matches_scan(const core::ScenarioConfig& config, ScanRun scan) {
  ASSERT_TRUE(net::Network::selects_grid(config.field, config.radio_range_m));
  const core::RunResult run = core::run_once(config, 0);
  EXPECT_GT(run.sent, 0u);
  EXPECT_EQ(run.events_executed, scan.events);
  EXPECT_EQ(run.trace_digest, scan.digest);
}

TEST(ScaleEquivalence, Fig14aStyleRandomWaypoint) {
  core::ScenarioConfig config = grid_field_scenario();
  config.seed = 4242;
  expect_matches_scan(config, {0x4c5d8d16491fb1ceULL, 36372});
}

TEST(ScaleEquivalence, Fig17StyleGroupMobility) {
  core::ScenarioConfig config = grid_field_scenario();
  config.mobility = core::MobilityKind::Group;
  config.speed_mps = 8.0;
  config.seed = 1717;
  expect_matches_scan(config, {0xe164967dee9e8df7ULL, 48276});
}

TEST(ScaleEquivalence, AblationStyleFaultsAndArq) {
  core::ScenarioConfig config = grid_field_scenario();
  config.faults.loss.iid = 0.15;
  config.faults.churn.mttf_s = 40.0;
  config.mac.arq.enabled = true;
  config.seed = 99;
  expect_matches_scan(config, {0x4815f91906163498ULL, 35020});
}

TEST(ScaleEquivalence, TenThousandNodesLeakFree) {
  // Arena scale: 10k nodes at paper density, 29x29 cells. run_once audits
  // every uid's terminal fate at teardown, so a ledger leak fails the run.
  core::ScenarioConfig config;
  config.node_count = 10'000;
  const double side = 7071.0;  // sqrt(10000 / 200) km: paper density
  config.field = util::Rect{0.0, 0.0, side, side};
  config.duration_s = 5.0;
  config.flow_count = 10;
  config.seed = 10'000;
  ASSERT_TRUE(net::Network::selects_grid(config.field, config.radio_range_m));
  const core::RunResult run = core::run_once(config, 0);
  EXPECT_GT(run.packets_opened, 0u);
  EXPECT_EQ(run.events_executed, 104274u);
  EXPECT_EQ(run.trace_digest, 0x7600795a688c97ffULL);
}

}  // namespace
}  // namespace alert
