#include "loc/location_service.hpp"

#include <gtest/gtest.h>

#include "net/mobility.hpp"
#include "sim/simulator.hpp"  // alert-lint: allow(module-layering) test runs the location service on a live simulator

namespace alert::loc {
namespace {

struct Fixture {
  explicit Fixture(double speed = 10.0, std::size_t servers = 4) {
    net::NetworkConfig cfg;
    cfg.node_count = 4;
    net = std::make_unique<net::Network>(
        simulator, cfg,
        std::make_unique<net::RandomWaypoint>(
            util::Rect{0, 0, 1000, 1000}, speed),
        util::Rng(11), 1000.0);
    LocationServiceConfig lcfg;
    lcfg.server_count = servers;
    lcfg.update_period_s = 1.0;
    service = std::make_unique<LocationService>(*net, lcfg, 1000.0);
  }
  sim::Simulator simulator;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<LocationService> service;
};

TEST(LocationService, QueryReturnsIdentityMaterial) {
  Fixture f;
  const auto rec = f.service->query(0, 1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->pubkey.n, f.net->node(1).public_key().n);
  EXPECT_EQ(rec->pseudonym, f.net->node(1).pseudonym());
}

TEST(LocationService, PositionTracksNodeWithinUpdatePeriod) {
  Fixture f(/*speed=*/10.0);
  f.simulator.run_until(10.0);
  const auto rec = f.service->query(0, 1);
  ASSERT_TRUE(rec.has_value());
  const double staleness =
      util::distance(rec->position, f.net->node(1).position(10.0));
  EXPECT_LE(staleness, 10.0 * 1.0 + 1e-9);  // at most one period of motion
}

TEST(LocationService, FreezeStopsPositionUpdates) {
  Fixture f(/*speed=*/10.0);
  f.simulator.run_until(1.5);
  const auto before = f.service->query(0, 1);
  f.service->freeze_updates();
  EXPECT_TRUE(f.service->frozen());
  f.simulator.run_until(50.0);
  const auto after = f.service->query(0, 1);
  ASSERT_TRUE(before && after);
  EXPECT_EQ(before->position, after->position);
  // The node itself kept moving.
  EXPECT_GT(util::distance(after->position, f.net->node(1).position(50.0)),
            50.0);
}

TEST(LocationService, UnfreezeResumesUpdates) {
  Fixture f(/*speed=*/10.0);
  f.service->freeze_updates();
  f.simulator.run_until(20.0);
  f.service->unfreeze_updates();
  f.simulator.run_until(25.0);
  const auto rec = f.service->query(0, 1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_LE(util::distance(rec->position, f.net->node(1).position(25.0)),
            10.0 + 1e-9);
}

TEST(LocationService, FrozenServiceStillServesIdentityMaterial) {
  Fixture f;
  f.service->freeze_updates();
  f.net->rotate_pseudonym(f.net->node(1));
  f.simulator.run_until(2.0);
  const auto rec = f.service->query(0, 1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->pseudonym, f.net->node(1).pseudonym());
}

TEST(LocationService, SurvivesServerFailuresUntilLastReplica) {
  Fixture f(2.0, /*servers=*/3);
  f.service->fail_server(0);
  f.service->fail_server(1);
  EXPECT_EQ(f.service->alive_servers(), 1u);
  EXPECT_TRUE(f.service->query(0, 1).has_value());
  f.service->fail_server(2);
  EXPECT_FALSE(f.service->query(0, 1).has_value());
  f.service->restore_server(1);
  EXPECT_TRUE(f.service->query(0, 1).has_value());
}

TEST(LocationService, MessageCountersGrow) {
  Fixture f;
  f.simulator.run_until(10.0);
  // 4 nodes updating every second for 10 s (plus the initial push).
  EXPECT_GE(f.service->update_messages(), 40u);
  EXPECT_GT(f.service->inter_server_messages(), 0u);
  (void)f.service->query(0, 1);
  EXPECT_EQ(f.service->query_messages(), 1u);
}

TEST(LocationService, QueryCryptoCostPositive) {
  Fixture f;
  EXPECT_GT(f.service->query_crypto_cost_s(), 0.0);
}

TEST(LocationService, QueryUnknownTargetIsNull) {
  Fixture f;
  EXPECT_FALSE(f.service->query(0, 999).has_value());
}

}  // namespace
}  // namespace alert::loc
