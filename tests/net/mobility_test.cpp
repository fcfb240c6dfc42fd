#include "net/mobility.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace alert::net {
namespace {

std::vector<Node> make_nodes(std::size_t count) {
  std::vector<Node> nodes;
  util::Rng keys(1);
  for (NodeId id = 0; id < count; ++id) {
    nodes.emplace_back(id, id, crypto::generate_keypair(keys));
  }
  return nodes;
}

/// Drive a node through the model for `duration`, following segment ends.
void advance(MobilityModel& model, Node& node, double duration,
             util::Rng& rng) {
  double t = 0.0;
  while (node.segment_end() < duration) {
    t = node.segment_end();
    model.next_segment(node, t, rng);
    ASSERT_GT(node.segment_end(), t) << "segment must make progress";
  }
}

class RwpSpeedSweep : public ::testing::TestWithParam<double> {};

TEST_P(RwpSpeedSweep, NodesStayInFieldAndMoveAtConfiguredSpeed) {
  const double speed = GetParam();
  const util::Rect field{0.0, 0.0, 1000.0, 1000.0};
  RandomWaypoint model(field, speed);
  auto nodes = make_nodes(10);
  util::Rng rng(3);
  model.initialize(nodes, rng);
  for (auto& n : nodes) {
    advance(model, n, 500.0, rng);
    for (double t = 0.0; t <= 500.0; t += 25.0) {
      EXPECT_TRUE(field.contains(n.position(t)))
          << "t=" << t << " pos=" << n.position(t).x;
    }
    if (speed > 0.0) {
      EXPECT_NEAR(n.velocity().norm(), speed, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Speeds, RwpSpeedSweep,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0));

TEST(RandomWaypoint, ZeroSpeedNodesNeverMove) {
  const util::Rect field{0.0, 0.0, 100.0, 100.0};
  RandomWaypoint model(field, 0.0);
  auto nodes = make_nodes(5);
  util::Rng rng(4);
  model.initialize(nodes, rng);
  for (auto& n : nodes) {
    EXPECT_EQ(n.position(0.0), n.position(1000.0));
  }
}

TEST(RandomWaypoint, PauseHoldsPositionBetweenLegs) {
  const util::Rect field{0.0, 0.0, 100.0, 100.0};
  RandomWaypoint model(field, 5.0, /*pause_s=*/2.0);
  auto nodes = make_nodes(1);
  util::Rng rng(5);
  model.initialize(nodes, rng);
  Node& n = nodes[0];
  // Finish the first leg; the next segment should be a pause.
  const double arrival = n.segment_end();
  model.next_segment(n, arrival, rng);
  EXPECT_DOUBLE_EQ(n.velocity().norm(), 0.0);
  EXPECT_DOUBLE_EQ(n.segment_end(), arrival + 2.0);
}

TEST(RandomWaypoint, TrajectoryIsContinuousAcrossSegments) {
  const util::Rect field{0.0, 0.0, 500.0, 500.0};
  RandomWaypoint model(field, 3.0);
  auto nodes = make_nodes(1);
  util::Rng rng(6);
  model.initialize(nodes, rng);
  Node& n = nodes[0];
  for (int i = 0; i < 20; ++i) {
    const double t_end = n.segment_end();
    const util::Vec2 before = n.position(t_end);
    model.next_segment(n, t_end, rng);
    EXPECT_NEAR(util::distance(before, n.position(t_end)), 0.0, 1e-9);
  }
}

TEST(GroupMobility, MembersStayNearReferencePoint) {
  const util::Rect field{0.0, 0.0, 1000.0, 1000.0};
  const double range = 150.0;
  GroupMobility model(field, 2.0, 10, range);
  auto nodes = make_nodes(50);
  util::Rng rng(7);
  model.initialize(nodes, rng);
  for (auto& n : nodes) {
    advance(model, n, 100.0, rng);
  }
  // After motion settles, members should be within range + slack of their
  // reference point (slack covers the lookahead chase distance).
  std::size_t near = 0, total = 0;
  for (auto& n : nodes) {
    const std::size_t g = n.id() % 10;
    const double d =
        util::distance(n.position(100.0), model.reference_point(g, 100.0));
    ++total;
    if (d <= range + 100.0) ++near;
  }
  EXPECT_GE(near, total * 8 / 10);
}

TEST(GroupMobility, NodesRemainInField) {
  const util::Rect field{0.0, 0.0, 1000.0, 1000.0};
  GroupMobility model(field, 4.0, 5, 200.0);
  auto nodes = make_nodes(20);
  util::Rng rng(8);
  model.initialize(nodes, rng);
  for (auto& n : nodes) {
    advance(model, n, 200.0, rng);
    for (double t = 0.0; t <= 200.0; t += 10.0) {
      EXPECT_TRUE(field.contains(n.position(t)));
    }
  }
}

TEST(GroupMobility, GroupsAreSpatiallyClustered) {
  const util::Rect field{0.0, 0.0, 1000.0, 1000.0};
  GroupMobility model(field, 2.0, 5, 150.0);
  auto nodes = make_nodes(50);
  util::Rng rng(9);
  model.initialize(nodes, rng);
  // Mean intra-group distance should be well below mean inter-group
  // distance at t = 0.
  double intra = 0.0, inter = 0.0;
  std::size_t n_intra = 0, n_inter = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const double d =
          util::distance(nodes[i].position(0.0), nodes[j].position(0.0));
      if (nodes[i].id() % 5 == nodes[j].id() % 5) {
        intra += d;
        ++n_intra;
      } else {
        inter += d;
        ++n_inter;
      }
    }
  }
  EXPECT_LT(intra / static_cast<double>(n_intra),
            inter / static_cast<double>(n_inter));
}

TEST(StaticPlacement, ExactPositionsRespected) {
  StaticPlacement model(std::vector<util::Vec2>{{1.0, 2.0}, {3.0, 4.0}});
  auto nodes = make_nodes(2);
  util::Rng rng(10);
  model.initialize(nodes, rng);
  EXPECT_EQ(nodes[0].position(50.0), util::Vec2(1.0, 2.0));
  EXPECT_EQ(nodes[1].position(50.0), util::Vec2(3.0, 4.0));
}

TEST(StaticPlacement, RandomPlacementInField) {
  const util::Rect field{10.0, 10.0, 20.0, 20.0};
  StaticPlacement model(field);
  auto nodes = make_nodes(20);
  util::Rng rng(11);
  model.initialize(nodes, rng);
  for (auto& n : nodes) {
    EXPECT_TRUE(field.contains(n.position(0.0)));
    EXPECT_EQ(n.position(0.0), n.position(999.0));
  }
}

}  // namespace
}  // namespace alert::net
