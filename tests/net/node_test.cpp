#include "net/node.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/rng.hpp"

namespace alert::net {
namespace {

Node make_node(NodeId id = 0) {
  util::Rng rng(id + 1);
  return Node(id, 0x020000000000ULL + id, crypto::generate_keypair(rng));
}

TEST(Node, IdentityAccessors) {
  const Node n = make_node(7);
  EXPECT_EQ(n.id(), 7u);
  EXPECT_EQ(n.mac_address(), 0x020000000007ULL);
  EXPECT_EQ(n.public_key().n, n.private_key().n());
}

TEST(Node, PositionInterpolatesAlongSegment) {
  Node n = make_node();
  n.set_motion({0.0, 0.0}, 0.0, {1.0, 2.0}, 10.0);
  EXPECT_EQ(n.position(0.0), util::Vec2(0.0, 0.0));
  EXPECT_EQ(n.position(3.0), util::Vec2(3.0, 6.0));
  EXPECT_EQ(n.position(10.0), util::Vec2(10.0, 20.0));
}

TEST(Node, PositionHoldsAfterSegmentEnd) {
  Node n = make_node();
  n.set_motion({0.0, 0.0}, 0.0, {1.0, 0.0}, 5.0);
  EXPECT_EQ(n.position(100.0), util::Vec2(5.0, 0.0));
}

TEST(Node, PositionClampedBeforeSegmentStart) {
  Node n = make_node();
  n.set_motion({2.0, 2.0}, 5.0, {1.0, 0.0}, 10.0);
  EXPECT_EQ(n.position(0.0), util::Vec2(2.0, 2.0));
}

TEST(Node, ObserveNeighborInsertsAndUpdates) {
  Node n = make_node();
  NeighborInfo info{111, {5.0, 5.0}, {}, 0.0};
  n.observe_neighbor(info, 1.0);
  ASSERT_EQ(n.neighbors().size(), 1u);
  EXPECT_EQ(n.neighbors()[0].last_heard, 1.0);

  info.position = {6.0, 6.0};
  n.observe_neighbor(info, 2.0);
  ASSERT_EQ(n.neighbors().size(), 1u);  // updated, not duplicated
  EXPECT_EQ(n.neighbors()[0].position, util::Vec2(6.0, 6.0));
  EXPECT_EQ(n.neighbors()[0].last_heard, 2.0);
}

TEST(Node, ExpireNeighborsDropsStaleEntries) {
  Node n = make_node();
  n.observe_neighbor({1, {0, 0}, {}, 0.0}, 0.0);
  n.observe_neighbor({2, {0, 0}, {}, 0.0}, 2.0);
  n.expire_neighbors(2.4, 2.5);
  ASSERT_EQ(n.neighbors().size(), 2u);
  n.expire_neighbors(4.0, 2.5);
  ASSERT_EQ(n.neighbors().size(), 1u);
  EXPECT_EQ(n.neighbors()[0].pseudonym, 2u);
}

TEST(Node, ExpireNeighborsReturnsOldestRemaining) {
  constexpr sim::Time kNone = std::numeric_limits<sim::Time>::infinity();
  Node n = make_node();
  n.observe_neighbor({1, {0, 0}, {}, 0.0}, 0.5);
  n.observe_neighbor({2, {0, 0}, {}, 0.0}, 2.0);
  n.observe_neighbor({3, {0, 0}, {}, 0.0}, 1.5);
  // Mixed ages: entry 1 (3.0 s old) goes; of the survivors, 3 is oldest.
  EXPECT_EQ(n.expire_neighbors(3.5, 2.5), 1.5);
  ASSERT_EQ(n.neighbors().size(), 2u);
  // Every entry expired: no survivor bounds the next pass.
  EXPECT_EQ(n.expire_neighbors(10.0, 2.5), kNone);
  EXPECT_TRUE(n.neighbors().empty());
  // An empty table stays empty and still reports no survivor.
  EXPECT_EQ(n.expire_neighbors(11.0, 2.5), kNone);
  EXPECT_TRUE(n.neighbors().empty());
}

TEST(Node, FindNeighborByPseudonym) {
  Node n = make_node();
  n.observe_neighbor({42, {1, 1}, {}, 0.0}, 0.0);
  EXPECT_NE(n.find_neighbor(42), nullptr);
  EXPECT_EQ(n.find_neighbor(43), nullptr);
}

}  // namespace
}  // namespace alert::net
