#include "net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/mac.hpp"
#include "sim/simulator.hpp"

namespace alert::net {
namespace {

/// Records every frame a node's handler sees.
class Recorder final : public PacketHandler {
 public:
  void handle(Node& self, const Packet& pkt) override {
    received.push_back({self.id(), pkt});
  }
  std::vector<std::pair<NodeId, Packet>> received;
};

class CountingListener final : public TraceListener {
 public:
  void on_transmit(const Node&, const Packet& pkt, sim::Time) override {
    if (pkt.kind != PacketKind::Hello) ++transmits;
  }
  void on_deliver(const Node&, const Packet& pkt, sim::Time) override {
    if (pkt.kind != PacketKind::Hello) ++delivers;
  }
  void on_drop(const Node&, const Packet&, sim::Time, DropReason r) override {
    ++drops;
    last_reason = r;
  }
  int transmits = 0, delivers = 0, drops = 0;
  DropReason last_reason{};
};

struct Fixture {
  Fixture(std::vector<util::Vec2> positions, double range = 250.0) {
    NetworkConfig cfg;
    cfg.field = {0.0, 0.0, 1000.0, 1000.0};
    cfg.node_count = positions.size();
    cfg.radio_range_m = range;
    net = std::make_unique<Network>(
        simulator, cfg,
        std::make_unique<StaticPlacement>(std::move(positions)),
        util::Rng(99), /*horizon=*/1000.0);
  }
  sim::Simulator simulator;
  std::unique_ptr<Network> net;
};

TEST(Network, BuildsRequestedNodeCount) {
  Fixture f({{0, 0}, {100, 0}, {200, 0}});
  EXPECT_EQ(f.net->size(), 3u);
}

TEST(Network, NodesHaveDistinctKeysAndPseudonyms) {
  Fixture f({{0, 0}, {100, 0}, {200, 0}});
  EXPECT_NE(f.net->node(0).public_key().n, f.net->node(1).public_key().n);
  EXPECT_NE(f.net->node(0).pseudonym(), f.net->node(1).pseudonym());
}

TEST(Network, PseudonymRegistryResolves) {
  Fixture f({{0, 0}, {100, 0}});
  EXPECT_EQ(f.net->resolve_pseudonym(f.net->node(0).pseudonym()), 0u);
  EXPECT_EQ(f.net->resolve_pseudonym(f.net->node(1).pseudonym()), 1u);
  EXPECT_EQ(f.net->resolve_pseudonym(0xDEAD), kInvalidNode);
}

TEST(Network, RotationKeepsOldPseudonymResolvable) {
  Fixture f({{0, 0}});
  const Pseudonym old = f.net->node(0).pseudonym();
  f.net->rotate_pseudonym(f.net->node(0));
  EXPECT_NE(f.net->node(0).pseudonym(), old);
  EXPECT_EQ(f.net->resolve_pseudonym(old), 0u);
  EXPECT_EQ(f.net->resolve_pseudonym(f.net->node(0).pseudonym()), 0u);
}

TEST(Network, NodesWithinRadius) {
  Fixture f({{0, 0}, {100, 0}, {600, 0}});
  const auto near = f.net->nodes_within({0, 0}, 250.0, 0.0);
  EXPECT_EQ(near.size(), 2u);  // self + the 100 m node
}

TEST(Network, HelloBeaconsPopulateNeighborTables) {
  Fixture f({{0, 0}, {100, 0}, {600, 0}});
  f.simulator.run_until(3.0);
  // Nodes 0 and 1 are in range of each other; node 2 is isolated.
  EXPECT_EQ(f.net->node(0).neighbors().size(), 1u);
  EXPECT_EQ(f.net->node(1).neighbors().size(), 1u);
  EXPECT_TRUE(f.net->node(2).neighbors().empty());
  EXPECT_EQ(f.net->node(0).neighbors()[0].position, util::Vec2(100, 0));
}

TEST(Network, HelloCarriesPublicKey) {
  Fixture f({{0, 0}, {100, 0}});
  f.simulator.run_until(3.0);
  ASSERT_FALSE(f.net->node(0).neighbors().empty());
  EXPECT_EQ(f.net->node(0).neighbors()[0].pubkey.n,
            f.net->node(1).public_key().n);
}

TEST(Network, UnicastDeliversToHandlerInRange) {
  Fixture f({{0, 0}, {100, 0}});
  Recorder rec;
  f.net->attach_handler(1, &rec);
  Packet pkt;
  pkt.kind = PacketKind::Data;
  pkt.size_bytes = 512;
  pkt.flow = 3;
  f.net->unicast(f.net->node(0), f.net->node(1).pseudonym(), pkt);
  f.simulator.run_until(1.0);
  ASSERT_EQ(rec.received.size(), 1u);
  EXPECT_EQ(rec.received[0].first, 1u);
  EXPECT_EQ(rec.received[0].second.flow, 3u);
  EXPECT_EQ(rec.received[0].second.prev_hop, 0u);
}

TEST(Network, UnicastOutOfRangeDropsWithReason) {
  Fixture f({{0, 0}, {900, 0}});
  Recorder rec;
  CountingListener listener;
  f.net->attach_handler(1, &rec);
  f.net->add_listener(&listener);
  Packet pkt;
  pkt.size_bytes = 512;
  f.net->unicast(f.net->node(0), f.net->node(1).pseudonym(), pkt);
  f.simulator.run_until(1.0);
  EXPECT_TRUE(rec.received.empty());
  EXPECT_EQ(listener.drops, 1);
  EXPECT_EQ(listener.last_reason, DropReason::OutOfRange);
}

TEST(Network, UnicastToUnknownPseudonymDrops) {
  Fixture f({{0, 0}});
  CountingListener listener;
  f.net->add_listener(&listener);
  Packet pkt;
  pkt.size_bytes = 64;
  f.net->unicast(f.net->node(0), 0xBEEF, pkt);
  f.simulator.run_until(1.0);
  EXPECT_EQ(listener.drops, 1);
}

TEST(Network, BroadcastReachesAllInRangeExceptSender) {
  Fixture f({{0, 0}, {100, 0}, {200, 0}, {600, 0}});
  Recorder r1, r2, r3;
  f.net->attach_handler(1, &r1);
  f.net->attach_handler(2, &r2);
  f.net->attach_handler(3, &r3);
  Packet pkt;
  pkt.kind = PacketKind::Data;
  pkt.size_bytes = 128;
  f.net->broadcast(f.net->node(0), pkt);
  f.simulator.run_until(1.0);
  EXPECT_EQ(r1.received.size(), 1u);
  EXPECT_EQ(r2.received.size(), 1u);
  EXPECT_TRUE(r3.received.empty());  // 600 m away
}

TEST(Network, TransmissionTimeScalesWithSize) {
  Fixture f({{0, 0}, {100, 0}});
  Recorder rec;
  f.net->attach_handler(1, &rec);
  Packet small, large;
  small.size_bytes = 64;
  large.size_bytes = 2048;
  // Send both from the same node; MAC serializes them.
  f.net->unicast(f.net->node(0), f.net->node(1).pseudonym(), small);
  const double t_small = f.net->node(0).mac_busy_until;
  f.net->unicast(f.net->node(0), f.net->node(1).pseudonym(), large);
  const double t_large = f.net->node(0).mac_busy_until;
  EXPECT_GT(t_large - t_small, (2048.0 - 64.0) * 8.0 / 2e6 * 0.9);
  f.simulator.run_until(1.0);
  EXPECT_EQ(rec.received.size(), 2u);
}

TEST(Network, ProcessingDelayDefersTransmission) {
  Fixture f({{0, 0}, {100, 0}});
  Recorder rec;
  f.net->attach_handler(1, &rec);
  Packet pkt;
  pkt.size_bytes = 64;
  f.net->unicast(f.net->node(0), f.net->node(1).pseudonym(), pkt, 0.25);
  f.simulator.run_until(0.2);
  EXPECT_TRUE(rec.received.empty());
  f.simulator.run_until(1.0);
  EXPECT_EQ(rec.received.size(), 1u);
}

TEST(Network, ListenersSeeTransmitAndDeliver) {
  Fixture f({{0, 0}, {100, 0}});
  CountingListener listener;
  Recorder rec;
  f.net->add_listener(&listener);
  f.net->attach_handler(1, &rec);
  Packet pkt;
  pkt.kind = PacketKind::Data;
  pkt.size_bytes = 64;
  f.net->unicast(f.net->node(0), f.net->node(1).pseudonym(), pkt);
  f.simulator.run_until(1.0);
  EXPECT_EQ(listener.transmits, 1);
  EXPECT_EQ(listener.delivers, 1);
}

TEST(Network, HelloCountAccumulates) {
  Fixture f({{0, 0}, {100, 0}});
  f.simulator.run_until(5.0);
  // Two nodes beaconing every second for 5 s, phases in [0,1).
  EXPECT_GE(f.net->hello_count(), 8u);
  EXPECT_LE(f.net->hello_count(), 12u);
}

TEST(Network, MovingReceiverEscapesUnicast) {
  // Receiver starts in range but moves out before frame delivery when the
  // sender is busy long enough.
  NetworkConfig cfg;
  cfg.node_count = 2;
  cfg.radio_range_m = 100.0;
  sim::Simulator simulator;
  Network net(simulator, cfg,
              std::make_unique<StaticPlacement>(
                  std::vector<util::Vec2>{{0, 0}, {99, 0}}),
              util::Rng(5), 1000.0);
  // Teleport-like fast motion: the receiver races away at 1 km/s.
  net.node(1).set_motion({99, 0}, 0.0, {1000.0, 0.0}, 10.0);
  CountingListener listener;
  net.add_listener(&listener);
  Packet pkt;
  pkt.size_bytes = 512;
  net.unicast(net.node(0), net.node(1).pseudonym(), pkt, /*delay=*/0.05);
  simulator.run_until(1.0);
  EXPECT_EQ(listener.drops, 1);
  EXPECT_EQ(listener.last_reason, DropReason::OutOfRange);
}

TEST(Network, PseudonymResolutionMatchesFullScan) {
  // Pins the hash-map fast path of resolve_pseudonym to the obvious O(N)
  // definition — for every node's current pseudonym, before and after
  // rotations (which retire the old mapping into the grace registry).
  sim::Simulator simulator;
  NetworkConfig cfg;
  cfg.node_count = 40;
  Network net(simulator, cfg, std::make_unique<StaticPlacement>(cfg.field),
              util::Rng(21), 1000.0);
  const auto check_all = [&net] {
    for (NodeId id = 0; id < net.size(); ++id) {
      const Pseudonym p = net.node(id).pseudonym();
      NodeId scanned = kInvalidNode;
      for (NodeId j = 0; j < net.size(); ++j) {
        if (net.node(j).pseudonym() == p) {
          scanned = j;
          break;
        }
      }
      ASSERT_EQ(scanned, id);
      EXPECT_EQ(net.resolve_pseudonym(p), id);
    }
  };
  check_all();
  std::vector<Pseudonym> old;
  for (NodeId id = 0; id < net.size(); ++id) {
    old.push_back(net.node(id).pseudonym());
    net.rotate_pseudonym(net.node(id));
  }
  check_all();
  // Retired pseudonyms still resolve (grace period for in-flight frames).
  for (NodeId id = 0; id < net.size(); ++id) {
    EXPECT_EQ(net.resolve_pseudonym(old[id]), id);
  }
  EXPECT_EQ(net.resolve_pseudonym(0xFFFFFFFFDEADULL), kInvalidNode);
}

TEST(Network, SilentNeighbourExpiresAtFirstHelloPastMaxAge) {
  // Three nodes in a line, all in range. Node 2 falls silent at t = 3 s;
  // node 1 keeps hearing node 0, and each of those hellos is its chance to
  // expire node 2. Node 2's entry must go at the first hello more than
  // neighbor_max_age_s after node 2's last one, and not before: expiry on
  // demand keeps exactly the table an expiry pass on every hello keeps.
  sim::Simulator simulator;
  NetworkConfig cfg;
  cfg.node_count = 3;
  cfg.pseudonym_period_s = 1.0e6;  // node 2 keeps the pseudonym it beacons
  Network net(simulator, cfg,
              std::make_unique<StaticPlacement>(
                  std::vector<util::Vec2>{{0, 0}, {100, 0}, {200, 0}}),
              util::Rng(99), 1000.0);
  simulator.run_until(3.0);
  net.set_node_alive(2, false);
  const Node& listener = net.node(1);
  const Pseudonym silent = net.node(2).pseudonym();
  const NeighborInfo* entry = listener.find_neighbor(silent);
  ASSERT_NE(entry, nullptr);
  const sim::Time last = entry->last_heard;
  bool expired = false;
  for (int step = 1; step <= 500; ++step) {
    const sim::Time t = 3.0 + 0.01 * step;
    simulator.run_until(t);
    sim::Time newest = 0.0;
    for (const NeighborInfo& n : listener.neighbors()) {
      newest = std::max(newest, n.last_heard);
    }
    entry = listener.find_neighbor(silent);
    ASSERT_EQ(entry != nullptr, newest - last <= cfg.neighbor_max_age_s)
        << "t = " << t << ", newest hello " << newest << ", node 2 last "
        << last;
    if (entry != nullptr) {
      EXPECT_EQ(entry->last_heard, last);
    }
    expired = expired || entry == nullptr;
  }
  EXPECT_TRUE(expired);
}

TEST(Network, FieldGeometrySelectsGridOrScan) {
  // Range-sized cells per field: the paper's 4x4 = 16 stays on the scan;
  // 6x6 = 36 and the 10k-node arena's 29x29 = 841 take the grid.
  EXPECT_FALSE(Network::selects_grid({0.0, 0.0, 1000.0, 1000.0}, 250.0));
  EXPECT_TRUE(Network::selects_grid({0.0, 0.0, 1500.0, 1500.0}, 250.0));
  EXPECT_TRUE(Network::selects_grid({0.0, 0.0, 7071.0, 7071.0}, 250.0));
  // Non-square fields count cells, not the longer side: 8x4 = 32 scans,
  // 9x4 = 36 takes the grid.
  EXPECT_FALSE(Network::selects_grid({0.0, 0.0, 2000.0, 1000.0}, 250.0));
  EXPECT_TRUE(Network::selects_grid({0.0, 0.0, 2250.0, 1000.0}, 250.0));
}

TEST(Network, GridNeighbourQueriesMatchLinearScan) {
  // On a grid-selecting field at paper density (200 nodes / km^2),
  // nodes_within must equal a brute-force scan of node positions at times
  // between waypoint events, for both moving mobility models.
  NetworkConfig cfg;
  cfg.field = {0.0, 0.0, 1500.0, 1500.0};
  cfg.node_count = 450;
  ASSERT_TRUE(Network::selects_grid(cfg.field, cfg.radio_range_m));
  for (const bool group : {false, true}) {
    SCOPED_TRACE(group ? "group mobility" : "random waypoint");
    std::unique_ptr<MobilityModel> mobility;
    if (group) {
      mobility = std::make_unique<GroupMobility>(cfg.field, 8.0, 10, 150.0);
    } else {
      mobility = std::make_unique<RandomWaypoint>(cfg.field, 20.0);
    }
    sim::Simulator simulator;
    Network net(simulator, cfg, std::move(mobility), util::Rng(77),
                /*horizon=*/50.0);
    util::Rng centers(123);
    for (double t = 0.37; t <= 40.0; t += 5.0) {
      simulator.run_until(t);
      for (int q = 0; q < 20; ++q) {
        const util::Vec2 c = centers.point_in(cfg.field);
        const double r = centers.uniform(50.0, 400.0);
        std::vector<NodeId> scan;
        for (NodeId id = 0; id < net.size(); ++id) {
          if (util::distance_sq(net.node(id).position(t), c) <= r * r) {
            scan.push_back(id);
          }
        }
        EXPECT_EQ(net.nodes_within(c, r, t), scan) << "t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace alert::net
