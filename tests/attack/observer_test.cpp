// Unit tests for attack::PassiveObserver: which frames the eavesdropper's
// log keeps, and the fields each kept event carries. The hooks are driven
// directly with crafted frames so every recording rule is pinned on its
// own; one test runs real broadcasts through the channel.

#include "attack/observer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/mobility.hpp"
#include "sim/simulator.hpp"  // alert-lint: allow(module-layering) test drives the observer from a live channel

namespace alert::attack {
namespace {

/// Three nodes in a row 100 m apart, and one far outside radio range.
class ObserverTest : public ::testing::Test {
 protected:
  ObserverTest()
      : network_(simulator_, config(),
                 std::make_unique<net::StaticPlacement>(std::vector<util::Vec2>{
                     {0, 0}, {100, 0}, {200, 0}, {900, 900}}),
                 util::Rng(5), 10.0),
        observer_(network_) {}

  static net::NetworkConfig config() {
    net::NetworkConfig cfg;
    cfg.node_count = 4;
    return cfg;
  }

  net::Node& node(net::NodeId id) { return network_.node(id); }

  net::Packet frame(net::PacketKind kind) {
    net::Packet pkt;
    pkt.kind = kind;
    pkt.src_pseudonym = 0xABCD;
    pkt.uid = 42;
    pkt.flow = 3;
    pkt.seq = 7;
    pkt.true_source = 0;
    pkt.true_dest = 2;
    pkt.size_bytes = 64;
    return pkt;
  }

  /// A destination-zone broadcast whose zone holds node 1 but not node 2,
  /// multicast to node 1 only.
  net::Packet zone_frame(net::PacketKind kind) {
    net::Packet pkt = frame(kind);
    pkt.alert.emplace();
    pkt.alert->in_dest_zone_phase = true;
    pkt.alert->dest_zone = util::Rect{50, -50, 150, 50};
    pkt.alert->multicast_set = {node(1).pseudonym()};
    return pkt;
  }

  sim::Simulator simulator_;
  net::Network network_;
  PassiveObserver observer_;
};

TEST_F(ObserverTest, RecordsDataTransmissionAndReception) {
  const net::Packet pkt = frame(net::PacketKind::Data);
  observer_.on_transmit(node(0), pkt, 1.0);
  observer_.on_deliver(node(1), pkt, 1.5);
  const auto& ev = observer_.events();
  ASSERT_EQ(ev.size(), 2u);

  EXPECT_EQ(ev[0].kind, EventKind::Transmit);
  EXPECT_DOUBLE_EQ(ev[0].time, 1.0);
  EXPECT_EQ(ev[0].node, 0u);
  EXPECT_EQ(ev[0].pseudonym, 0xABCDu);  // the header's P_S
  EXPECT_EQ(ev[1].kind, EventKind::Receive);
  EXPECT_DOUBLE_EQ(ev[1].time, 1.5);
  EXPECT_EQ(ev[1].node, 1u);
  EXPECT_EQ(ev[1].pseudonym, node(1).pseudonym());  // the receiver's own
  for (const ObservedEvent& e : ev) {
    EXPECT_EQ(e.packet_kind, net::PacketKind::Data);
    EXPECT_EQ(e.uid, 42u);
    EXPECT_EQ(e.flow, 3u);
    EXPECT_EQ(e.seq, 7u);
    EXPECT_FALSE(e.zone_broadcast);
    EXPECT_FALSE(e.second_step);
    EXPECT_FALSE(e.in_dest_zone);
    EXPECT_TRUE(e.addressed);
    EXPECT_EQ(e.true_source, 0u);
    EXPECT_EQ(e.true_dest, 2u);
  }
}

TEST_F(ObserverTest, ZoneBroadcastReceptionsCarryZoneAndAddressing) {
  for (const net::PacketKind kind :
       {net::PacketKind::Data, net::PacketKind::Confirm}) {
    observer_.clear();
    const net::Packet pkt = zone_frame(kind);
    observer_.on_transmit(node(0), pkt, 1.0);
    observer_.on_deliver(node(1), pkt, 1.1);  // in the zone, addressed
    observer_.on_deliver(node(2), pkt, 1.1);  // radio halo, overhears
    const auto& ev = observer_.events();
    ASSERT_EQ(ev.size(), 3u);
    for (const ObservedEvent& e : ev) {
      EXPECT_EQ(e.packet_kind, kind);
      EXPECT_TRUE(e.zone_broadcast);
      EXPECT_FALSE(e.second_step);
    }
    // Zone membership and addressing are receiver-side facts only.
    EXPECT_EQ(ev[0].kind, EventKind::Transmit);
    EXPECT_FALSE(ev[0].in_dest_zone);
    EXPECT_TRUE(ev[0].addressed);
    EXPECT_TRUE(ev[1].in_dest_zone);
    EXPECT_TRUE(ev[1].addressed);
    EXPECT_FALSE(ev[2].in_dest_zone);
    EXPECT_FALSE(ev[2].addressed);
  }
}

TEST_F(ObserverTest, ZoneBroadcastWithoutMulticastSetAddressesEveryone) {
  net::Packet pkt = zone_frame(net::PacketKind::Data);
  pkt.alert->multicast_set.clear();
  observer_.on_deliver(node(2), pkt, 1.0);
  ASSERT_EQ(observer_.events().size(), 1u);
  EXPECT_FALSE(observer_.events()[0].in_dest_zone);
  EXPECT_TRUE(observer_.events()[0].addressed);
}

TEST_F(ObserverTest, SecondStepRebroadcastIsFlagged) {
  net::Packet pkt = zone_frame(net::PacketKind::Data);
  pkt.alert->countermeasure_second_step = true;
  observer_.on_transmit(node(1), pkt, 2.0);
  observer_.on_deliver(node(0), pkt, 2.1);
  const auto& ev = observer_.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_TRUE(ev[0].second_step);
  EXPECT_TRUE(ev[1].second_step);
}

TEST_F(ObserverTest, RecordsCoverTransmissionsButNotReceptions) {
  const net::Packet cover = frame(net::PacketKind::Cover);
  observer_.on_transmit(node(1), cover, 3.0);
  observer_.on_deliver(node(0), cover, 3.1);
  observer_.on_deliver(node(2), cover, 3.1);
  ASSERT_EQ(observer_.events().size(), 1u);
  EXPECT_EQ(observer_.events()[0].kind, EventKind::Transmit);
  EXPECT_EQ(observer_.events()[0].packet_kind, net::PacketKind::Cover);
  EXPECT_EQ(observer_.events()[0].node, 1u);
}

TEST_F(ObserverTest, IgnoresHellos) {
  const net::Packet hello = frame(net::PacketKind::Hello);
  observer_.on_transmit(node(0), hello, 1.0);
  observer_.on_deliver(node(1), hello, 1.1);
  EXPECT_TRUE(observer_.events().empty());
}

TEST_F(ObserverTest, VicinityBoundsWhatIsRecorded) {
  observer_.set_vicinity({{0, 0}}, 150.0);  // covers nodes 0 and 1
  const net::Packet pkt = frame(net::PacketKind::Data);
  observer_.on_transmit(node(0), pkt, 1.0);
  observer_.on_deliver(node(1), pkt, 1.1);
  observer_.on_deliver(node(2), pkt, 1.1);
  observer_.on_transmit(node(3), pkt, 1.2);
  const auto& ev = observer_.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].node, 0u);
  EXPECT_EQ(ev[1].node, 1u);
}

TEST_F(ObserverTest, LiveBroadcastsLogCoverOnlyOnTheAir) {
  network_.add_listener(&observer_);
  network_.broadcast(node(1), frame(net::PacketKind::Data));
  network_.broadcast(node(1), frame(net::PacketKind::Cover));
  simulator_.run_until(5.0);

  int data_tx = 0, data_rx = 0, cover_tx = 0, other = 0;
  for (const ObservedEvent& e : observer_.events()) {
    const bool tx = e.kind == EventKind::Transmit;
    if (e.packet_kind == net::PacketKind::Data) {
      (tx ? data_tx : data_rx) += 1;
    } else if (e.packet_kind == net::PacketKind::Cover && tx) {
      ++cover_tx;
    } else {
      ++other;
    }
  }
  EXPECT_EQ(data_tx, 1);
  EXPECT_EQ(data_rx, 2);  // nodes 0 and 2; node 3 is out of range
  EXPECT_EQ(cover_tx, 1);
  EXPECT_EQ(other, 0);  // no cover receptions, no hellos
}

}  // namespace
}  // namespace alert::attack
