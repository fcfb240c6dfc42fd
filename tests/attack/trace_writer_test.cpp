#include "attack/trace_writer.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "net/mobility.hpp"
#include "sim/simulator.hpp"  // alert-lint: allow(module-layering) test replays traces through a live simulator
#include "temp_dir.hpp"

namespace alert::attack {
namespace {

/// A trace file in a private directory, so concurrently running cases never
/// write the same file.
struct TempPath {
  test_support::TempDir dir{"alertsim-trace-writer-test-"};
  std::string path = dir.file("trace.jsonl");
};

TEST(TraceWriter, PacketKindTokens) {
  EXPECT_STREQ(packet_kind_token(net::PacketKind::Data), "data");
  EXPECT_STREQ(packet_kind_token(net::PacketKind::Cover), "cover");
  EXPECT_STREQ(packet_kind_token(net::PacketKind::Hello), "hello");
}

TEST(TraceWriter, OpenFailureThrows) {
  EXPECT_THROW(JsonlTraceWriter("/nonexistent-dir/x/y.jsonl"),
               std::runtime_error);
}

TEST(TraceWriter, RecordsTransmitReceiveAndDrop) {
  TempPath tmp;
  sim::Simulator simulator;
  net::NetworkConfig cfg;
  cfg.node_count = 3;
  net::Network network(
      simulator, cfg,
      std::make_unique<net::StaticPlacement>(
          std::vector<util::Vec2>{{0, 0}, {100, 0}, {900, 900}}),
      util::Rng(3), 10.0);
  JsonlTraceWriter writer(tmp.path);
  network.add_listener(&writer);

  net::Packet pkt;
  pkt.kind = net::PacketKind::Data;
  pkt.size_bytes = 64;
  pkt.flow = 7;
  network.unicast(network.node(0), network.node(1).pseudonym(), pkt);
  // A drop: unicast to the isolated node.
  network.unicast(network.node(0), network.node(2).pseudonym(), pkt);
  simulator.run_until(5.0);
  writer.flush();
  EXPECT_GE(writer.events_written(), 3u);  // tx, rx, tx, drop (+ hellos)

  std::ifstream in(tmp.path);
  std::string line;
  int tx = 0, rx = 0, drop = 0, data_lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"event\":\"tx\"") != std::string::npos) ++tx;
    if (line.find("\"event\":\"rx\"") != std::string::npos) ++rx;
    if (line.find("\"event\":\"drop\"") != std::string::npos) ++drop;
    if (line.find("\"pkt\":\"data\"") != std::string::npos) ++data_lines;
    if (line.find("\"flow\":7") != std::string::npos) {
      EXPECT_NE(line.find("\"bytes\":64"), std::string::npos);
    }
  }
  EXPECT_GE(tx, 2);
  EXPECT_GE(rx, 1);
  // Two drops: out-of-range to the isolated node, and no_handler at the
  // receiver (no protocol attached in this raw-network test).
  EXPECT_EQ(drop, 2);
  EXPECT_GE(data_lines, 3);
}

TEST(TraceWriter, DropLineCarriesReason) {
  TempPath tmp;
  sim::Simulator simulator;
  net::NetworkConfig cfg;
  cfg.node_count = 2;
  net::Network network(
      simulator, cfg,
      std::make_unique<net::StaticPlacement>(
          std::vector<util::Vec2>{{0, 0}, {900, 900}}),
      util::Rng(4), 10.0);
  JsonlTraceWriter writer(tmp.path);
  network.add_listener(&writer);
  net::Packet pkt;
  pkt.size_bytes = 32;
  network.unicast(network.node(0), network.node(1).pseudonym(), pkt);
  simulator.run_until(2.0);
  writer.flush();

  std::ifstream in(tmp.path);
  std::stringstream all;
  all << in.rdbuf();
  EXPECT_NE(all.str().find("\"reason\":\"out_of_range\""),
            std::string::npos);
}

}  // namespace
}  // namespace alert::attack
