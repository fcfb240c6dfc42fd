#include "routing/alarm.hpp"

#include <cmath>

namespace alert::routing {

AlarmRouter::AlarmRouter(net::Network& network,
                         loc::LocationService& location, AlarmConfig config)
    : GeoRouter(network, location, "alarm"), config_(config) {
  map_.resize(net_.size());
  refresh_map();
  net_.simulator().schedule_periodic(config_.dissemination_period_s,
                                     config_.dissemination_period_s,
                                     [this] { refresh_map(); });
}

double AlarmRouter::network_hop_diameter() const {
  const util::Rect& f = net_.config().field;
  const double diagonal = std::hypot(f.width(), f.height());
  return std::ceil(diagonal / net_.config().radio_range_m);
}

void AlarmRouter::refresh_map() {
  const sim::Time now = net_.now();
  for (net::NodeId id = 0; id < net_.size(); ++id) {
    map_[id] = net_.node(id).position(now);
  }
  map_updated_at_ = now;
  // Dissemination traffic accounting: each node's LAM travels the network
  // hop-diameter to reach map users; the crypto of per-neighbour
  // authentication is charged to the crypto total.
  stats_.control_hops += static_cast<std::uint64_t>(
      static_cast<double>(net_.size()) * network_hop_diameter());
  // Every node signs its LAM and verifies its neighbours': charge each
  // node's meter individually (this is what drains ALARM's batteries).
  const double per_node = net_.config().crypto_cost.sign_s +
                          net_.config().crypto_cost.verify_s;
  for (net::NodeId id = 0; id < net_.size(); ++id) {
    charge_crypto(net_.node(id), per_node);
  }
}

sim::Time AlarmRouter::map_age() const {
  return net_.now() - map_updated_at_;
}

void AlarmRouter::send(net::NodeId src, net::NodeId dst,
                       std::size_t payload_bytes, std::uint32_t flow,
                       std::uint32_t seq) {
  ALERT_OBS_TIMED(profiler_, send_scope_);
  net::Node& source = net_.node(src);
  net::Packet pkt =
      make_header(net::PacketKind::Data, source, net_.node(dst).pseudonym(),
                  dst, flow, seq, config_.max_hops);
  pkt.payload.assign(payload_bytes, 0);
  pkt.geo = net::GeoFields{};
  pkt.geo->dest_pos = map_[dst];  // secure-map position, not loc service
  pkt.size_bytes = payload_bytes + header_bytes(pkt);

  ++stats_.data_sent;
  forward(source, std::move(pkt));
}

void AlarmRouter::forward(net::Node& self, net::Packet pkt) {
  if (!take_hop(pkt)) return;

  // Hop-by-hop public-key protection: the sender encrypts with its key and
  // the next hop verifies — this is the dominant latency term (Fig. 14).
  const crypto::CostModel& cost = net_.config().crypto_cost;
  const double hop_crypto = cost.public_encrypt_s + cost.verify_s;
  charge_crypto(self, hop_crypto);

  // Purely position-based forwarding over the secure map (as GPSR: the
  // destination receives only when greedy selection picks it), with
  // perimeter recovery on the planar graph.
  const util::Vec2 target = pkt.geo->dest_pos;
  greedy_or_perimeter(self, std::move(pkt), target,
                      config_.per_hop_processing_s + hop_crypto);
}

}  // namespace alert::routing
