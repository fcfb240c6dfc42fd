#include "routing/gpsr.hpp"

namespace alert::routing {

GpsrRouter::GpsrRouter(net::Network& network, loc::LocationService& location,
                       GpsrConfig config)
    : GeoRouter(network, location, "gpsr"), config_(config) {}

void GpsrRouter::send(net::NodeId src, net::NodeId dst,
                      std::size_t payload_bytes, std::uint32_t flow,
                      std::uint32_t seq) {
  ALERT_OBS_TIMED(profiler_, send_scope_);
  const auto record = loc_.query(src, dst);
  if (!record) return;  // location service entirely failed

  net::Node& source = net_.node(src);
  net::Packet pkt = make_header(net::PacketKind::Data, source,
                                record->pseudonym, dst, flow, seq,
                                config_.max_hops);
  pkt.payload.assign(payload_bytes, 0);
  pkt.geo = net::GeoFields{};
  pkt.geo->dest_pos = record->position;
  pkt.size_bytes = payload_bytes + header_bytes(pkt);

  ++stats_.data_sent;
  forward(source, std::move(pkt));
}

void GpsrRouter::forward(net::Node& self, net::Packet pkt) {
  if (!take_hop(pkt)) return;
  // Note: forwarding is purely position-based — a relay never "spots" the
  // destination in its table; D receives the packet only when greedy
  // selection toward the (possibly stale) destination position genuinely
  // picks it. This is what makes GPSR degrade without location updates
  // (Figs. 14b/15b/16b).
  const LegHop hop = gpsr_leg(self, pkt, config_.use_perimeter);
  if (hop.next == nullptr) return;
  forward_to(self, *hop.next, std::move(pkt), config_.per_hop_processing_s);
}

}  // namespace alert::routing
