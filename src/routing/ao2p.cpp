#include "routing/ao2p.hpp"

namespace alert::routing {

Ao2pRouter::Ao2pRouter(net::Network& network, loc::LocationService& location,
                       Ao2pConfig config)
    : GeoRouter(network, location, "ao2p"), config_(config) {}

util::Vec2 Ao2pRouter::virtual_position(util::Vec2 src, util::Vec2 dst) const {
  const util::Vec2 dir = (dst - src).normalized();
  // Degenerate S == D: no direction; target D itself.
  if (dir.norm_sq() == 0.0) return dst;
  return net_.config().field.clamp(dst + dir * config_.virtual_extension_m);
}

void Ao2pRouter::send(net::NodeId src, net::NodeId dst,
                      std::size_t payload_bytes, std::uint32_t flow,
                      std::uint32_t seq) {
  ALERT_OBS_TIMED(profiler_, send_scope_);
  const auto record = loc_.query(src, dst);
  if (!record) return;

  net::Node& source = net_.node(src);
  net::Packet pkt = make_header(net::PacketKind::Data, source,
                                record->pseudonym, dst, flow, seq,
                                config_.max_hops);
  pkt.payload.assign(payload_bytes, 0);
  pkt.geo = net::GeoFields{};
  // The packet carries only the virtual position — never D's coordinates.
  pkt.geo->dest_pos =
      virtual_position(source.position(net_.now()), record->position);
  pkt.size_bytes = payload_bytes + header_bytes(pkt);

  ++stats_.data_sent;
  forward(source, std::move(pkt));
}

void Ao2pRouter::forward(net::Node& self, net::Packet pkt) {
  if (!take_hop(pkt)) return;

  // Contention phase (next-hop election among distance classes) plus
  // hop-by-hop public-key protection.
  const crypto::CostModel& cost = net_.config().crypto_cost;
  const double hop_delay = config_.contention_phase_s +
                           cost.public_encrypt_s + cost.verify_s;
  charge_crypto(self, cost.public_encrypt_s + cost.verify_s);

  const double delay = config_.per_hop_processing_s + hop_delay;
  const net::NodeId dest_id = net_.resolve_pseudonym(pkt.dst_pseudonym);
  // D is picked up en route when it becomes a neighbour of the holder.
  for (const auto& n : self.neighbors()) {
    if (net_.resolve_pseudonym(n.pseudonym) == dest_id) {
      forward_to(self, n, std::move(pkt), delay);
      return;
    }
  }
  const util::Vec2 target = pkt.geo->dest_pos;
  greedy_or_perimeter(self, std::move(pkt), target, delay);
}

}  // namespace alert::routing
