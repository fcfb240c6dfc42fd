#include "routing/zap.hpp"

#include <algorithm>

namespace alert::routing {

ZapRouter::ZapRouter(net::Network& network, loc::LocationService& location,
                     ZapConfig config)
    : Protocol(network, location, "zap"),
      config_(config),
      rng_(network.rng().fork(0x5A9)) {}

util::Rect ZapRouter::cloak(util::Vec2 dest, util::Rng& rng) const {
  const double side = config_.zone_side_m;
  const util::Rect& field = net_.config().field;
  // D sits at a uniform position inside the zone, so the zone centre
  // reveals nothing about D's exact location.
  const double off_x = rng.uniform(0.0, side);
  const double off_y = rng.uniform(0.0, side);
  util::Vec2 min{dest.x - off_x, dest.y - off_y};
  // Clamp into the field while preserving the side length.
  min.x = std::clamp(min.x, field.min.x, field.max.x - side);
  min.y = std::clamp(min.y, field.min.y, field.max.y - side);
  return util::Rect{min, {min.x + side, min.y + side}};
}

void ZapRouter::send(net::NodeId src, net::NodeId dst,
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
  pkt.alert = net::AlertFields{};  // universal zone fields (see header)
  pkt.alert->dest_zone = cloak(record->position, rng_);
  pkt.alert->td = pkt.alert->dest_zone.center();
  pkt.size_bytes = payload_bytes + header_bytes(pkt);

  ++stats_.data_sent;
  forward(source, std::move(pkt));
}

void ZapRouter::handle(net::Node& self, const net::Packet& pkt) {
  ALERT_OBS_TIMED(profiler_, handle_scope_);
  if (pkt.kind != net::PacketKind::Data || !pkt.alert) return;
  if (pkt.alert->in_dest_zone_phase) {
    const util::Vec2 pos = self.position(net_.now());
    if (!pkt.alert->dest_zone.contains(pos)) return;  // overheard
    // D keeps rebroadcasting like every other zone member, or its silence
    // would single it out.
    accept_in_zone(self, pkt);
    if (config_.flood_rebroadcast && pkt.hops_remaining > 0 &&
        mark_flooded(self, pkt)) {
      net::Packet copy = pkt;
      --copy.hops_remaining;
      ++copy.hop_count;
      ++stats_.broadcasts;
      net_.broadcast(self, std::move(copy), config_.per_hop_processing_s);
    }
    return;
  }
  forward(self, pkt);
}

bool ZapRouter::reroute_failed(net::Node& self, const net::Packet& pkt) {
  // Unicasts only happen on the geo-forwarding leg toward the zone; the
  // in-zone phase is all broadcast and cannot reach here.
  if (pkt.kind != net::PacketKind::Data || !pkt.alert ||
      pkt.alert->in_dest_zone_phase) {
    return false;
  }
  forward(self, pkt);
  return true;
}

void ZapRouter::forward(net::Node& self, net::Packet pkt) {
  if (!take_hop(pkt)) return;
  if (pkt.alert->dest_zone.contains(self.position(net_.now()))) {
    zone_flood(self, std::move(pkt));
    return;
  }
  const util::Vec2 target = pkt.alert->td;
  greedy_or_perimeter(self, std::move(pkt), target,
                      config_.per_hop_processing_s);
}

void ZapRouter::zone_flood(net::Node& self, net::Packet pkt) {
  pkt.alert->in_dest_zone_phase = true;
  mark_flooded(self, pkt);
  ++stats_.broadcasts;
  net_.broadcast(self, pkt, config_.per_hop_processing_s);
  accept_in_zone(self, pkt);  // the entry holder may itself be D
}

bool ZapRouter::mark_flooded(const net::Node& self, const net::Packet& pkt) {
  return flooded_.insert(pkt.uid ^ (static_cast<std::uint64_t>(self.id())
                                    << 40))
      .second;
}

void ZapRouter::accept_in_zone(const net::Node& self,
                               const net::Packet& pkt) {
  if (net_.resolve_pseudonym(pkt.dst_pseudonym) == self.id() &&
      delivered_uids_.insert(pkt.uid).second) {
    deliver(pkt);
  }
}

}  // namespace alert::routing
