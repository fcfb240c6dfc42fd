#include "routing/router.hpp"

#include "routing/geo_forwarding.hpp"

namespace alert::routing {

Protocol::Protocol(net::Network& network, loc::LocationService& location,
                   const char* proto)
    : net_(network),
      loc_(location),
      profiler_(network.simulator().profiler()) {
  if (profiler_ != nullptr) {
    send_scope_ = profiler_->scope(std::string("routing.") + proto + ".send");
    handle_scope_ =
        profiler_->scope(std::string("routing.") + proto + ".handle");
  }
  for (net::NodeId id = 0; id < net_.size(); ++id) {
    net_.attach_handler(id, this);
  }
}

net::Packet Protocol::make_header(net::PacketKind kind,
                                  const net::Node& from, net::Pseudonym to,
                                  net::NodeId true_dest, std::uint32_t flow,
                                  std::uint32_t seq, int max_hops) {
  net::Packet pkt;
  pkt.kind = kind;
  pkt.src_pseudonym = from.pseudonym();
  pkt.dst_pseudonym = to;
  pkt.flow = flow;
  pkt.seq = seq;
  pkt.hops_remaining = max_hops;
  pkt.uid = net_.next_uid();
  pkt.app_send_time = net_.now();
  pkt.first_send_time = net_.now();
  pkt.true_source = from.id();
  pkt.true_dest = true_dest;
  return pkt;
}

util::Vec2 Protocol::arrival_point(const net::Node& self,
                                   const net::Packet& pkt,
                                   util::Vec2 target) const {
  if (pkt.prev_hop == net::kInvalidNode || pkt.prev_hop == self.id()) {
    return target;
  }
  return net_.node(pkt.prev_hop).position(net_.now());
}

void Protocol::greedy_or_perimeter(net::Node& self, net::Packet pkt,
                                   util::Vec2 target, double delay) {
  const util::Vec2 self_pos = self.position(net_.now());
  const net::NeighborInfo* next = greedy_next_hop(self, self_pos, target);
  if (next == nullptr) {
    next = perimeter_next_hop(self, self_pos,
                              arrival_point(self, pkt, target));
  }
  if (next == nullptr) {
    drop(pkt);
    return;
  }
  forward_to(self, *next, std::move(pkt), delay);
}

Protocol::LegHop Protocol::gpsr_leg(net::Node& self, net::Packet& pkt,
                                    bool use_perimeter) {
  net::GeoFields& geo = *pkt.geo;
  const util::Vec2 self_pos = self.position(net_.now());
  // Perimeter-mode exit test (closer to the target than where greedy
  // failed).
  if (geo.perimeter_mode &&
      util::distance(self_pos, geo.dest_pos) <
          util::distance(geo.perimeter_entry, geo.dest_pos)) {
    geo.perimeter_mode = false;
  }
  if (!geo.perimeter_mode) {
    if (const auto* next = greedy_next_hop(self, self_pos, geo.dest_pos)) {
      return {next, true};
    }
    if (!use_perimeter) {
      drop(pkt);
      return {};
    }
    // Enter perimeter mode at this local maximum.
    geo.perimeter_mode = true;
    geo.perimeter_entry = self_pos;
    geo.perimeter_first_hop = net::kInvalidNode;
  }

  // Right-hand rule around the face from the edge we arrived on (or toward
  // the target when entering).
  const auto* next = perimeter_next_hop(
      self, self_pos, arrival_point(self, pkt, geo.dest_pos));
  if (next == nullptr) {
    drop(pkt);
    return {};
  }
  const net::NodeId next_id = net_.resolve_pseudonym(next->pseudonym);
  if (geo.perimeter_first_hop == net::kInvalidNode) {
    geo.perimeter_first_hop = next_id;
  } else if (next_id == geo.perimeter_first_hop) {
    drop(pkt);  // walked the whole face without getting closer: unreachable
    return {};
  }
  return {next, false};
}

void GeoRouter::handle(net::Node& self, const net::Packet& pkt) {
  ALERT_OBS_TIMED(profiler_, handle_scope_);
  if (pkt.kind != net::PacketKind::Data) return;
  if (net_.resolve_pseudonym(pkt.dst_pseudonym) == self.id()) {
    deliver(pkt);
    return;
  }
  forward(self, pkt);
}

bool GeoRouter::reroute_failed(net::Node& self, const net::Packet& pkt) {
  if (pkt.kind != net::PacketKind::Data || !pkt.geo) return false;
  forward(self, pkt);
  return true;
}

}  // namespace alert::routing
