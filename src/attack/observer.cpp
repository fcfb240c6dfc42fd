#include "attack/observer.hpp"

#include <algorithm>

namespace alert::attack {

void PassiveObserver::set_vicinity(std::vector<util::Vec2> monitors,
                                   double radius_m) {
  monitors_ = std::move(monitors);
  vicinity_radius_ = radius_m;
}

bool PassiveObserver::in_vicinity(util::Vec2 pos) const {
  if (vicinity_radius_ <= 0.0 || monitors_.empty()) return true;
  for (const util::Vec2 m : monitors_) {
    if (util::distance(pos, m) <= vicinity_radius_) return true;
  }
  return false;
}

void PassiveObserver::record(EventKind kind, const net::Node& node,
                             const net::Packet& pkt, sim::Time when) {
  if (pkt.kind == net::PacketKind::Hello) return;
  if (!in_vicinity(node.position(when))) return;
  ObservedEvent e;
  e.kind = kind;
  e.time = when;
  e.node = node.id();
  e.pseudonym = kind == EventKind::Transmit ? pkt.src_pseudonym
                                            : node.pseudonym();
  e.packet_kind = pkt.kind;
  e.uid = pkt.uid;
  e.flow = pkt.flow;
  e.seq = pkt.seq;
  e.zone_broadcast = pkt.alert.has_value() && pkt.alert->in_dest_zone_phase;
  e.second_step =
      pkt.alert.has_value() && pkt.alert->countermeasure_second_step;
  if (kind == EventKind::Receive && e.zone_broadcast && pkt.alert) {
    e.in_dest_zone = pkt.alert->dest_zone.contains(node.position(when));
  }
  if (kind == EventKind::Receive && e.zone_broadcast && pkt.alert &&
      !pkt.alert->multicast_set.empty()) {
    e.addressed = std::find(pkt.alert->multicast_set.begin(),
                            pkt.alert->multicast_set.end(),
                            node.pseudonym()) !=
                  pkt.alert->multicast_set.end();
  }
  e.true_source = pkt.true_source;
  e.true_dest = pkt.true_dest;
  events_.push_back(e);
}

void PassiveObserver::on_transmit(const net::Node& sender,
                                  const net::Packet& pkt,
                                  sim::Time air_start) {
  record(EventKind::Transmit, sender, pkt, air_start);
}

void PassiveObserver::on_deliver(const net::Node& receiver,
                                 const net::Packet& pkt, sim::Time when) {
  // Cover receptions feed no analysis (see the class comment).
  if (pkt.kind == net::PacketKind::Cover) return;
  record(EventKind::Receive, receiver, pkt, when);
}

}  // namespace alert::attack
