#pragma once

/// \file geo_forwarding.hpp
/// Shared geographic forwarding primitives (GPSR, Karp & Kung): greedy
/// next-hop selection and right-hand-rule perimeter forwarding on the
/// Gabriel-planarized neighbour graph. Routers use them through the two
/// steps of routing::Protocol (router.hpp):
///  * Protocol::gpsr_leg, stateful GPSR (perimeter entry, exit test and
///    face-completion drop): GPSR, and ALERT's fallback leg toward the
///    destination zone (Sec. 2.7 allows face routing between RFs);
///  * Protocol::greedy_or_perimeter, stateless (greedy, else the right-
///    hand rule from the previous hop, else drop): ALARM, AO2P, and ZAP's
///    leg toward the cloaked zone.
/// ALERT's legs between RFs call greedy_next_hop alone: a local maximum
/// toward a TD *is* the next random forwarder (Fig. 3).

#include <optional>
#include <vector>

#include "net/node.hpp"

namespace alert::routing {

/// The neighbour (by beaconed position) strictly closer to `target` than
/// `self_pos`, minimizing remaining distance. nullptr at a local maximum.
[[nodiscard]] const net::NeighborInfo* greedy_next_hop(
    const net::Node& self, util::Vec2 self_pos, util::Vec2 target);

/// Gabriel-graph filter: neighbour v survives if no witness w (another
/// neighbour) lies strictly inside the circle with diameter (self, v).
/// Planarization is what makes the right-hand rule traverse faces.
[[nodiscard]] std::vector<const net::NeighborInfo*> gabriel_neighbors(
    const net::Node& self, util::Vec2 self_pos);

/// Right-hand-rule successor: the first Gabriel edge counterclockwise from
/// the reference direction `(from - self_pos)`. Returns nullptr when the
/// node has no planar neighbours.
[[nodiscard]] const net::NeighborInfo* perimeter_next_hop(
    const net::Node& self, util::Vec2 self_pos, util::Vec2 from);

}  // namespace alert::routing
