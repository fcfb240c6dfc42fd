#pragma once

/// \file zone_residency.hpp
/// Destination-zone residency tracking — the "number of remaining nodes in
/// a destination zone" metric (Sec. 5.2 metric 3, Figs. 12/13). The degree
/// of k-anonymity D enjoys is exactly how many of the zone's original
/// occupants are still present after time t; node mobility erodes it,
/// which is what the intersection attacker exploits.

#include <vector>

#include "net/network.hpp"

namespace alert::attack {

class ZoneResidency {
 public:
  /// Snapshot the occupants of `zone` at the current simulation time.
  ZoneResidency(const net::Network& network, util::Rect zone);

  [[nodiscard]] const util::Rect& zone() const { return zone_; }
  [[nodiscard]] std::size_t initial_count() const {
    return initial_members_.size();
  }

  /// How many of the initial occupants are inside the zone at time `t`.
  [[nodiscard]] std::size_t remaining_at(sim::Time t) const;

  /// Current occupants (initial or not) at time `t`.
  [[nodiscard]] std::vector<net::NodeId> occupants_at(sim::Time t) const;

 private:
  const net::Network& net_;
  util::Rect zone_;
  std::vector<net::NodeId> initial_members_;
};

}  // namespace alert::attack
