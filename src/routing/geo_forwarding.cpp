#include "routing/geo_forwarding.hpp"

#include <algorithm>
#include <cmath>

namespace alert::routing {

const net::NeighborInfo* greedy_next_hop(const net::Node& self,
                                         util::Vec2 self_pos,
                                         util::Vec2 target) {
  const double self_d = util::distance_sq(self_pos, target);
  const net::NeighborInfo* best = nullptr;
  double best_d = self_d;
  for (const auto& n : self.neighbors()) {
    const double d = util::distance_sq(n.position, target);
    if (d < best_d) {
      best = &n;
      best_d = d;
    }
  }
  return best;
}

std::vector<const net::NeighborInfo*> gabriel_neighbors(
    const net::Node& self, util::Vec2 self_pos) {
  std::vector<const net::NeighborInfo*> result;
  const auto& neighbors = self.neighbors();
  for (const auto& v : neighbors) {
    const util::Vec2 mid = (self_pos + v.position) * 0.5;
    const double radius_sq = util::distance_sq(self_pos, v.position) * 0.25;
    const bool witnessed = std::any_of(
        neighbors.begin(), neighbors.end(), [&](const net::NeighborInfo& w) {
          return w.pseudonym != v.pseudonym &&
                 util::distance_sq(w.position, mid) < radius_sq - 1e-9;
        });
    if (!witnessed) result.push_back(&v);
  }
  return result;
}

const net::NeighborInfo* perimeter_next_hop(const net::Node& self,
                                            util::Vec2 self_pos,
                                            util::Vec2 from) {
  const auto planar = gabriel_neighbors(self, self_pos);
  if (planar.empty()) return nullptr;
  const double ref = (from - self_pos).angle();
  const net::NeighborInfo* best = nullptr;
  double best_delta = 0.0;
  for (const auto* n : planar) {
    const double ang = (n->position - self_pos).angle();
    // Counterclockwise sweep from the reference direction; pick the first
    // edge strictly after it (right-hand rule).
    double delta = ang - ref;
    while (delta <= 1e-12) delta += 2.0 * M_PI;
    if (best == nullptr || delta < best_delta) {
      best = n;
      best_delta = delta;
    }
  }
  return best;
}

}  // namespace alert::routing
