#pragma once

/// \file alarm.hpp
/// ALARM (El Defrawy & Tsudik, ICNP'07) baseline: proactive anonymous
/// location-aided routing. Every node periodically disseminates a signed
/// location announcement (LAM) to its authenticated neighbours; flooding
/// propagates announcements network-wide so each node maintains a "secure
/// map" of current node positions, over which it forwards geographically.
/// Data forwarding pays hop-by-hop public-key cryptography (each node
/// encrypts with its key, verified by the next hop) — the high-latency
/// behaviour ALERT is compared against in Fig. 14.
///
/// Substitution note (see DESIGN.md): LAM flooding is applied to the map
/// as a periodic snapshot refresh instead of simulating ~N^2 broadcast
/// events per round; its traffic is accounted in `control_hops` as the
/// per-announcement propagation depth (network hop-diameter) per node per
/// round — the accounting that reproduces Fig. 15a's "ALARM (include id
/// dissemination hops)" ≈ 2x ALERT shape.

#include <vector>

#include "routing/router.hpp"
#include "util/rng.hpp"

namespace alert::routing {

struct AlarmConfig {
  double dissemination_period_s = 30.0;  ///< Sec. 5: "set to 30 s"
  int max_hops = 10;
  double per_hop_processing_s = 200e-6;
};

class AlarmRouter final : public GeoRouter {
 public:
  AlarmRouter(net::Network& network, loc::LocationService& location,
              AlarmConfig config);

  [[nodiscard]] std::string name() const override { return "ALARM"; }

  void send(net::NodeId src, net::NodeId dst, std::size_t payload_bytes,
            std::uint32_t flow, std::uint32_t seq) override;

  /// Position of `id` in the secure map (as of the last dissemination).
  [[nodiscard]] util::Vec2 map_position(net::NodeId id) const {
    return map_[id];
  }
  [[nodiscard]] sim::Time map_age() const;

 private:
  void refresh_map();
  void forward(net::Node& self, net::Packet pkt) override;
  [[nodiscard]] double network_hop_diameter() const;

  AlarmConfig config_;
  std::vector<util::Vec2> map_;
  sim::Time map_updated_at_ = 0.0;
};

}  // namespace alert::routing
