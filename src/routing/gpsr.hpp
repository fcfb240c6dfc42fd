#pragma once

/// \file gpsr.hpp
/// GPSR (greedy perimeter stateless routing) — the paper's baseline and the
/// primitive ALERT builds on. Greedy forwarding to the neighbour closest to
/// the destination; right-hand-rule perimeter recovery on the Gabriel-
/// planarized graph at local maxima; TTL = 10 hop bound (Sec. 5.6).
/// No anonymity machinery: the destination position travels in the clear
/// and the path is the (near-)shortest, which is exactly why the paper's
/// adversary can trace it.

#include "routing/router.hpp"
#include "util/rng.hpp"

namespace alert::routing {

struct GpsrConfig {
  int max_hops = 10;                ///< TTL of Sec. 5.6
  bool use_perimeter = true;        ///< face-routing recovery on/off
  double per_hop_processing_s = 200e-6;  ///< forwarding computation
};

class GpsrRouter final : public GeoRouter {
 public:
  GpsrRouter(net::Network& network, loc::LocationService& location,
             GpsrConfig config);

  [[nodiscard]] std::string name() const override { return "GPSR"; }

  void send(net::NodeId src, net::NodeId dst, std::size_t payload_bytes,
            std::uint32_t flow, std::uint32_t seq) override;

 private:
  void forward(net::Node& self, net::Packet pkt) override;

  GpsrConfig config_;
};

}  // namespace alert::routing
