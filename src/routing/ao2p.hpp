#pragma once

/// \file ao2p.hpp
/// AO2P (Wu, TMC'05) baseline: ad hoc on-demand position-based private
/// routing. Two distinguishing mechanisms, both modeled per the paper's
/// Sec. 5 description:
///  * a per-hop *contention phase* — neighbours of the current holder
///    contend to be the next hop, classified by distance to the target;
///    this narrows channel access (fewer adversaries can participate) at
///    the price of an extra per-hop delay;
///  * destination anonymity by routing toward a *virtual position* on the
///    S-D line, farther from the source than D, so the packet never
///    carries D's true coordinates; D is picked up en route.
/// Like ALARM it pays hop-by-hop public-key cryptography.

#include "routing/router.hpp"
#include "util/rng.hpp"

namespace alert::routing {

struct Ao2pConfig {
  int max_hops = 10;
  double per_hop_processing_s = 200e-6;
  double contention_phase_s = 0.012;  ///< next-hop election delay per hop
  double virtual_extension_m = 200.0; ///< how far beyond D the target lies
};

class Ao2pRouter final : public GeoRouter {
 public:
  Ao2pRouter(net::Network& network, loc::LocationService& location,
             Ao2pConfig config);

  [[nodiscard]] std::string name() const override { return "AO2P"; }

  void send(net::NodeId src, net::NodeId dst, std::size_t payload_bytes,
            std::uint32_t flow, std::uint32_t seq) override;

  /// The virtual routing position for a given S-D geometry (exposed for
  /// tests): on the ray S->D, `virtual_extension_m` beyond D, clamped to
  /// the field.
  [[nodiscard]] util::Vec2 virtual_position(util::Vec2 src,
                                            util::Vec2 dst) const;

 private:
  void forward(net::Node& self, net::Packet pkt) override;

  Ao2pConfig config_;
};

}  // namespace alert::routing
