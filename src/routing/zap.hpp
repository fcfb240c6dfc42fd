#pragma once

/// \file zap.hpp
/// ZAP (Wu, Liu, Hong & Bertino, TPDS'08) baseline: anonymous
/// geo-forwarding through location cloaking. The source hides D inside an
/// *anonymity zone* — a fixed-size square containing D at a random
/// offset — geo-forwards the packet to the zone, and the first holder
/// inside performs a scoped flood so every zone member (including D)
/// receives it. ZAP protects only the destination (Table 1): the source
/// transmits first (timing-attack exposed), routes to a static zone repeat
/// (route exposed), and a long session lets the intersection attack of
/// Sec. 3.3 erode the zone anonymity — the weakness ALERT's countermeasure
/// addresses.
///
/// The zone phase reuses the universal packet format's zone fields
/// (dest_zone / in_dest_zone_phase), which both protocols advertise on
/// air.

#include <unordered_set>

#include "routing/router.hpp"
#include "util/rng.hpp"

namespace alert::routing {

struct ZapConfig {
  double zone_side_m = 250.0;  ///< anonymity-zone edge length
  int max_hops = 24;
  double per_hop_processing_s = 200e-6;
  /// Scoped flood: zone members rebroadcast once so the whole zone is
  /// covered even when the entry holder's radio misses a corner.
  bool flood_rebroadcast = true;
};

class ZapRouter final : public Protocol {
 public:
  ZapRouter(net::Network& network, loc::LocationService& location,
            ZapConfig config);

  [[nodiscard]] std::string name() const override { return "ZAP"; }

  void send(net::NodeId src, net::NodeId dst, std::size_t payload_bytes,
            std::uint32_t flow, std::uint32_t seq) override;

  void handle(net::Node& self, const net::Packet& pkt) override;

  /// The cloaked anonymity zone for a destination position: a
  /// zone_side_m square containing `dest` at a uniform random offset,
  /// clamped into the field (exposed for tests).
  [[nodiscard]] util::Rect cloak(util::Vec2 dest, util::Rng& rng) const;

 private:
  void forward(net::Node& self, net::Packet pkt);
  void zone_flood(net::Node& self, net::Packet pkt);
  bool reroute_failed(net::Node& self, const net::Packet& pkt) override;
  /// Mark `pkt` flooded by `self`; false when `self` already flooded it.
  bool mark_flooded(const net::Node& self, const net::Packet& pkt);
  /// Deliver `pkt` when `self` is D and this is its first copy.
  void accept_in_zone(const net::Node& self, const net::Packet& pkt);

  ZapConfig config_;
  util::Rng rng_;
  /// Flood duplicate suppression: (uid, node) pairs already rebroadcast.
  std::unordered_set<std::uint64_t> flooded_;
  /// Delivery dedup: the flood hands D several copies of each uid.
  std::unordered_set<std::uint64_t> delivered_uids_;
};

}  // namespace alert::routing
