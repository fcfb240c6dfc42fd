#pragma once

/// \file alert_router.hpp
/// The ALERT protocol (Sec. 2): anonymous location-based routing by
/// dynamic hierarchical zone partition and random relay selection.
///
/// Per packet, the source / each random forwarder (RF):
///  1. partitions the field (alternating axes, starting from the packet's
///     direction bit) until its own half no longer contains Z_D,
///  2. draws a random temporary destination (TD) in the other half,
///  3. forwards greedily toward the TD; the node with no neighbour closer
///     to the TD is the next RF (Fig. 3) and repeats from step 1,
///  4. a holder inside Z_D broadcasts to the k nodes of the zone
///     (k-anonymity for D, Sec. 2.3).
///
/// Also implemented here, each the paper's mechanism:
///  * "notify and go" source camouflage with TTL-encrypted cover traffic
///    (Sec. 2.6),
///  * symmetric session keys wrapped under K_pub^D, source zone L_ZS
///    encrypted under K_pub^D, per Fig. 4's packet format (Sec. 2.5),
///  * destination confirmations with timeout-based retransmission and NAKs
///    (Secs. 2.3/2.5),
///  * the intersection-attack countermeasure: m-of-k partial multicast,
///    hold-until-next-packet one-hop rebroadcast, and bit-alteration with
///    an encrypted recovery bitmap (Sec. 3.3).

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/bitmap.hpp"
#include "crypto/symmetric.hpp"
#include "routing/router.hpp"
#include "routing/zone.hpp"
#include "util/rng.hpp"

namespace alert::routing {

struct AlertConfig {
  /// Number of hierarchical partitions H. If `k_anonymity` is set instead,
  /// H is derived as log2(N / k) (Sec. 2.4).
  int partitions_h = 5;
  std::optional<double> k_anonymity;

  int max_hops = 48;                     ///< generous bound: H legs of GPSR
  double per_hop_processing_s = 200e-6;  ///< forwarding computation

  // "Notify and go" (Sec. 2.6).
  bool notify_and_go = true;
  double notify_t_s = 0.001;    ///< minimum back-off t
  double notify_t0_s = 0.004;   ///< back-off window t0
  std::size_t cover_bytes = 16; ///< "several bytes of random data"

  // Intersection-attack countermeasure (Sec. 3.3).
  bool intersection_countermeasure = false;
  std::size_t countermeasure_m = 3;  ///< first-step multicast set size m
  std::size_t bitmap_flips = 16;     ///< payload bits altered per packet

  // Reliability (Sec. 2.3: confirmation + resend; Sec. 2.5: NAKs).
  bool send_confirmation = true;
  double confirm_timeout_s = 1.5;
  int max_retransmissions = 1;
  bool use_nak = true;

  /// GPSR leg recovery (Sec. 2.7: face routing between RFs is allowed and
  /// does not compromise anonymity).
  bool use_perimeter_fallback = true;
};

class AlertRouter final : public Protocol {
 public:
  AlertRouter(net::Network& network, loc::LocationService& location,
              AlertConfig config);

  [[nodiscard]] std::string name() const override { return "ALERT"; }

  void send(net::NodeId src, net::NodeId dst, std::size_t payload_bytes,
            std::uint32_t flow, std::uint32_t seq) override;

  void handle(net::Node& self, const net::Packet& pkt) override;

  [[nodiscard]] int effective_h() const { return h_; }

  /// Distinct nodes that have served as RF (route-anonymity evidence).
  [[nodiscard]] std::size_t distinct_rfs() const {
    return distinct_rfs_.size();
  }

 private:
  // --- source side -------------------------------------------------------
  struct FlowState {
    net::NodeId src = net::kInvalidNode;
    net::NodeId dest = net::kInvalidNode;
    crypto::SymmetricKey session_key;
    crypto::PublicKey dest_pub;
    net::Pseudonym dest_pseudonym = 0;
    util::Rect dest_zone;
    util::Rect src_zone;
    std::vector<std::uint64_t> src_zone_enc;
    std::vector<std::uint64_t> session_key_enc;
  };
  struct PendingConfirm {
    net::Packet packet;  ///< resend copy
    int retries_left = 0;
  };

  /// Existing or freshly-established flow session state; nullptr when the
  /// location service cannot resolve the destination (all replicas down).
  FlowState* flow_state(net::NodeId src, net::NodeId dst, std::uint32_t flow);
  void transmit_with_camouflage(net::Node& source, net::Packet pkt);
  void arm_confirm_timer(std::uint32_t flow, std::uint32_t seq);
  void resend(std::uint32_t flow, std::uint32_t seq);

  // --- forwarding --------------------------------------------------------
  void forward(net::Node& self, net::Packet pkt, bool force_partition);
  bool reroute_failed(net::Node& self, const net::Packet& pkt) override;
  /// Seal the TTL of the source's first transmission under the next
  /// relay's public key (Sec. 2.6 camouflage indistinguishability).
  void seal_first_hop_ttl(net::Node& self, net::Packet& pkt,
                          const net::NeighborInfo& next);
  /// GPSR leg toward the destination zone, used when randomized TD
  /// selection cannot make progress (sparse regions).
  void fallback_leg(net::Node& self, net::Packet pkt);
  void deliver_into_zone(net::Node& self, net::Packet pkt);
  /// Alter `pkt`'s payload bits and append their recovery bitmap,
  /// RSA-wrapped under D's key, as one more layer (Sec. 3.3); the
  /// encryption is charged to `self`.
  void add_bitmap_layer(const net::Node& self, net::Packet& pkt);
  void on_zone_broadcast(net::Node& self, const net::Packet& pkt);
  void accept_at_destination(net::Node& self, const net::Packet& pkt);
  /// D's confirmation of `data_pkt` (seq = its seq) or NAK (seq = the
  /// missing packet), routed back to the source zone.
  void send_reply(net::PacketKind kind, net::Node& dest_node,
                  const net::Packet& data_pkt, std::uint32_t seq);

  [[nodiscard]] static std::uint64_t confirm_key(std::uint32_t flow,
                                                 std::uint32_t seq) {
    return (static_cast<std::uint64_t>(flow) << 32) | seq;
  }

  AlertConfig config_;
  int h_;  ///< effective partition count H
  util::Rng rng_;

  std::unordered_map<std::uint32_t, FlowState> flows_;
  std::unordered_map<std::uint64_t, PendingConfirm> pending_;
  /// Destination-side per-flow state: decrypted session key and expected
  /// sequence number (for NAKs), keyed by flow.
  struct DestState {
    crypto::SymmetricKey session_key;
    bool have_key = false;  ///< session_key and src_zone are unwrapped
    std::uint32_t expected_seq = 0;
    std::unordered_set<std::uint32_t> received;
    util::Rect src_zone;  ///< decrypted L_ZS for the return path
  };
  std::unordered_map<std::uint32_t, DestState> dest_state_;
  /// Countermeasure holders: per node, held first-step packets by flow.
  std::unordered_map<std::uint64_t, net::Packet> held_;  // key: node<<32|flow
  std::unordered_set<net::NodeId> distinct_rfs_;
  /// Dedup of zone-broadcast acceptance at D: (flow, seq) delivered.
  std::unordered_set<std::uint64_t> delivered_marks_;
};

}  // namespace alert::routing
