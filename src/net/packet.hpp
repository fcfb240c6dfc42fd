#pragma once

/// \file packet.hpp
/// The simulated over-the-air packet, including ALERT's universal
/// RREQ/RREP/NAK format (paper Fig. 4):
///
///   | P_S | P_D | L_ZS | L_ZD | L_TD | h | H | K_s^S | (TTL)_{K_pub^RN} |
///   | (Bitmap)_{K_pub^D} | data |
///
/// Fields an adversary could read on air are stored in the clear here only
/// when the paper sends them in the clear; everything the paper encrypts is
/// held as RSA/XTEA ciphertext blocks. A few `true_*` members are
/// simulation-oracle metadata used exclusively by metrics and attack-ground-
/// truth bookkeeping — they are never read by protocol code.

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/pubkey.hpp"
#include "util/geometry.hpp"

namespace alert::net {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Pseudonyms are SHA-1 prefixes (see loc::PseudonymManager).
using Pseudonym = std::uint64_t;

enum class PacketKind : std::uint8_t {
  Hello,            ///< periodic beacon: pseudonym + position + public key
  Data,             ///< RREQ carrying application payload
  Confirm,          ///< destination's delivery confirmation (RREP role)
  Nak,              ///< negative acknowledgement (data field empty)
  Cover,            ///< notify-and-go cover traffic (TTL=0 equivalent)
};

/// ALERT-specific header fields (Fig. 4).
struct AlertFields {
  util::Rect dest_zone;   ///< L_ZD: position of the Hth partitioned zone
  util::Vec2 td;          ///< L_TD: current temporary destination
  std::uint8_t h = 0;     ///< partitions performed so far
  std::uint8_t cap_h = 0; ///< H: maximum number of partitions
  bool next_partition_horizontal = false;  ///< direction bit, flipped per RF

  /// L_ZS — source's Hth partitioned zone, encrypted under K_pub^D
  /// (rsa_encrypt_bytes blocks of the 32-byte rect encoding).
  std::vector<std::uint64_t> src_zone_enc;
  /// Session key K_s^S wrapped under K_pub^D.
  std::vector<std::uint64_t> session_key_enc;
  /// TTL under the next relay's public key; absent on cover packets whose
  /// TTL failed to issue (cover packets carry garbage ciphertext instead).
  std::optional<std::uint64_t> ttl_enc;
  /// Intersection-countermeasure bit-alteration layers (Sec. 3.3): each
  /// zone broadcast of the packet flips fresh payload bits and appends one
  /// RSA-encrypted bitmap layer under K_pub^D. D restores layers in
  /// reverse. Empty when the countermeasure is off.
  std::vector<std::vector<std::uint64_t>> bitmap_layers_enc;
  std::uint32_t bitmap_flips_per_layer = 0;

  /// D's public key, carried so the last RF can encrypt bitmap layers (the
  /// paper assumes public keys are public via the location service; we
  /// carry it in-band — it reveals no more than P_D already does).
  crypto::PublicKey dest_pubkey;

  /// First-step multicast recipient set (m of the k zone nodes, Sec. 3.3).
  std::vector<Pseudonym> multicast_set;

  /// Set once the packet enters the destination-zone delivery phase.
  bool in_dest_zone_phase = false;
  /// Second-step one-hop rebroadcast of the countermeasure (Sec. 3.3).
  bool countermeasure_second_step = false;
};

/// GPSR leg state: the geographic baselines (GPSR/ALARM/AO2P) and ALERT's
/// fallback leg toward the destination zone.
struct GeoFields {
  util::Vec2 dest_pos;             ///< where the protocol believes D is
  /// GPSR perimeter-mode state (Karp & Kung).
  bool perimeter_mode = false;
  util::Vec2 perimeter_entry;      ///< L_p: where greedy failed
  NodeId perimeter_first_hop = kInvalidNode;
};

struct Packet {
  PacketKind kind = PacketKind::Data;
  Pseudonym src_pseudonym = 0;  ///< P_S
  Pseudonym dst_pseudonym = 0;  ///< P_D

  std::uint32_t flow = 0;  ///< S-D pair index
  std::uint32_t seq = 0;   ///< per-flow sequence number

  /// Over-the-air size in bytes (payload + header), used for tx time.
  std::size_t size_bytes = 0;
  /// Application payload (encrypted under the flow's session key for Data).
  std::vector<std::uint8_t> payload;

  std::optional<AlertFields> alert;
  std::optional<GeoFields> geo;

  /// Remaining link-layer hops (the TTL=10 bound of Sec. 5.6 for baselines;
  /// ALERT bounds per-TD GPSR legs the same way).
  int hops_remaining = 64;
  int hop_count = 0;  ///< hops traversed so far (metrics)

  std::uint64_t uid = 0;         ///< unique per original application packet
  /// When the current delivery *attempt* left the source (reset by
  /// retransmissions) — basis of the per-packet latency metric.
  double app_send_time = 0.0;
  /// When the application first issued the packet (never reset) — basis of
  /// the end-to-end delay metric, which includes retransmission waits.
  double first_send_time = 0.0;

  // --- simulation-oracle metadata (metrics / attack ground truth only) ---
  NodeId true_source = kInvalidNode;
  NodeId true_dest = kInvalidNode;
  NodeId prev_hop = kInvalidNode;  ///< physical sender of this transmission
};

/// Serialized size of the protocol header (rough per-field accounting used
/// to charge realistic on-air bytes on top of the payload).
[[nodiscard]] std::size_t header_bytes(const Packet& pkt);

}  // namespace alert::net
