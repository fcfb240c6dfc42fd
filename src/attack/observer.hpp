#pragma once

/// \file observer.hpp
/// Passive eavesdropper substrate (Sec. 2.1 attack model): battery-powered
/// adversaries that receive packets and record activity in their vicinity.
/// The observer is a net::TraceListener; it records what a radio-equipped
/// attacker could actually capture — who transmitted what, when, and which
/// nodes received zone broadcasts. Attack analyses (timing, intersection,
/// route tracing) run over this event log; ground-truth oracle fields are
/// used only to *score* attacks, never to mount them.

#include <vector>

#include "net/network.hpp"

namespace alert::attack {

enum class EventKind : std::uint8_t { Transmit, Receive };

struct ObservedEvent {
  EventKind kind;
  sim::Time time = 0.0;
  net::NodeId node = net::kInvalidNode;  ///< transmitter or receiver
  net::Pseudonym pseudonym = 0;          ///< what the attacker can read
  net::PacketKind packet_kind = net::PacketKind::Data;
  std::uint64_t uid = 0;
  std::uint32_t flow = 0;
  std::uint32_t seq = 0;
  bool zone_broadcast = false;  ///< ALERT destination-zone phase frame
  /// Second-step countermeasure rebroadcast: the frame is bit-altered, so
  /// an attacker cannot link it to the packet it re-delivers.
  bool second_step = false;
  /// For Receive events of zone broadcasts: whether the receiver sits
  /// inside the packet's advertised destination zone (the adversary knows
  /// node positions, Sec. 2.1, and reads L_ZD from the header, so it can
  /// discard the out-of-zone radio halo).
  bool in_dest_zone = false;
  /// For Receive events of zone broadcasts: whether this receiver is an
  /// *addressed* recipient — with the m-of-k multicast the attacker reads
  /// the recipient list from the frame; a node outside the list merely
  /// overhears and is not evidence of being the destination.
  bool addressed = true;
  // Ground truth for scoring only:
  net::NodeId true_source = net::kInvalidNode;
  net::NodeId true_dest = net::kInvalidNode;
};

/// Records protocol traffic: transmissions and receptions of Data, Confirm
/// and Nak frames, and transmissions of Cover frames. It skips hellos
/// (they carry no flow information) and Cover receptions: a cover carries
/// no flow, uid or destination, and the only analysis that reads covers
/// (the timing attack) pools their transmissions, so logging one event per
/// neighbour of every cover broadcast would dominate the log and feed
/// nothing. Optionally restricted to events within `vicinity_radius` of any
/// of a set of monitor positions, modeling a bounded adversary; by default
/// the adversary is global (strongest case).
class PassiveObserver final : public net::TraceListener {
 public:
  explicit PassiveObserver(net::Network& network) : net_(network) {}

  /// Restrict observation to discs around fixed monitor positions.
  void set_vicinity(std::vector<util::Vec2> monitors, double radius_m);

  void on_transmit(const net::Node& sender, const net::Packet& pkt,
                   sim::Time air_start) override;
  void on_deliver(const net::Node& receiver, const net::Packet& pkt,
                  sim::Time when) override;

  [[nodiscard]] const std::vector<ObservedEvent>& events() const {
    return events_;
  }
  void clear() { events_.clear(); }

 private:
  [[nodiscard]] bool in_vicinity(util::Vec2 pos) const;
  void record(EventKind kind, const net::Node& node, const net::Packet& pkt,
              sim::Time when);

  net::Network& net_;
  std::vector<ObservedEvent> events_;
  std::vector<util::Vec2> monitors_;
  double vicinity_radius_ = 0.0;  ///< 0 = global observer
};

}  // namespace alert::attack
