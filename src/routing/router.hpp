#pragma once

/// \file router.hpp
/// Protocol interface shared by ALERT and the baselines. One Protocol
/// instance serves the whole network (per-node state lives in vectors
/// indexed by NodeId); it implements net::PacketHandler and is attached to
/// every node.
///
/// Every router is geographic forwarding plus its own mechanism, so the
/// forwarding itself lives here once: the packet header, the hop budget,
/// the forward, the drop and the delivery (every forward, drop and Data
/// delivery passes through forward_to(), drop() and deliver()), and the
/// two GPSR steps of geo_forwarding.hpp with their packet state. GeoRouter
/// adds the delivery rule the position-addressed baselines (GPSR, ALARM,
/// AO2P) share.

#include <cstdint>
#include <string>
#include <utility>

#include "loc/location_service.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace alert::routing {

/// Per-protocol counters the experiment harness reads after a run.
struct ProtocolStats {
  std::uint64_t data_sent = 0;        ///< application packets issued
  std::uint64_t data_delivered = 0;   ///< reached the true destination
  std::uint64_t data_dropped = 0;     ///< gave up (ttl / dead end / loss)
  std::uint64_t forwards = 0;         ///< unicast forward transmissions
  std::uint64_t broadcasts = 0;       ///< protocol broadcasts (not hellos)
  std::uint64_t random_forwarders = 0;///< ALERT RF events (all packets)
  std::uint64_t partitions = 0;       ///< ALERT zone splits (all packets)
  std::uint64_t cover_packets = 0;    ///< notify-and-go camouflage traffic
  std::uint64_t retransmissions = 0;  ///< confirmation-timeout resends
  std::uint64_t naks = 0;             ///< NAKs issued by destinations
  std::uint64_t control_hops = 0;     ///< e.g. ALARM dissemination hops
  std::uint64_t send_failures = 0;    ///< link-layer on_send_failed events
  double crypto_time_total_s = 0.0;   ///< simulated crypto latency charged
};

class Protocol : public net::PacketHandler {
 public:
  /// Attach this protocol as the handler of every node, and resolve its
  /// routing-decision profiling scopes ("routing.<proto>.send" /
  /// "routing.<proto>.handle") against the simulator's profiler.
  Protocol(net::Network& network, loc::LocationService& location,
           const char* proto);

  [[nodiscard]] virtual std::string name() const = 0;

  /// Issue one application packet of `payload_bytes` from `src` to `dst`.
  /// `flow` identifies the S-D pair, `seq` the packet within the flow.
  virtual void send(net::NodeId src, net::NodeId dst,
                    std::size_t payload_bytes, std::uint32_t flow,
                    std::uint32_t seq) = 0;

  [[nodiscard]] const ProtocolStats& stats() const { return stats_; }

  /// Link-layer failure feedback (fault-aware runs only; see
  /// net::PacketHandler). Graceful degradation, identical for every
  /// protocol at this level: stop trusting the unreachable neighbour, then
  /// let the concrete router pick a new next hop — or, if it cannot (or the
  /// holder itself is down), close the packet under the failure's fate.
  void on_send_failed(net::Node& self, const net::Packet& pkt,
                      net::Pseudonym next_hop,
                      net::DropReason why) override {
    ++stats_.send_failures;
    self.remove_neighbor(next_hop);
    if (self.alive() && reroute_failed(self, pkt)) return;
    close_failed(pkt, why);
  }

  /// Attach a metrics registry: the crypto cost model reports every modeled
  /// operation as counter "crypto.ops" and sample "crypto.op_seconds"
  /// (simulated seconds, not wall-clock). Null detaches.
  void set_metrics(obs::MetricsRegistry* metrics) {
    crypto_ops_ = metrics != nullptr ? &metrics->counter("crypto.ops")
                                     : nullptr;
    crypto_seconds_ =
        metrics != nullptr ? &metrics->sample("crypto.op_seconds") : nullptr;
  }

 protected:
  /// Attempt to route `pkt` again after the link layer gave up on its last
  /// next hop (already evicted from `self`'s neighbour table, so the same
  /// choice cannot repeat). Return true when the packet was re-dispatched
  /// or reached a protocol-level terminal decision; false to let the base
  /// close it under the link failure's fate. Re-forwarding goes back
  /// through the router's normal decision path, so each salvage attempt
  /// spends a TTL hop — the hop bound still terminates every packet.
  virtual bool reroute_failed(net::Node& self, const net::Packet& pkt) {
    (void)self, (void)pkt;
    return false;
  }

  /// Terminally account a packet the link layer killed: the matching ledger
  /// fate, plus the protocol drop counter for application data. The is_open
  /// guard makes late failures of already-closed uids (e.g. a duplicate
  /// copy of a delivered packet) a no-op, keeping data_dropped in step with
  /// the ledger.
  void close_failed(const net::Packet& pkt, net::DropReason why) {
    if (pkt.uid == 0 || !net_.ledger().is_open(pkt.uid)) return;
    if (pkt.kind == net::PacketKind::Data) ++stats_.data_dropped;
    net_.ledger().close(pkt.uid, net::fate_for(why), net_.now());
  }

  /// Account `seconds` of cryptographic computation at `node`: simulated
  /// latency totals for the stats and joules on the node's energy meter.
  void charge_crypto(const net::Node& node, double seconds) {
    stats_.crypto_time_total_s += seconds;
    net_.charge_crypto(node.id(), seconds);
    if (crypto_ops_ != nullptr) {
      crypto_ops_->inc();
      crypto_seconds_->add(seconds);
    }
  }

  /// Record a packet's terminal fate on the network's lifecycle ledger.
  /// Call exactly where the protocol decides the packet is done (delivered
  /// at its destination / given up on); duplicate closes are ignored.
  void ledger_close(const net::Packet& pkt, net::PacketFate fate) {
    if (pkt.uid != 0) net_.ledger().close(pkt.uid, fate, net_.now());
  }

  /// A fresh packet of `kind` from `from` to pseudonym `to`: flow and seq,
  /// a new ledger uid, both send times at now, the simulation-oracle
  /// endpoints and `max_hops` of hop budget. Payload, size and the
  /// protocol's own fields are the caller's.
  [[nodiscard]] net::Packet make_header(net::PacketKind kind,
                                        const net::Node& from,
                                        net::Pseudonym to,
                                        net::NodeId true_dest,
                                        std::uint32_t flow,
                                        std::uint32_t seq, int max_hops);

  /// `pkt` reached its true destination: the protocol delivery counter and
  /// the Delivered fate.
  void deliver(const net::Packet& pkt) {
    ++stats_.data_delivered;
    ledger_close(pkt, net::PacketFate::Delivered);
  }

  /// Give up on `pkt`: the protocol drop counter and the Dropped fate.
  void drop(const net::Packet& pkt) {
    ++stats_.data_dropped;
    ledger_close(pkt, net::PacketFate::Dropped);
  }

  /// Unicast `pkt` to neighbour `next` after `delay` of processing.
  void forward_to(net::Node& self, const net::NeighborInfo& next,
                  net::Packet pkt, double delay) {
    ++stats_.forwards;
    net_.unicast(self, next.pseudonym, std::move(pkt), delay);
  }

  /// Spend one hop of `pkt`'s budget; false, with the packet dropped, when
  /// none is left.
  [[nodiscard]] bool take_hop(net::Packet& pkt) {
    if (pkt.hops_remaining <= 0) {
      drop(pkt);
      return false;
    }
    --pkt.hops_remaining;
    ++pkt.hop_count;
    return true;
  }

  /// Stateless geographic step: greedy toward `target`, else the right-
  /// hand rule from the previous hop, else drop.
  void greedy_or_perimeter(net::Node& self, net::Packet pkt,
                           util::Vec2 target, double delay);

  /// A GPSR leg's next hop (null once the packet was dropped) and whether
  /// greedy chose it.
  struct LegHop {
    const net::NeighborInfo* next = nullptr;
    bool greedy = false;
  };
  /// One hop of a GPSR leg toward `pkt.geo->dest_pos`, keeping the
  /// perimeter state in `pkt.geo`: greedy while it makes progress, the
  /// right-hand rule around the face from a local maximum (when
  /// `use_perimeter`) until a node closer than the entry point, and a drop
  /// at a dead end or once the face is walked without getting closer.
  [[nodiscard]] LegHop gpsr_leg(net::Node& self, net::Packet& pkt,
                                bool use_perimeter);

  net::Network& net_;
  loc::LocationService& loc_;
  ProtocolStats stats_;
  obs::Profiler* profiler_ = nullptr;  // non-owning; null = not profiling
  obs::ScopeId send_scope_ = 0;
  obs::ScopeId handle_scope_ = 0;
  obs::Counter* crypto_ops_ = nullptr;         // owned by the registry
  util::Accumulator* crypto_seconds_ = nullptr;

 private:
  /// The right-hand rule's reference point: where `pkt` arrived from, or
  /// `target` when it has no previous hop but its holder.
  [[nodiscard]] util::Vec2 arrival_point(const net::Node& self,
                                         const net::Packet& pkt,
                                         util::Vec2 target) const;
};

/// The position-addressed baselines (GPSR, ALARM, AO2P): a Data packet is
/// delivered at the node owning its destination pseudonym, else handed to
/// the router's forward(), which also re-routes a failed link.
class GeoRouter : public Protocol {
 public:
  using Protocol::Protocol;

  void handle(net::Node& self, const net::Packet& pkt) final;

 protected:
  /// One forwarding decision at `self`, spending a hop.
  virtual void forward(net::Node& self, net::Packet pkt) = 0;

 private:
  bool reroute_failed(net::Node& self, const net::Packet& pkt) final;
};

}  // namespace alert::routing
