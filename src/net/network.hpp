#pragma once

/// \file network.hpp
/// The MANET: nodes + radio channel + mobility + hello beaconing +
/// pseudonym rotation, glued to the discrete-event simulator. Protocols
/// (src/routing) attach one PacketHandler per node and use the unicast /
/// broadcast primitives; metrics and attack models register TraceListeners
/// that see every on-air event.
///
/// Range queries (MAC contention, broadcast receivers, nodes_within) scan
/// every node on fields of fewer than kGridMinCells range-sized cells —
/// every paper scenario — and use a scale::SpatialGrid over the nodes'
/// motion segments on larger fields. Both give the identical ascending id
/// set (docs/SCALE.md). The grid is reindexed on mobility waypoint events,
/// so node motion changes only through the MobilityModel.

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "crypto/cost_model.hpp"
#include "faults/channel_model.hpp"
#include "faults/fault_plan.hpp"
#include "net/energy.hpp"
#include "net/mac.hpp"
#include "net/mobility.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_ledger.hpp"
#include "scale/spatial_grid.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace alert::net {

enum class DropReason : std::uint8_t;

/// Per-node protocol entry point, implemented by routers.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  /// A frame addressed to (or overheard by, for broadcasts) `self`.
  virtual void handle(Node& self, const Packet& pkt) = 0;
  /// The link layer gave up on a unicast from `self` to `next_hop`: the
  /// ARQ retry budget is spent, or `self`'s own radio died with the frame
  /// queued. Fires only in fault-aware runs (ARQ enabled — an ideal
  /// channel has no ack mechanism to detect failure with, and the default
  /// configuration must replay byte-identically). Routers override this to
  /// degrade gracefully: evict the dead neighbour, re-forward to the
  /// next-best candidate, or close the packet's ledger entry.
  virtual void on_send_failed(Node& self, const Packet& pkt,
                              Pseudonym next_hop, DropReason why) {
    (void)self, (void)pkt, (void)next_hop, (void)why;
  }
};

/// Pseudonym generation strategy (implemented by loc::PseudonymManager; the
/// interface lives here so net does not depend on loc).
class PseudonymProvider {
 public:
  virtual ~PseudonymProvider() = default;
  virtual Pseudonym make(const Node& node, sim::Time now) = 0;
};

// alert-lint: exhaustive-enum
enum class DropReason : std::uint8_t {
  OutOfRange,     ///< unicast receiver moved out of radio range
  NoHandler,      ///< no protocol attached
  TtlExpired,     ///< hops_remaining exhausted (counted by routers)
  ChannelLoss,    ///< frame lost to fault injection (loss model / jammer)
  NodeDown,       ///< a crashed radio was involved (fault churn)
  RetryExhausted, ///< ARQ retry budget spent without an ack
};

/// Number of DropReason enumerators (sizes per-reason counter arrays; the
/// analyzer's exhaustive-enum rule keeps every switch over the tagged enum
/// in sync).
inline constexpr std::size_t kDropReasonCount = 6;

/// Ledger fate matching a net-layer drop cause, for closing a uid whose
/// packet the link layer terminally gave up on.
[[nodiscard]] PacketFate fate_for(DropReason why);

/// Observer of every on-air event — the eyes of metrics collection and of
/// the adversary models.
class TraceListener {
 public:
  virtual ~TraceListener() = default;
  virtual void on_transmit(const Node& sender, const Packet& pkt,
                           sim::Time air_start) {
    (void)sender, (void)pkt, (void)air_start;
  }
  virtual void on_deliver(const Node& receiver, const Packet& pkt,
                          sim::Time when) {
    (void)receiver, (void)pkt, (void)when;
  }
  virtual void on_drop(const Node& last_holder, const Packet& pkt,
                       sim::Time when, DropReason why) {
    (void)last_holder, (void)pkt, (void)when, (void)why;
  }
};

struct NetworkConfig {
  util::Rect field{0.0, 0.0, 1000.0, 1000.0};
  std::size_t node_count = 200;
  double radio_range_m = 250.0;
  MacConfig mac;
  double hello_period_s = 1.0;
  double neighbor_max_age_s = 2.5;
  double pseudonym_period_s = 20.0;  ///< pseudonym rotation interval
  crypto::CostModel crypto_cost;
  EnergyConfig energy;
  int rsa_modulus_bits = 62;
  /// Channel/node adversity (src/faults). Inert by default: an all-off
  /// plan allocates nothing, draws nothing, audits nothing.
  faults::FaultPlan faults;
};

class Network {
 public:
  /// Fields spanning at least this many range-sized cells are indexed by
  /// the spatial grid: a 3x3 query block then covers at most a quarter of
  /// the field. Below it the scan is as fast or faster (docs/SCALE.md).
  static constexpr double kGridMinCells = 36.0;

  /// Whether a network on `field` with radio range `radio_range_m` answers
  /// range queries from the spatial grid rather than a scan of every node.
  [[nodiscard]] static bool selects_grid(util::Rect field,
                                         double radio_range_m);

  /// Builds nodes (keys, MAC addresses), places them with `mobility`, and
  /// schedules hello/pseudonym/mobility processes on `simulator` up to
  /// `horizon`.
  Network(sim::Simulator& simulator, NetworkConfig config,
          std::unique_ptr<MobilityModel> mobility, util::Rng rng,
          sim::Time horizon);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology access ---------------------------------------------------
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeId id) { return *nodes_[id]; }
  [[nodiscard]] const Node& node(NodeId id) const { return *nodes_[id]; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::Time now() const { return sim_.now(); }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  /// Ids of nodes within `radius` of `center` at time `t`, ascending (the
  /// channel equivalent of carrier range).
  [[nodiscard]] std::vector<NodeId> nodes_within(util::Vec2 center,
                                                 double radius,
                                                 sim::Time t) const;

  /// Resolve a pseudonym to the node currently owning it (simulator-level
  /// registry standing in for MAC-layer addressing). kInvalidNode if stale.
  [[nodiscard]] NodeId resolve_pseudonym(Pseudonym p) const;

  // --- protocol attachment ------------------------------------------------
  void attach_handler(NodeId id, PacketHandler* handler);
  void add_listener(TraceListener* listener);
  void set_pseudonym_provider(PseudonymProvider* provider);

  // --- transmission primitives --------------------------------------------
  /// Unicast `pkt` from `from` to the node owning pseudonym `to`.
  /// `processing_delay` models protocol computation (e.g. crypto) performed
  /// before the frame can be handed to the MAC. Delivery fails (on_drop)
  /// if the receiver is out of range when the frame lands.
  void unicast(Node& from, Pseudonym to, Packet pkt,
               double processing_delay = 0.0);

  /// Broadcast to every node in radio range at delivery time.
  void broadcast(Node& from, Packet pkt, double processing_delay = 0.0);

  /// Fresh application-packet uid, registered with the packet ledger: the
  /// caller owns getting it to a terminal fate (see packet_ledger.hpp).
  std::uint64_t next_uid() {
    const std::uint64_t uid = next_uid_++;
    ledger_.open(uid, sim_.now());
    return uid;
  }

  /// Lifecycle ledger for every uid-carrying packet in this network.
  [[nodiscard]] PacketLedger& ledger() { return ledger_; }
  [[nodiscard]] const PacketLedger& ledger() const { return ledger_; }

  /// Immediately rotate one node's pseudonym (also runs periodically).
  void rotate_pseudonym(Node& node);

  // --- fault injection (src/faults) --------------------------------------
  /// Flip one node's radio state (FaultInjector churn callback). Crashing
  /// clears the node's neighbour table; recovery lets hello beaconing
  /// repopulate it.
  void set_node_alive(NodeId id, bool up) { nodes_[id]->set_alive(up); }

  /// Whether this run can diverge from the ideal-channel baseline (any
  /// fault active or ARQ enabled). Gates failure callbacks and the
  /// fault-era metrics so all-defaults runs stay byte-identical.
  [[nodiscard]] bool fault_aware() const {
    return config_.faults.any() || config_.mac.arq.enabled;
  }

  /// ARQ retransmissions performed so far (fault-era overhead accounting).
  [[nodiscard]] std::uint64_t arq_retries() const { return arq_retries_; }
  /// Broadcast receptions suppressed by the loss model / jammers.
  [[nodiscard]] std::uint64_t broadcast_losses() const {
    return broadcast_losses_;
  }
  /// Frame-loss decisions taken by the channel model (0 when loss is off).
  [[nodiscard]] std::uint64_t channel_frames_lost() const {
    return channel_ != nullptr ? channel_->frames_lost() : 0;
  }

  /// Count of hello beacons sent so far (overhead accounting).
  [[nodiscard]] std::uint64_t hello_count() const { return hello_count_; }

  /// Per-node energy meters (radio charges applied automatically on every
  /// transmission/reception; protocols charge their crypto time through
  /// charge_crypto so the Sec. 5 energy comparison is measurable).
  [[nodiscard]] const EnergyModel& energy() const { return energy_; }
  void charge_crypto(NodeId node, double seconds) {
    energy_.charge_crypto(node, seconds);
  }

 private:
  void schedule_mobility(Node& node);
  /// Reindex `node`'s grid coverage for its current motion segment,
  /// clipped to the simulation horizon (queries never look further).
  void index_segment(Node& node);
  /// The one range query behind nodes_within, neighbour_count and
  /// gather_receivers: calls `visit(id)` for every node within `radius` of
  /// `center` at `t` — in ascending id order on the scan, in cell order on
  /// the grid — and returns how many it visited. Allocation-free on both
  /// paths.
  template <typename Visit>
  std::size_t for_each_in_range(util::Vec2 center, double radius,
                                sim::Time t, Visit&& visit) const;
  /// Nodes within `radius` of `center` at `t` — count only, no id
  /// materialization (what MAC contention needs).
  [[nodiscard]] std::size_t neighbour_count(util::Vec2 center, double radius,
                                            sim::Time t) const;
  /// Fill delivery_ids_[0..count) with the ascending ids within range.
  /// Exclusively for deliver_broadcast: its synchronous callees only ever
  /// re-enter neighbour_count (deliver events themselves never nest), so
  /// the one shared buffer cannot be clobbered mid-iteration.
  [[nodiscard]] std::size_t gather_receivers(util::Vec2 center, double radius,
                                             sim::Time t);
  void send_hello(Node& node);
  void deliver_broadcast(NodeId sender, const Packet& pkt,
                         util::Vec2 sender_pos);
  /// One MAC acquisition + airtime for unicast attempt number `attempt`
  /// (1-based; attempts > 1 are ARQ retransmissions).
  void transmit_unicast(Node& from, Pseudonym to, Packet pkt,
                        double processing_delay, int attempt);
  void deliver_unicast(NodeId sender, NodeId receiver, Pseudonym to,
                       const Packet& pkt, int attempt);
  /// Terminal unicast failure: on_drop listeners, then (fault-aware runs
  /// only) the sender's router callback — or a direct ledger close when no
  /// handler is attached.
  void drop_and_notify(Node& holder, Pseudonym to, const Packet& pkt,
                       DropReason why);

  sim::Simulator& sim_;
  NetworkConfig config_;
  std::unique_ptr<MobilityModel> mobility_;
  util::Rng rng_;
  sim::Time horizon_;

  // Self-profiling scopes (ids resolved once from sim_.profiler(); null
  // profiler → single branch per transmission).
  obs::ScopeId tx_scope_ = 0;
  obs::ScopeId deliver_scope_ = 0;
  obs::ScopeId query_scope_ = 0;

  Mac mac_;
  EnergyModel energy_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<PacketHandler*> handlers_;
  std::vector<TraceListener*> listeners_;
  std::unordered_map<Pseudonym, NodeId> pseudonym_registry_;
  PseudonymProvider* pseudonym_provider_ = nullptr;  // non-owning
  std::unique_ptr<PseudonymProvider> default_provider_;
  std::uint64_t next_uid_ = 1;
  std::uint64_t hello_count_ = 0;
  PacketLedger ledger_;
  /// Frame-loss process; allocated only when the plan's loss model is
  /// active, so ideal channels take no RNG draws from it.
  std::unique_ptr<faults::ChannelModel> channel_;
  std::uint64_t arq_retries_ = 0;
  std::uint64_t broadcast_losses_ = 0;

  /// Spatial index over current motion segments; null unless
  /// selects_grid() holds for this field and range.
  std::unique_ptr<scale::SpatialGrid> grid_;
  /// Receiver scratch for deliver_broadcast, pre-sized to node_count so the
  /// gather writes by index (see gather_receivers).
  std::vector<NodeId> delivery_ids_;
  /// Per node, a lower bound on the oldest last_heard in its neighbour
  /// table: hello receptions run the expiry pass only once it is stale.
  std::vector<sim::Time> oldest_heard_;
};

}  // namespace alert::net
