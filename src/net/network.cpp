#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "crypto/sha1.hpp"

namespace alert::net {

namespace {

/// Fallback pseudonym provider: SHA-1(MAC || nanosecond timestamp with
/// randomized sub-second digits), per Sec. 2.2. loc::PseudonymManager
/// implements the full policy (expiry windows, collision audit); this
/// default keeps Network usable standalone.
class DefaultPseudonyms final : public PseudonymProvider {
 public:
  explicit DefaultPseudonyms(std::uint64_t seed) : rng_(seed) {}

  Pseudonym make(const Node& node, sim::Time now) override {
    // Keep 1-second precision and randomize within a tenth (Sec. 2.2's
    // randomization): attacker cannot recompute the exact timestamp.
    const auto seconds = static_cast<std::uint64_t>(now);
    const std::uint64_t jitter = rng_.below(100'000'000);  // sub-second ns
    std::uint8_t buf[24];
    auto put = [&buf](std::size_t off, std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        buf[off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
      }
    };
    put(0, node.mac_address());
    put(8, seconds);
    put(16, jitter);
    return crypto::digest_prefix64(crypto::Sha1::hash(
        std::span<const std::uint8_t>(buf, sizeof buf)));
  }

 private:
  util::Rng rng_;
};

}  // namespace

PacketFate fate_for(DropReason why) {
  switch (why) {
    case DropReason::OutOfRange: return PacketFate::Dropped;
    case DropReason::NoHandler: return PacketFate::Dropped;
    case DropReason::TtlExpired: return PacketFate::Dropped;
    case DropReason::ChannelLoss: return PacketFate::LostChannel;
    case DropReason::NodeDown: return PacketFate::OwnerCrashed;
    case DropReason::RetryExhausted: return PacketFate::RetryExhausted;
  }
  return PacketFate::Dropped;
}

bool Network::selects_grid(util::Rect field, double radio_range_m) {
  const auto cells = [radio_range_m](double extent) {
    return std::max(1.0, std::ceil(extent / radio_range_m));
  };
  return cells(field.width()) * cells(field.height()) >= kGridMinCells;
}

Network::Network(sim::Simulator& simulator, NetworkConfig config,
                 std::unique_ptr<MobilityModel> mobility, util::Rng rng,
                 sim::Time horizon)
    : sim_(simulator),
      config_(config),
      mobility_(std::move(mobility)),
      rng_(rng),
      horizon_(horizon),
      mac_(config.mac),
      energy_(config.energy, config.node_count) {
  assert(mobility_ != nullptr);
  if (obs::Profiler* profiler = sim_.profiler(); profiler != nullptr) {
    tx_scope_ = profiler->scope("net.transmit");
    deliver_scope_ = profiler->scope("net.deliver");
    query_scope_ = profiler->scope("net.query");
    mac_.set_profiler(profiler);
  }
  default_provider_ =
      std::make_unique<DefaultPseudonyms>(rng_.fork(0xA11CE).next());
  pseudonym_provider_ = default_provider_.get();

  // Frame-loss process: only materialized when the plan asks for loss
  // (fork() is const on the parent, so merely checking costs no draws and
  // the ideal-channel RNG stream is untouched).
  if (config_.faults.loss.active()) {
    channel_ = std::make_unique<faults::ChannelModel>(
        config_.faults.loss, rng_.fork(0xFA17));
  }

  util::Rng keygen = rng_.fork(0x6E75);
  nodes_.reserve(config_.node_count);
  for (NodeId id = 0; id < config_.node_count; ++id) {
    const std::uint64_t mac_addr = 0x02'00'00'00'00'00ULL + id;
    nodes_.push_back(std::make_unique<Node>(
        id, mac_addr, crypto::generate_keypair(keygen,
                                               config_.rsa_modulus_bits)));
  }
  handlers_.assign(nodes_.size(), nullptr);

  delivery_ids_.resize(nodes_.size());
  oldest_heard_.assign(nodes_.size(),
                       std::numeric_limits<sim::Time>::infinity());
  if (selects_grid(config_.field, config_.radio_range_m)) {
    grid_ = std::make_unique<scale::SpatialGrid>(
        config_.field, config_.radio_range_m,
        static_cast<std::uint32_t>(nodes_.size()));
  }

  mobility_->initialize(nodes_, rng_);
  for (auto& n : nodes_) {
    rotate_pseudonym(*n);
    if (grid_ != nullptr) index_segment(*n);
    schedule_mobility(*n);
  }

  // Hello beaconing: desynchronized start within one period.
  for (auto& n : nodes_) {
    Node* node = n.get();
    const double phase = rng_.uniform(0.0, config_.hello_period_s);
    sim_.schedule_periodic(phase, config_.hello_period_s,
                           [this, node] { send_hello(*node); });
  }
  // Pseudonym rotation.
  for (auto& n : nodes_) {
    Node* node = n.get();
    const double phase = rng_.uniform(0.0, config_.pseudonym_period_s);
    sim_.schedule_periodic(phase, config_.pseudonym_period_s,
                           [this, node] { rotate_pseudonym(*node); });
  }
}

Network::~Network() = default;

template <typename Visit>
std::size_t Network::for_each_in_range(util::Vec2 center, double radius,
                                       sim::Time t, Visit&& visit) const {
  // One exact filter for both paths: the grid only narrows the candidates,
  // so it keeps exactly the ids the scan keeps. The unconditional add keeps
  // the scan's match count branch-free.
  const double r2 = radius * radius;
  std::size_t found = 0;
  const auto filter = [&](const Node& n) {
    const bool in_range = util::distance_sq(n.position(t), center) <= r2;
    if (in_range) visit(n.id());
    found += in_range ? 1 : 0;
  };
  if (grid_ != nullptr) {
    grid_->for_each_candidate(
        center, radius, [&](std::uint32_t id) { filter(*nodes_[id]); });
  } else {
    for (const auto& n : nodes_) filter(*n);
  }
  return found;
}

std::vector<NodeId> Network::nodes_within(util::Vec2 center, double radius,
                                          sim::Time t) const {
  std::vector<NodeId> out;
  for_each_in_range(center, radius, t,
                    [&out](NodeId id) { out.push_back(id); });
  // The grid visits in cell order; restore the scan's ascending ids.
  if (grid_ != nullptr) std::sort(out.begin(), out.end());
  return out;
}

std::size_t Network::neighbour_count(util::Vec2 center, double radius,
                                     sim::Time t) const {
  ALERT_OBS_TIMED(sim_.profiler(), query_scope_);
  return for_each_in_range(center, radius, t, [](NodeId) {});
}

std::size_t Network::gather_receivers(util::Vec2 center, double radius,
                                      sim::Time t) {
  ALERT_OBS_TIMED(sim_.profiler(), query_scope_);
  NodeId* const first = delivery_ids_.data();
  NodeId* last = first;
  for_each_in_range(center, radius, t, [&last](NodeId id) { *last++ = id; });
  if (grid_ != nullptr) std::sort(first, last);
  return static_cast<std::size_t>(last - first);
}

void Network::index_segment(Node& node) {
  // Cover only the sub-segment queries can reach: from the node's position
  // now (reindexing happens at waypoint events, i.e. segment starts) to
  // where it will be at the earlier of segment end and horizon. This keeps
  // a far-future leg — or a hold-forever segment — from smearing coverage
  // across cells no query will ever need.
  const sim::Time now = sim_.now();
  const sim::Time end = std::max(std::min(node.segment_end(), horizon_), now);
  grid_->update(node.id(), node.position(now), node.position(end));
}

NodeId Network::resolve_pseudonym(Pseudonym p) const {
  const auto it = pseudonym_registry_.find(p);
  return it == pseudonym_registry_.end() ? kInvalidNode : it->second;
}

void Network::attach_handler(NodeId id, PacketHandler* handler) {
  handlers_.at(id) = handler;
}

void Network::add_listener(TraceListener* listener) {
  listeners_.push_back(listener);
}

void Network::set_pseudonym_provider(PseudonymProvider* provider) {
  pseudonym_provider_ = provider != nullptr ? provider
                                            : default_provider_.get();
}

void Network::rotate_pseudonym(Node& node) {
  // Old pseudonym stays resolvable until overwritten by another node —
  // mirrors neighbours' stale tables remaining temporarily usable.
  const Pseudonym p = pseudonym_provider_->make(node, sim_.now());
  node.set_pseudonym(p);
  pseudonym_registry_[p] = node.id();
}

void Network::schedule_mobility(Node& node) {
  const sim::Time end = node.segment_end();
  if (end >= horizon_) return;
  Node* n = &node;
  sim_.schedule_at(end, [this, n] {
    mobility_->next_segment(*n, sim_.now(), rng_);
    if (grid_ != nullptr) index_segment(*n);
    schedule_mobility(*n);
  });
}

void Network::send_hello(Node& node) {
  if (!node.alive()) return;  // a crashed radio does not beacon
  ++hello_count_;
  Packet pkt;
  pkt.kind = PacketKind::Hello;
  pkt.src_pseudonym = node.pseudonym();
  pkt.size_bytes = 32;
  pkt.true_source = node.id();
  pkt.prev_hop = node.id();
  broadcast(node, std::move(pkt));
}

void Network::unicast(Node& from, Pseudonym to, Packet pkt,
                      double processing_delay) {
  ALERT_OBS_TIMED(sim_.profiler(), tx_scope_);
  pkt.prev_hop = from.id();
  // Fold the transmission into the determinism audit: uid, kind and sender
  // are all seed-deterministic words (never addresses or wall-clock).
  sim_.audit((pkt.uid << 8) ^ static_cast<std::uint64_t>(pkt.kind));
  sim_.audit(from.id());
  if (!from.alive()) {
    // The holder's radio died with the frame still queued (e.g. a timer
    // fired on a node that crashed since): no air time was spent.
    drop_and_notify(from, to, pkt, DropReason::NodeDown);
    return;
  }
  transmit_unicast(from, to, std::move(pkt), processing_delay, 1);
}

void Network::transmit_unicast(Node& from, Pseudonym to, Packet pkt,
                               double processing_delay, int attempt) {
  const sim::Time now = sim_.now();
  const util::Vec2 pos = from.position(now);
  const std::size_t contenders =
      neighbour_count(pos, config_.radio_range_m, now);
  const MacGrant grant =
      mac_.acquire(from, pkt.size_bytes, now + processing_delay, contenders,
                   rng_);
  energy_.charge_tx(from.id(), pkt.size_bytes, config_.radio_range_m);
  const NodeId receiver = resolve_pseudonym(to);
  for (auto* l : listeners_) l->on_transmit(from, pkt, grant.start);

  const NodeId sender = from.id();
  const sim::Time arrive =
      grant.start + grant.tx_time +
      mac_.propagation_delay(config_.radio_range_m);
  sim_.schedule_at(arrive,
                   [this, sender, receiver, to, attempt,
                    pkt = std::move(pkt)] {
                     deliver_unicast(sender, receiver, to, pkt, attempt);
                   });
}

void Network::broadcast(Node& from, Packet pkt, double processing_delay) {
  ALERT_OBS_TIMED(sim_.profiler(), tx_scope_);
  pkt.prev_hop = from.id();
  sim_.audit((pkt.uid << 8) ^ static_cast<std::uint64_t>(pkt.kind));
  sim_.audit(from.id());
  if (!from.alive()) return;  // dead radio: the broadcast never airs
  const sim::Time now = sim_.now();
  const util::Vec2 pos = from.position(now);
  const std::size_t contenders =
      neighbour_count(pos, config_.radio_range_m, now);
  const MacGrant grant =
      mac_.acquire(from, pkt.size_bytes, now + processing_delay, contenders,
                   rng_);
  energy_.charge_tx(from.id(), pkt.size_bytes, config_.radio_range_m);
  for (auto* l : listeners_) l->on_transmit(from, pkt, grant.start);

  const NodeId sender = from.id();
  const sim::Time arrive =
      grant.start + grant.tx_time +
      mac_.propagation_delay(config_.radio_range_m);
  // Capture the sender position at transmission time: receivers are the
  // nodes inside the range disc around where the frame was emitted.
  sim_.schedule_at(arrive, [this, sender, pos, pkt = std::move(pkt)] {
    deliver_broadcast(sender, pkt, pos);
  });
}

void Network::deliver_broadcast(NodeId sender, const Packet& pkt,
                                util::Vec2 sender_pos) {
  ALERT_OBS_TIMED(sim_.profiler(), deliver_scope_);
  const sim::Time now = sim_.now();
  const std::size_t receiver_count =
      gather_receivers(sender_pos, config_.radio_range_m, now);
  // Channel faults: jammer discs over either endpoint (the sender's once per
  // frame), then the loss model's independent draw for each receiver. No
  // ack exists for broadcasts, so a loss is simply a missed reception (this
  // starves neighbour tables under loss — hellos are broadcasts too).
  const bool sender_jammed = config_.faults.jammed(sender_pos, now);
  const bool any_outage = !config_.faults.outages.empty();
  for (std::size_t i = 0; i < receiver_count; ++i) {
    const NodeId id = delivery_ids_[i];
    if (id == sender) continue;
    Node& receiver = *nodes_[id];
    if (!receiver.alive()) continue;  // crashed radios hear nothing
    if (sender_jammed ||
        (any_outage && config_.faults.jammed(receiver.position(now), now)) ||
        (channel_ != nullptr && channel_->lose_frame(sender, id))) {
      ++broadcast_losses_;
      continue;
    }
    energy_.charge_rx(id, pkt.size_bytes);
    if (pkt.kind == PacketKind::Hello) {
      const Node& s = *nodes_[sender];
      receiver.observe_neighbor(
          NeighborInfo{pkt.src_pseudonym, s.position(now), s.public_key(),
                       now},
          now);
      sim::Time& oldest = oldest_heard_[id];
      oldest = std::min(oldest, now);
      if (now - oldest > config_.neighbor_max_age_s) {
        oldest = receiver.expire_neighbors(now, config_.neighbor_max_age_s);
      }
      continue;  // hellos are consumed by the neighbour layer
    }
    for (auto* l : listeners_) l->on_deliver(receiver, pkt, now);
    if (handlers_[id] != nullptr) handlers_[id]->handle(receiver, pkt);
  }
}

void Network::deliver_unicast(NodeId sender, NodeId receiver, Pseudonym to,
                              const Packet& pkt, int attempt) {
  ALERT_OBS_TIMED(sim_.profiler(), deliver_scope_);
  const sim::Time now = sim_.now();

  // Did this attempt's frame reach a live radio? Causes are checked from
  // the outside in: addressing, geometry, receiver liveness, then channel.
  bool lost = false;
  DropReason why = DropReason::OutOfRange;
  if (receiver == kInvalidNode) {
    lost = true;  // stale pseudonym: nobody owns this address any more
  } else {
    Node& rx = *nodes_[receiver];
    const util::Vec2 from_pos = nodes_[sender]->position(now);
    const util::Vec2 to_pos = rx.position(now);
    if (util::distance(from_pos, to_pos) > config_.radio_range_m) {
      lost = true;
    } else if (!rx.alive()) {
      lost = true;
      why = DropReason::NodeDown;
    } else if (config_.faults.jammed(from_pos, now) ||
               config_.faults.jammed(to_pos, now) ||
               (channel_ != nullptr && channel_->lose_frame(sender,
                                                            receiver))) {
      lost = true;
      why = DropReason::ChannelLoss;
    }
  }

  if (!lost) {
    Node& rx = *nodes_[receiver];
    energy_.charge_rx(receiver, pkt.size_bytes);
    if (config_.mac.arq.enabled) {
      // Link-layer ack: a short frame back to the sender, charged as air
      // time and energy on both radios (latency is folded into the ARQ
      // timeout the sender already waits out on loss).
      energy_.charge_tx(receiver, config_.mac.arq.ack_bytes,
                        config_.radio_range_m);
      energy_.charge_rx(sender, config_.mac.arq.ack_bytes);
    }
    for (auto* l : listeners_) l->on_deliver(rx, pkt, now);
    if (handlers_[receiver] != nullptr) {
      handlers_[receiver]->handle(rx, pkt);
    } else {
      for (auto* l : listeners_)
        l->on_drop(rx, pkt, now, DropReason::NoHandler);
    }
    return;
  }

  Node& tx = *nodes_[sender];
  if (config_.mac.arq.enabled && tx.alive() &&
      attempt < config_.mac.arq.retry_limit) {
    // No ack within the timeout: binary-exponential backoff, then try
    // again. The retry is audited (uid + attempt) so fault runs digest
    // reproducibly, and re-acquires the MAC at current contention.
    ++arq_retries_;
    sim_.audit((std::uint64_t{0xA49} << 48) ^ (pkt.uid << 8) ^
               static_cast<std::uint64_t>(attempt));
    const double wait =
        config_.mac.arq.ack_timeout_s +
        config_.mac.arq.backoff_base_s *
            static_cast<double>(1ULL << (attempt - 1)) *
            rng_.uniform(0.5, 1.5);
    sim_.schedule_in(wait, [this, sender, to, attempt, pkt] {
      Node& from = *nodes_[sender];
      if (!from.alive()) {
        drop_and_notify(from, to, pkt, DropReason::NodeDown);
        return;
      }
      transmit_unicast(from, to, pkt, 0.0, attempt + 1);
    });
    return;
  }
  if (config_.mac.arq.enabled && attempt >= config_.mac.arq.retry_limit) {
    why = DropReason::RetryExhausted;
  }
  drop_and_notify(tx, to, pkt, why);
}

void Network::drop_and_notify(Node& holder, Pseudonym to, const Packet& pkt,
                              DropReason why) {
  const sim::Time now = sim_.now();
  for (auto* l : listeners_) l->on_drop(holder, pkt, now, why);
  // Failure feedback exists only when the link layer can actually detect
  // failure (ARQ acks). Ideal-channel runs keep the pre-fault contract:
  // the drop is observed by listeners and the uid ages out at the horizon.
  if (!config_.mac.arq.enabled) return;
  if (handlers_[holder.id()] != nullptr) {
    handlers_[holder.id()]->on_send_failed(holder, pkt, to, why);
  } else if (pkt.uid != 0 && ledger_.is_open(pkt.uid)) {
    ledger_.close(pkt.uid, fate_for(why), now);
  }
}

}  // namespace alert::net
