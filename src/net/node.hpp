#pragma once

/// \file node.hpp
/// A mobile node: identity material (MAC address, RSA private key — the
/// public key derives from it — and dynamic pseudonym slot), kinematic
/// state (piecewise-linear motion segment set by the mobility model), and
/// the neighbour table built from received hello beacons — the only view of
/// the network a protocol is allowed to use.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/pubkey.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "util/geometry.hpp"

namespace alert::net {

/// What a node knows about a neighbour, learned from hello beacons
/// (pseudonym + position + public key, Sec. 2.2). Position is as of the
/// last hello, so it goes stale as nodes move — exactly the staleness that
/// degrades geographic forwarding at speed.
struct NeighborInfo {
  Pseudonym pseudonym = 0;
  util::Vec2 position;
  crypto::PublicKey pubkey;
  sim::Time last_heard = 0.0;
};

class Node {
 public:
  Node(NodeId id, std::uint64_t mac_address, const crypto::KeyPair& keys)
      : id_(id), mac_address_(mac_address), key_(keys.priv) {
    assert(keys.pub == key_.public_key());
  }

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] std::uint64_t mac_address() const { return mac_address_; }
  [[nodiscard]] crypto::PublicKey public_key() const {
    return key_.public_key();
  }
  [[nodiscard]] const crypto::PrivateKey& private_key() const { return key_; }

  [[nodiscard]] Pseudonym pseudonym() const { return pseudonym_; }
  void set_pseudonym(Pseudonym p) { pseudonym_ = p; }

  // --- kinematics -------------------------------------------------------
  /// Replace the current motion segment: from `start_pos` at `start_time`,
  /// move with `velocity` until `end_time`, then hold position.
  void set_motion(util::Vec2 start_pos, sim::Time start_time,
                  util::Vec2 velocity, sim::Time end_time);

  /// Inline: net.query evaluates it for every node on every transmission.
  [[nodiscard]] util::Vec2 position(sim::Time t) const {
    const sim::Time effective = std::clamp(t, seg_start_, seg_end_);
    return seg_start_pos_ + velocity_ * (effective - seg_start_);
  }
  [[nodiscard]] util::Vec2 velocity() const { return velocity_; }
  [[nodiscard]] sim::Time segment_end() const { return seg_end_; }

  // --- radio liveness (fault churn, src/faults) -------------------------
  [[nodiscard]] bool alive() const { return alive_; }
  /// Power the radio down/up. Crashing wipes the neighbour table and the
  /// MAC busy horizon: a rebooted node rediscovers the world from hellos,
  /// and whatever it was transmitting died with it.
  void set_alive(bool up) {
    alive_ = up;
    if (!up) {
      neighbors_.clear();
      mac_busy_until = 0.0;
    }
  }

  // --- neighbour table --------------------------------------------------
  /// Record a received hello beacon.
  void observe_neighbor(const NeighborInfo& info, sim::Time now);
  /// Drop entries not refreshed within `max_age` and return the oldest
  /// surviving last_heard (+infinity if none survive): while `now` minus a
  /// lower bound on it is at most `max_age`, a pass would drop nothing.
  sim::Time expire_neighbors(sim::Time now, double max_age);
  /// Drop one entry by pseudonym (link-layer failure feedback: the ARQ gave
  /// up on this neighbour, stop routing through it).
  void remove_neighbor(Pseudonym p);

  [[nodiscard]] const std::vector<NeighborInfo>& neighbors() const {
    return neighbors_;
  }
  [[nodiscard]] const NeighborInfo* find_neighbor(Pseudonym p) const;

  /// Neighbour whose (beaconed) position is closest to `target`, or nullptr
  /// if the table is empty. Excludes `exclude` when provided.
  [[nodiscard]] const NeighborInfo* closest_neighbor_to(
      util::Vec2 target, std::optional<Pseudonym> exclude = {}) const;

  // --- MAC state (owned by Mac, stored inline for locality) -------------
  sim::Time mac_busy_until = 0.0;

 private:
  // Layout: net.query reads id_ and the motion segment of every node on
  // every transmission (all 10,000 on a 10k arena). Storing only the
  // private key (the public key derives from it) and packing alive_ beside
  // id_ keeps the node at 152 bytes, one 160-byte heap chunk, so the scan
  // streams no more bytes per node than that; node.cpp asserts the size.
  NodeId id_;
  bool alive_ = true;
  std::uint64_t mac_address_;
  crypto::PrivateKey key_;

  util::Vec2 seg_start_pos_;
  sim::Time seg_start_ = 0.0;
  util::Vec2 velocity_;
  sim::Time seg_end_ = 0.0;

  Pseudonym pseudonym_ = 0;
  std::vector<NeighborInfo> neighbors_;
};

}  // namespace alert::net
