#pragma once

/// \file mobility.hpp
/// Node movement models used by the paper's evaluation (Sec. 5.1):
///  * random waypoint [17] — each node independently picks a uniform point
///    in the field and moves there at constant speed, optionally pausing;
///  * reference-point group mobility [18] — groups follow a moving logical
///    reference point doing random waypoint over the field; each member
///    picks successive waypoints inside a disc of `group_range` metres
///    around its group's reference point (paper configs: 10 groups/150 m
///    and 5 groups/200 m).
///
/// Motion is piecewise linear and event-driven: a model sets a node's
/// current segment and is asked for the next one when the segment ends, so
/// position lookup is O(1) with no per-tick updates.

#include <span>
#include <vector>

#include "net/node.hpp"
#include "sim/event_queue.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"

namespace alert::net {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Place every node and give it its first motion segment at time 0.
  virtual void initialize(std::span<Node> nodes, util::Rng& rng) = 0;

  /// A node's segment expired at `now`: give it the next one.
  virtual void next_segment(Node& node, sim::Time now, util::Rng& rng) = 0;
};

/// Random waypoint with constant speed and optional pause time.
class RandomWaypoint final : public MobilityModel {
 public:
  RandomWaypoint(util::Rect field, double speed_mps, double pause_s = 0.0)
      : field_(field), speed_(speed_mps), pause_(pause_s) {}

  void initialize(std::span<Node> nodes, util::Rng& rng) override;
  void next_segment(Node& node, sim::Time now, util::Rng& rng) override;

 private:
  util::Rect field_;
  double speed_;
  double pause_;
};

/// Reference-point group mobility.
class GroupMobility final : public MobilityModel {
 public:
  GroupMobility(util::Rect field, double speed_mps, std::size_t groups,
                double group_range_m);

  void initialize(std::span<Node> nodes, util::Rng& rng) override;
  void next_segment(Node& node, sim::Time now, util::Rng& rng) override;

  [[nodiscard]] std::size_t groups() const { return refs_.size(); }
  /// The logical reference point of group `g` at time t (for tests).
  [[nodiscard]] util::Vec2 reference_point(std::size_t g, sim::Time t) const;

 private:
  struct GroupRef {
    util::Vec2 start_pos;
    sim::Time start = 0.0;
    util::Vec2 velocity;
    sim::Time end = 0.0;
  };

  void advance_reference(std::size_t g, sim::Time now, util::Rng& rng);
  [[nodiscard]] std::size_t group_of(NodeId id) const;

  util::Rect field_;
  double speed_;
  double range_;
  std::vector<GroupRef> refs_;
  std::size_t node_count_ = 0;
};

/// Degenerate model for static scenarios (speed 0 in Fig. 13a) and unit
/// tests needing fixed topologies.
class StaticPlacement final : public MobilityModel {
 public:
  /// Uniform random static placement in `field`.
  explicit StaticPlacement(util::Rect field) : field_(field) {}
  /// Exact positions (size must match the node count at initialize()).
  explicit StaticPlacement(std::vector<util::Vec2> positions)
      : positions_(std::move(positions)) {}

  void initialize(std::span<Node> nodes, util::Rng& rng) override;
  void next_segment(Node& node, sim::Time now, util::Rng& rng) override;

 private:
  util::Rect field_;
  std::vector<util::Vec2> positions_;
};

}  // namespace alert::net
