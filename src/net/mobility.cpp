#include "net/mobility.hpp"

#include <cassert>
#include <cmath>
#include <limits>

namespace alert::net {

namespace {
constexpr sim::Time kForever = std::numeric_limits<sim::Time>::max() / 4;

/// Build a segment from `from` toward `to` at `speed`; returns end time.
sim::Time segment_toward(Node& node, util::Vec2 from, util::Vec2 to,
                         double speed, sim::Time now) {
  const double d = util::distance(from, to);
  if (speed <= 0.0 || d < 1e-9) {
    node.set_motion(from, now, {}, kForever);
    return kForever;
  }
  const sim::Time end = now + d / speed;
  node.set_motion(from, now, (to - from).normalized() * speed, end);
  return end;
}
}  // namespace

// --- RandomWaypoint --------------------------------------------------------

void RandomWaypoint::initialize(std::span<Node> nodes, util::Rng& rng) {
  for (Node& n : nodes) {
    const util::Vec2 start = rng.point_in(field_);
    segment_toward(n, start, rng.point_in(field_), speed_, 0.0);
  }
}

void RandomWaypoint::next_segment(Node& node, sim::Time now, util::Rng& rng) {
  const util::Vec2 here = node.position(now);
  if (pause_ > 0.0 && node.velocity().norm_sq() > 0.0) {
    // Arrived: pause in place before the next leg.
    node.set_motion(here, now, {}, now + pause_);
    return;
  }
  segment_toward(node, here, rng.point_in(field_), speed_, now);
}

// --- GroupMobility ---------------------------------------------------------

GroupMobility::GroupMobility(util::Rect field, double speed_mps,
                             std::size_t groups, double group_range_m)
    : field_(field), speed_(speed_mps), range_(group_range_m), refs_(groups) {
  assert(groups > 0);
}

std::size_t GroupMobility::group_of(NodeId id) const {
  return id % refs_.size();
}

util::Vec2 GroupMobility::reference_point(std::size_t g, sim::Time t) const {
  const GroupRef& r = refs_[g];
  const sim::Time eff = std::clamp(t, r.start, r.end);
  return r.start_pos + r.velocity * (eff - r.start);
}

void GroupMobility::advance_reference(std::size_t g, sim::Time now,
                                      util::Rng& rng) {
  GroupRef& r = refs_[g];
  const util::Vec2 here = reference_point(g, now);
  const util::Vec2 target = rng.point_in(field_);
  const double d = util::distance(here, target);
  r.start_pos = here;
  r.start = now;
  if (speed_ <= 0.0 || d < 1e-9) {
    r.velocity = {};
    r.end = kForever;
  } else {
    // The reference point moves at the member speed; members inside the
    // disc add their own local motion on top.
    r.velocity = (target - here).normalized() * speed_;
    r.end = now + d / speed_;
  }
}

void GroupMobility::initialize(std::span<Node> nodes, util::Rng& rng) {
  node_count_ = nodes.size();
  for (std::size_t g = 0; g < refs_.size(); ++g) {
    refs_[g].start_pos = rng.point_in(field_);
    refs_[g].start = 0.0;
    advance_reference(g, 0.0, rng);
  }
  for (Node& n : nodes) {
    const std::size_t g = group_of(n.id());
    const double ang = rng.uniform(0.0, 2.0 * M_PI);
    const double rad = range_ * std::sqrt(rng.uniform());
    const util::Vec2 start = field_.clamp(
        reference_point(g, 0.0) +
        util::Vec2{rad * std::cos(ang), rad * std::sin(ang)});
    next_segment(n, 0.0, rng);
    // next_segment set a segment from the reference area; restart it from
    // the sampled start position instead.
    segment_toward(n, start, field_.clamp(reference_point(g, 0.0)), speed_,
                   0.0);
  }
}

void GroupMobility::next_segment(Node& node, sim::Time now, util::Rng& rng) {
  const std::size_t g = group_of(node.id());
  if (now >= refs_[g].end) advance_reference(g, now, rng);
  // Member waypoint: a point in the disc around where the reference point
  // will be a few seconds from now, so members chase the moving group.
  constexpr double kLookaheadS = 5.0;
  const util::Vec2 future_ref =
      reference_point(g, std::min(now + kLookaheadS, refs_[g].end));
  const double ang = rng.uniform(0.0, 2.0 * M_PI);
  const double rad = range_ * std::sqrt(rng.uniform());
  const util::Vec2 target = field_.clamp(
      future_ref + util::Vec2{rad * std::cos(ang), rad * std::sin(ang)});
  const util::Vec2 here = node.position(now);
  // Cap the segment so the member re-evaluates the group position often.
  const sim::Time end = segment_toward(node, here, target, speed_, now);
  if (end > now + kLookaheadS && speed_ > 0.0) {
    node.set_motion(here, now, node.velocity(), now + kLookaheadS);
  }
}

// --- StaticPlacement -------------------------------------------------------

void StaticPlacement::initialize(std::span<Node> nodes, util::Rng& rng) {
  if (!positions_.empty()) {
    assert(positions_.size() == nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].set_motion(positions_[i], 0.0, {}, kForever);
    }
    return;
  }
  for (Node& n : nodes) {
    n.set_motion(rng.point_in(field_), 0.0, {}, kForever);
  }
}

void StaticPlacement::next_segment(Node& node, sim::Time now,
                                   util::Rng& rng) {
  (void)rng;
  node.set_motion(node.position(now), now, {}, kForever);
}

}  // namespace alert::net
