#include "net/node.hpp"

#include <algorithm>
#include <limits>

namespace alert::net {

static_assert(sizeof(Node) <= 152,
              "Node outgrew the range scan's 152-byte stride; see its "
              "layout note");

void Node::set_motion(util::Vec2 start_pos, sim::Time start_time,
                      util::Vec2 velocity, sim::Time end_time) {
  seg_start_pos_ = start_pos;
  seg_start_ = start_time;
  velocity_ = velocity;
  seg_end_ = end_time;
}

void Node::observe_neighbor(const NeighborInfo& info, sim::Time now) {
  for (auto& n : neighbors_) {
    if (n.pseudonym == info.pseudonym) {
      n = info;
      n.last_heard = now;
      return;
    }
  }
  NeighborInfo entry = info;
  entry.last_heard = now;
  neighbors_.push_back(entry);
}

sim::Time Node::expire_neighbors(sim::Time now, double max_age) {
  sim::Time oldest = std::numeric_limits<sim::Time>::infinity();
  std::erase_if(neighbors_, [now, max_age, &oldest](const NeighborInfo& n) {
    const bool stale = now - n.last_heard > max_age;
    if (!stale) oldest = std::min(oldest, n.last_heard);
    return stale;
  });
  return oldest;
}

void Node::remove_neighbor(Pseudonym p) {
  std::erase_if(neighbors_,
                [p](const NeighborInfo& n) { return n.pseudonym == p; });
}

const NeighborInfo* Node::find_neighbor(Pseudonym p) const {
  for (const auto& n : neighbors_) {
    if (n.pseudonym == p) return &n;
  }
  return nullptr;
}

}  // namespace alert::net
