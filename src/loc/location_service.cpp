#include "loc/location_service.hpp"

#include <algorithm>
#include <cassert>

namespace alert::loc {

LocationService::LocationService(net::Network& network,
                                 LocationServiceConfig config,
                                 sim::Time horizon)
    : net_(network), config_(config) {
  assert(config_.server_count > 0);
  alive_.assign(config_.server_count, true);
  records_.resize(net_.size());
  push_updates();  // initial registration at t=0

  net_.simulator().schedule_periodic(
      config_.update_period_s, config_.update_period_s,
      [this] { push_updates(); });
  net_.simulator().schedule_periodic(
      config_.replication_period_s, config_.replication_period_s, [this] {
        // Full mesh replication: N_L * (N_L - 1) messages per round.
        const auto nl = static_cast<std::uint64_t>(alive_servers());
        inter_server_messages_ += nl * (nl - 1);
      });
  (void)horizon;  // periodic processes are bounded by the simulator run
}

void LocationService::push_updates() {
  const sim::Time now = net_.now();
  for (net::NodeId id = 0; id < net_.size(); ++id) {
    const net::Node& n = net_.node(id);
    ++update_messages_;
    LocationRecord& rec = records_[id];
    if (!frozen_) {
      rec.position = n.position(now);
      rec.updated_at = now;
    }
    // Identity material stays current even when positions are frozen: the
    // "without destination update" experiments disable *location* updates
    // only.
    rec.pubkey = n.public_key();
    rec.pseudonym = n.pseudonym();
  }
}

std::optional<LocationRecord> LocationService::query(net::NodeId requester,
                                                     net::NodeId target) {
  (void)requester;
  if (alive_servers() == 0) return std::nullopt;
  ++query_messages_;
  if (target >= records_.size()) return std::nullopt;
  return records_[target];
}

double LocationService::query_crypto_cost_s() const {
  const crypto::CostModel& c = net_.config().crypto_cost;
  // Sign the request with own identity; decrypt the reply with the
  // predistributed shared key.
  return c.sign_s + c.symmetric_decrypt_s;
}

void LocationService::fail_server(std::size_t index) {
  alive_.at(index) = false;
}

void LocationService::restore_server(std::size_t index) {
  alive_.at(index) = true;
}

std::size_t LocationService::alive_servers() const {
  return static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), true));
}

}  // namespace alert::loc
