#pragma once

/// \file location_service.hpp
/// The secure location service of Sec. 2.2: trusted servers that hold each
/// node's (position, public key), replicated among themselves for
/// reliability. A source that knows a destination's *identity* obtains its
/// location and public key here — the real identity is never exposed on the
/// MANET itself.
///
/// Faithfulness notes:
///  * Nodes push position updates every `update_period_s`; queries return
///    the *last pushed* snapshot, so routing targets go stale exactly as in
///    the paper's "without destination update" runs (freeze_updates()
///    models that switch; Figs. 14b/15b/16b).
///  * A query costs the signer a signature and a symmetric decryption
///    (Sec. 2.2's signed request / encrypted reply with the predistributed
///    shared key); the caller charges those through crypto::CostModel.
///  * Servers may fail; a query succeeds while at least one replica is
///    alive (Sec. 2.2: "location servers are allowed to fail").
///  * Message counters implement the overhead accounting of Sec. 4.3
///    (N_L(N_L-1)fT inter-server + NfT update messages), which the
///    analysis module compares against the f ≪ F usability condition.

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/pubkey.hpp"
#include "net/network.hpp"

namespace alert::loc {

struct LocationRecord {
  util::Vec2 position;
  crypto::PublicKey pubkey;
  net::Pseudonym pseudonym = 0;
  sim::Time updated_at = 0.0;
};

struct LocationServiceConfig {
  std::size_t server_count = 14;   ///< ≈ sqrt(N) for N=200 (Sec. 4.3)
  double update_period_s = 1.0;    ///< node position push frequency f
  double replication_period_s = 1.0;  ///< inter-server sync frequency
};

class LocationService {
 public:
  /// Registers periodic update/replication processes on the network's
  /// simulator until `horizon`.
  LocationService(net::Network& network, LocationServiceConfig config,
                  sim::Time horizon);

  /// Look up a destination by its real identity. Returns nullopt when every
  /// server replica has failed. The caller is responsible for charging
  /// crypto cost (query_crypto_cost_s()).
  [[nodiscard]] std::optional<LocationRecord> query(net::NodeId requester,
                                                    net::NodeId target);

  /// Simulated crypto latency of one query: sign request + decrypt reply.
  [[nodiscard]] double query_crypto_cost_s() const;

  /// Stop applying position updates (the paper's "without destination
  /// update" runs): queries keep returning the snapshot taken before the
  /// freeze. Pseudonym/pubkey data stays current — only positions freeze.
  void freeze_updates() { frozen_ = true; }
  void unfreeze_updates() { frozen_ = false; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// Fail / restore a replica (reliability tests).
  void fail_server(std::size_t index);
  void restore_server(std::size_t index);
  [[nodiscard]] std::size_t alive_servers() const;
  [[nodiscard]] std::size_t server_count() const { return alive_.size(); }

  // --- Sec. 4.3 overhead accounting --------------------------------------
  [[nodiscard]] std::uint64_t update_messages() const {
    return update_messages_;
  }
  [[nodiscard]] std::uint64_t inter_server_messages() const {
    return inter_server_messages_;
  }
  [[nodiscard]] std::uint64_t query_messages() const {
    return query_messages_;
  }

 private:
  void push_updates();

  net::Network& net_;
  LocationServiceConfig config_;
  std::vector<LocationRecord> records_;
  std::vector<bool> alive_;
  bool frozen_ = false;
  std::uint64_t update_messages_ = 0;
  std::uint64_t inter_server_messages_ = 0;
  std::uint64_t query_messages_ = 0;
};

}  // namespace alert::loc
