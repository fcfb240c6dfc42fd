#include "perf/kernels.hpp"

#include <cmath>
#include <limits>

#include "campaign/spec.hpp"
#include "crypto/sha1.hpp"
#include "crypto/symmetric.hpp"
#include "net/mobility.hpp"
#include "util/check.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"

namespace alert::perf {

namespace {

constexpr std::size_t kHoldPending = 512;

/// The hold model: firing an event schedules its successor, so the pending
/// set keeps its size until the successor budget runs out.
struct HoldModel {
  sim::Simulator simulator;
  util::Rng delays{kKernelSeed};
  std::size_t successors_left = 0;

  void fire() {
    if (successors_left == 0) return;
    --successors_left;
    simulator.schedule_in(delays.uniform(), [this] { fire(); });
  }
};

}  // namespace

std::uint64_t run_dispatch_hold(std::size_t events) {
  ALERT_INVARIANT(events >= kHoldPending,
                  "hold kernel runs fewer events than it keeps pending");
  HoldModel hold;
  hold.successors_left = events - kHoldPending;
  for (std::size_t i = 0; i < kHoldPending; ++i) {
    hold.simulator.schedule_at(hold.delays.uniform(), [&hold] { hold.fire(); });
  }
  hold.simulator.run_until(std::numeric_limits<double>::infinity());
  ALERT_INVARIANT(hold.simulator.events_executed() == events,
                  "hold kernel lost events");
  return hold.simulator.events_executed();
}

QueryTopology::QueryTopology(std::size_t node_count, std::uint64_t seed,
                             double field_side_m)
    : simulator_(std::make_unique<sim::Simulator>()) {
  net::NetworkConfig config;
  config.node_count = node_count;
  config.field = util::Rect{0.0, 0.0, field_side_m, field_side_m};
  // Horizon 0: the constructor places nodes but schedules no periodic
  // processes, so the topology is pure t=0 state.
  network_ = std::make_unique<net::Network>(
      *simulator_, config,
      std::make_unique<net::StaticPlacement>(config.field), util::Rng(seed),
      0.0);
}

QueryTopology::~QueryTopology() = default;

std::uint64_t QueryTopology::run_queries(std::size_t queries) const {
  // Query centers come from their own fixed-seed stream, re-created per
  // call so repeated measurements of one topology scan identical centers.
  util::Rng centers(kKernelSeed ^ 0x5EA4C4ULL);
  const double radius = network_->config().radio_range_m;
  std::uint64_t found = 0;
  for (std::size_t i = 0; i < queries; ++i) {
    const util::Vec2 center = centers.point_in(network_->config().field);
    found += network_->nodes_within(center, radius, 0.0).size();
  }
  return found;
}

std::uint64_t run_sha1_512b(std::size_t ops) {
  const std::vector<std::uint8_t> data(512, 0xAB);
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    checksum += crypto::Sha1::hash(data)[0];
  }
  return checksum;
}

std::uint64_t run_xtea_ctr_512b(std::size_t ops) {
  const auto key = crypto::SymmetricKey::from_seed(kKernelSeed);
  std::vector<std::uint8_t> data(512, 0xCD);
  std::uint64_t checksum = 0;
  for (std::size_t nonce = 0; nonce < ops; ++nonce) {
    crypto::xtea_ctr_apply(key, nonce, data);
    checksum += data[0];
  }
  return checksum;
}

std::uint64_t run_rsa_encrypt(std::size_t ops) {
  util::Rng rng(kKernelSeed);
  const crypto::PublicKey pub = crypto::generate_keypair(rng).pub;
  std::uint64_t m = 12345;
  for (std::size_t i = 0; i < ops; ++i) {
    m = crypto::rsa_encrypt_value(pub, m % pub.n);
  }
  return m;
}

std::uint64_t run_keygen(std::size_t ops) {
  util::Rng rng(kKernelSeed);
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    checksum += crypto::generate_keypair(rng).pub.n;
  }
  return checksum;
}

RsaDecryptKernel::RsaDecryptKernel() {
  util::Rng rng(kKernelSeed);
  keys_.reserve(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) {
    keys_.push_back(crypto::generate_keypair(rng).priv);
  }
  ciphertexts_.resize(kCiphertexts);
  for (std::size_t i = 0; i < kCiphertexts; ++i) {
    ciphertexts_[i] = rng.below(keys_[i % kKeys].n());
  }
}

std::uint64_t RsaDecryptKernel::run(std::size_t ops) const {
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t c = i % kCiphertexts;
    checksum += crypto::rsa_decrypt_value(keys_[c % kKeys], ciphertexts_[c]);
  }
  return checksum;
}

core::ScenarioConfig macro_scenario(std::size_t node_count,
                                    double duration_s) {
  core::ScenarioConfig config = campaign::paper_default_scenario();
  config.node_count = node_count;
  config.duration_s = duration_s;
  // Campaign units always run profiled (campaign::execute_unit), so the
  // gate times the same path, scope timers included.
  config.obs.profile = true;
  return config;
}

core::ScenarioConfig scale_scenario(std::size_t node_count,
                                    double duration_s) {
  core::ScenarioConfig config = macro_scenario(node_count, duration_s);
  // Grow the arena with the population so density (and therefore per-node
  // neighbourhood size) stays at the paper's 200 nodes / km^2. A fixed
  // field would make every broadcast physically O(n) and no index could
  // change that.
  const double side =
      std::sqrt(static_cast<double>(node_count) / 200.0) * 1000.0;
  config.field = util::Rect{0.0, 0.0, side, side};
  return config;
}

}  // namespace alert::perf
