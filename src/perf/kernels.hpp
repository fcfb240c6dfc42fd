#pragma once

/// \file kernels.hpp
/// Deterministic workload kernels behind the pinned perf suites
/// (suite.cpp): event dispatch at the queue depth the simulator runs at,
/// neighbour queries, the cipher primitives and the fig14a-style macro
/// scenarios.
///
/// Kernels are measurement-only: fixed seeds, no shared state, no packets
/// opened outside run_once's audited lifecycle (teardown leaves every
/// PacketLedger clean), and nothing here feeds determinism digests or
/// campaign cache keys. Each op-count kernel returns a checksum of what it
/// computed, which keeps the work observable to the optimiser.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/scenario.hpp"
#include "crypto/pubkey.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace alert::perf {

/// Seed for every kernel topology/workload (pinned: changing it invalidates
/// committed baselines).
inline constexpr std::uint64_t kKernelSeed = 0xBE7CE5EEDULL;

/// Event-dispatch hold kernel on a fresh Simulator: 512 events pending, the
/// depth of a paper-scale replication (each of the five protocols at 200
/// nodes and 100 s keeps 455–479 pending on average, at most 489–538).
/// Each fired event schedules its successor at a later time drawn from a
/// kKernelSeed stream until `events` (>= 512) have been scheduled, then the
/// queue drains. Returns the number executed (== events).
std::uint64_t run_dispatch_hold(std::size_t events);

/// A fixed-seed static topology for neighbour/range-query benchmarking:
/// `node_count` nodes placed uniformly in a square field (the paper's
/// 1000x1000 m by default) with 250 m radio range. The simulator never
/// runs — queries read the t=0 placement, so the topology is identical
/// for a given (count, seed). `field_side_m` lets the scale suite grow the
/// arena with the population (paper density); the field's geometry decides
/// whether the network answers from the spatial grid or the scan.
class QueryTopology {
 public:
  explicit QueryTopology(std::size_t node_count,
                         std::uint64_t seed = kKernelSeed,
                         double field_side_m = 1000.0);
  ~QueryTopology();

  QueryTopology(const QueryTopology&) = delete;
  QueryTopology& operator=(const QueryTopology&) = delete;

  /// Run `queries` range queries at deterministic centers; returns the
  /// total number of neighbours found (an optimization barrier and a
  /// fixed-point regression check: the count depends only on the seed).
  [[nodiscard]] std::uint64_t run_queries(std::size_t queries) const;

 private:
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<net::Network> network_;
};

/// SHA-1 over 512 B, `ops` times.
[[nodiscard]] std::uint64_t run_sha1_512b(std::size_t ops);
/// XTEA-CTR over 512 B in place, one nonce per op.
[[nodiscard]] std::uint64_t run_xtea_ctr_512b(std::size_t ops);
/// RSA encryption, each op encrypting the previous op's ciphertext.
[[nodiscard]] std::uint64_t run_rsa_encrypt(std::size_t ops);
/// RSA key-pair generation from a kKernelSeed stream.
[[nodiscard]] std::uint64_t run_keygen(std::size_t ops);

/// RSA decryption over pre-generated keys. Cycles through 4096 ciphertexts
/// under 256 keys: with one ciphertext under one key the branch predictor
/// learns the exponent and the loop under-reports what a first-hop TTL
/// unseal (a fresh key and ciphertext each time) costs.
class RsaDecryptKernel {
 public:
  RsaDecryptKernel();
  [[nodiscard]] std::uint64_t run(std::size_t ops) const;

 private:
  static constexpr std::size_t kKeys = 256;
  static constexpr std::size_t kCiphertexts = 4096;
  std::vector<crypto::PrivateKey> keys_;
  std::vector<std::uint64_t> ciphertexts_;
};

/// The fig14a-style macro scenario at `node_count` nodes: the paper's
/// Sec. 5.2 defaults with fig14a's x-axis pinned (200 = paper scale),
/// profiled as every campaign unit is.
[[nodiscard]] core::ScenarioConfig macro_scenario(std::size_t node_count,
                                                  double duration_s);

/// The fig14a-style macro scenario scaled to `node_count` nodes at the
/// paper's density (200 nodes / km^2): the field side grows as
/// sqrt(node_count / 200) * 1000 m so per-node neighbourhood size stays at
/// paper scale while the arena grows.
[[nodiscard]] core::ScenarioConfig scale_scenario(std::size_t node_count,
                                                  double duration_s);

}  // namespace alert::perf
