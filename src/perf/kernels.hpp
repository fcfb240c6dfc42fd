#pragma once

/// \file kernels.hpp
/// Deterministic workload kernels behind the pinned perf suite (suite.cpp)
/// and the google-benchmark microbenches (bench/micro_benchmarks.cpp).
/// Both front-ends drive the exact same fixed-seed code, so a
/// google-benchmark exploration and the committed BENCH_core.json numbers
/// measure one workload.
///
/// Kernels are measurement-only: fixed seeds, no shared state, no packets
/// opened outside run_once's audited lifecycle (teardown leaves every
/// PacketLedger clean), and nothing here feeds determinism digests or
/// campaign cache keys.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace alert::perf {

/// Seed for every kernel topology/workload (pinned: changing it invalidates
/// committed baselines).
inline constexpr std::uint64_t kKernelSeed = 0xBE7CE5EEDULL;

/// Event-dispatch batch: schedules `events` self-contained callbacks at
/// strictly increasing times on a fresh Simulator and drains it. Returns
/// the number executed (== events; the return value keeps the work
/// observable). ns/op = wall time / events.
std::uint64_t run_dispatch_batch(std::size_t events);

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

  [[nodiscard]] const net::Network& network() const { return *network_; }

 private:
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<net::Network> network_;
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

/// What one timed macro replication produced (the throughput numerators).
struct MacroRunStats {
  std::uint64_t events_executed = 0;  ///< simulator events
  std::uint64_t frames_tx = 0;        ///< net.tx counter (frames on air)
  std::uint64_t delivered = 0;        ///< application packets delivered
};

/// Run one full replication of `config` (core::run_once, replication 0)
/// and report the throughput counters. Deterministic: same config, same
/// stats, same digest as any other run of the scenario.
[[nodiscard]] MacroRunStats run_macro_once(const core::ScenarioConfig& config);

}  // namespace alert::perf
