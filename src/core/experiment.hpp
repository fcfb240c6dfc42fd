#pragma once

/// \file experiment.hpp
/// The experiment harness: builds a full simulation from a ScenarioConfig
/// (network + mobility + location service + pseudonyms + protocol + traffic
/// + observers), runs R independent replications (optionally across a
/// thread pool — each replication owns its simulator and RNG), and
/// aggregates the paper's six evaluation metrics (Sec. 5.2) with 95%
/// Student-t confidence intervals over replications, exactly as the paper's
/// 30-run averages with "I"-shaped CI bars.

#include <cstdint>
#include <vector>

#include "attack/intersection_attack.hpp"
#include "attack/timing_attack.hpp"
#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/stats.hpp"

namespace alert::core {

/// Raw outcome of a single replication.
struct RunResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double mean_latency_s = 0.0;          ///< per delivery attempt
  double mean_e2e_delay_s = 0.0;        ///< incl. retransmission waits
  double mean_hops = 0.0;               ///< over delivered packets
  double mean_participants = 0.0;       ///< distinct Data transmitters/flow
  double mean_route_overlap = 0.0;      ///< consecutive-route Jaccard
  double rf_per_packet = 0.0;           ///< ALERT random forwarders
  double partitions_per_packet = 0.0;
  double control_hops_per_packet = 0.0; ///< e.g. ALARM dissemination
  std::vector<double> cumulative_participants;  ///< by packet index
  std::vector<double> remaining_by_sample;      ///< zone residency grid
  double cover_packets_per_data = 0.0;
  // Attack outcomes (when config.run_attacks):
  double timing_source_rate = 0.0;
  double timing_dest_rate = 0.0;
  double intersection_success = 0.0;    ///< mean P(pick D)
  double intersection_identified = 0.0; ///< fraction of flows pinned
  double intersection_frequency = 0.0;  ///< frequency-attack success rate
  // Node-compromise outcomes, one entry per config.compromise_budgets value
  // (empty when that list is empty; Sec. 3.1 resilience claim):
  std::vector<double> compromise_targeted;  ///< next-packet interception
  std::vector<double> compromise_blocked;   ///< full-flow blockage fraction
  std::uint64_t location_update_messages = 0;
  std::uint64_t hello_messages = 0;
  // Energy accounting (Sec. 1/Sec. 5 low-cost claim):
  double energy_total_j = 0.0;        ///< network-wide radio + crypto
  double energy_crypto_j = 0.0;       ///< crypto share
  double energy_per_delivered_j = 0.0;
  double energy_max_node_j = 0.0;     ///< battery-death hotspot
  // Correctness instrumentation (see sim/simulator.hpp, net/packet_ledger.hpp):
  std::uint64_t trace_digest = 0;     ///< seed-deterministic event-trace hash
  std::uint64_t events_executed = 0;  ///< simulator events this replication
  std::uint64_t packets_opened = 0;   ///< uids created by this replication
  std::uint64_t packets_expired = 0;  ///< still in flight at the horizon
  // Observability (config.obs): frozen per-replication registry + profile.
  obs::MetricsSnapshot metrics;
  obs::ProfileReport profile;

  [[nodiscard]] double delivery_rate() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(delivered) /
                           static_cast<double>(sent);
  }
};

/// Aggregated over replications.
struct ExperimentResult {
  std::size_t replications = 0;
  util::Accumulator latency_s;
  util::Accumulator e2e_delay_s;
  util::Accumulator hops;
  util::Accumulator hops_with_control;  ///< Fig. 15a ALARM accounting
  util::Accumulator delivery_rate;
  util::Accumulator participants;
  util::Accumulator route_overlap;
  util::Accumulator rf_per_packet;
  util::Accumulator partitions_per_packet;
  util::Accumulator cover_per_data;
  util::Accumulator energy_total_j;
  util::Accumulator energy_crypto_j;
  util::Accumulator energy_per_delivered_j;
  util::Accumulator energy_max_node_j;
  util::Accumulator timing_source_rate;
  util::Accumulator timing_dest_rate;
  util::Accumulator intersection_success;
  util::Accumulator intersection_identified;
  util::Accumulator intersection_frequency;
  /// One accumulator per compromise budget (config.compromise_budgets).
  std::vector<util::Accumulator> compromise_targeted;
  std::vector<util::Accumulator> compromise_blocked;
  std::vector<util::Accumulator> cumulative_participants;
  std::vector<util::Accumulator> remaining_by_sample;
  obs::MetricsSnapshot metrics;   ///< ⊕-merged across replications
  obs::ProfileReport profile;     ///< wall-clock self-profile (if enabled)
  /// Per-replication determinism digests, sorted so the set is reproducible
  /// regardless of thread-pool completion order.
  std::vector<std::uint64_t> trace_digests;

  void add(const RunResult& run);
};

/// Reject unusable scenarios before any simulation runs: a fault plan with
/// a loss probability outside [0,1] or negative MTTF/MTTR, or ARQ enabled
/// with a non-positive retry budget / negative timings, silently produces
/// garbage curves; flows over fewer than two nodes would never find a
/// destination; and a non-positive period (hellos, pseudonyms, packets,
/// location updates/replication, residency samples) never advances. The
/// message goes to stderr and the process exits with status 2, as a bad
/// command-line value does. run_once calls this on every replication;
/// campaign::expand_units calls it once per point on the calling thread,
/// before any unit is scheduled.
void validate_scenario(const ScenarioConfig& config);

/// Run one replication with the given seed offset (deterministic).
[[nodiscard]] RunResult run_once(const ScenarioConfig& config,
                                 std::uint64_t replication_index);

/// Run `replications` independent replications (seeds seed+0..R-1) on
/// `threads` worker threads (0 = hardware concurrency) and aggregate.
[[nodiscard]] ExperimentResult run_experiment(const ScenarioConfig& config,
                                              std::size_t replications,
                                              std::size_t threads = 0);

/// Upper bound on replications accepted from --reps and campaign specs.
inline constexpr std::size_t kMaxReplications = 100000;

}  // namespace alert::core
