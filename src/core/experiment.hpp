#pragma once

/// \file experiment.hpp
/// The experiment harness: builds a full simulation from a ScenarioConfig
/// (network + mobility + location service + pseudonyms + protocol + traffic
/// + observers) and runs R independent replications (optionally across a
/// thread pool — each replication owns its simulator and RNG). A point's
/// result is its replications; the y-metric table (y_metrics()) is the one
/// place that says how a replication's scalar becomes a plotted mean with
/// its 95% Student-t confidence interval, as in the paper's 30-run averages
/// with "I"-shaped CI bars (Sec. 5.2).

#include <cstdint>
#include <span>
#include <string_view>
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
  /// Fig. 15a's ALARM accounting: routed hops plus dissemination hops.
  [[nodiscard]] double hops_with_control() const {
    return mean_hops + control_hops_per_packet;
  }
};

/// One plotted scalar: which RunResult value a y-metric name reads, which
/// replications fold it and how its mean and CI are scaled.
struct YMetric {
  const char* name;
  double RunResult::*member;             ///< nullptr: read `derived`
  double (RunResult::*derived)() const;  ///< a RunResult member function
  /// Fold only replications with delivered > 0: a run that delivered
  /// nothing has no latency, hops or energy per delivered packet.
  bool needs_delivery;
  double scale;  ///< times the mean and CI (a `_ms` row reads seconds)
};

/// The y-metric table, in the order alertsim_cli's summary and the spec
/// loader's "unknown y_metric" message list it.
[[nodiscard]] std::span<const YMetric> y_metrics();

/// nullptr when `name` is no y-metric.
[[nodiscard]] const YMetric* find_y_metric(std::string_view name);

/// One point's replications, in replication order, and what merges across
/// them. Every mean and CI is folded from `runs` on demand.
struct ExperimentResult {
  std::vector<RunResult> runs;
  obs::MetricsSnapshot metrics;   ///< ⊕-merged across replications
  obs::ProfileReport profile;     ///< wall-clock self-profile (if enabled)
  /// Per-replication determinism digests, in replication order; the
  /// campaign engine sorts them.
  std::vector<std::uint64_t> trace_digests;

  /// Append the next replication.
  void add(RunResult run);

  /// The y-metric `name` over the runs in replication order, unscaled (a
  /// `_ms` row folds seconds). An unknown name fails an ALERT_INVARIANT.
  [[nodiscard]] util::Accumulator fold(std::string_view name) const;

  /// (x, mean, 95% CI half-width) of the y-metric `name`, in its scale.
  [[nodiscard]] util::SeriesPoint point(std::string_view name,
                                        double x = 0.0) const;

  /// One accumulator per index of a vector result, each over the runs whose
  /// vector reaches that index.
  [[nodiscard]] std::vector<util::Accumulator> fold_each(
      std::vector<double> RunResult::*member) const;
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
