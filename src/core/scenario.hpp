#pragma once

/// \file scenario.hpp
/// Experiment scenario description: one struct capturing every knob of the
/// paper's evaluation setup (Sec. 5.2) so each figure campaign is a small
/// parameter sweep over ScenarioConfig. Simulator internals get no knob
/// here: `field` and `radio_range_m` alone decide whether net::Network
/// answers range queries from a spatial grid (docs/SCALE.md).

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "routing/alarm.hpp"
#include "routing/alert_router.hpp"
#include "routing/ao2p.hpp"
#include "routing/gpsr.hpp"
#include "routing/zap.hpp"

namespace alert::core {

enum class ProtocolKind : std::uint8_t { Alert, Gpsr, Alarm, Ao2p, Zap };

[[nodiscard]] const char* protocol_name(ProtocolKind k);

enum class MobilityKind : std::uint8_t { RandomWaypoint, Group, Static };

/// Observability wiring (src/obs). Metrics are always collected (one
/// listener with pointer-indirect counter bumps); profiling reads the host
/// wall clock (it never feeds the determinism digest) and is opt-in;
/// trace_out streams replication 0's structured TraceEvents to a file whose
/// extension picks the sink (.jsonl / .csv / anything else → Chrome
/// trace_event JSON for chrome://tracing and ui.perfetto.dev).
struct ObsOptions {
  bool profile = false;
  std::string trace_out;
};

struct ScenarioConfig {
  // Field and population (defaults: 1000 m x 1000 m, 200 nodes, Sec. 5.2).
  util::Rect field{0.0, 0.0, 1000.0, 1000.0};
  std::size_t node_count = 200;

  // Mobility.
  MobilityKind mobility = MobilityKind::RandomWaypoint;
  double speed_mps = 2.0;
  std::size_t group_count = 10;   ///< group mobility (Sec. 5.1)
  double group_range_m = 150.0;

  // Radio / MAC.
  double radio_range_m = 250.0;
  net::MacConfig mac;
  double hello_period_s = 1.0;
  double pseudonym_period_s = 20.0;  ///< Sec. 2.2 rotation tradeoff

  // Fault injection (src/faults): channel loss, node churn, jammer discs.
  // All-off by default — and an all-off plan is invisible: same RNG
  // streams, same digests, same canonical dump as before faults existed.
  faults::FaultPlan faults;

  // Traffic: UDP/CBR, 512-byte packets, 10 random S-D pairs, one packet
  // every 2 s (Sec. 5.2).
  std::size_t flow_count = 10;
  double packet_interval_s = 2.0;
  std::size_t payload_bytes = 512;
  std::size_t packets_per_flow = 0;  ///< 0 = bounded by duration only
  double traffic_start_s = 3.0;      ///< hello warm-up before first packet
  /// Optional S-D distance window (at t=0) for pair sampling. Defaults
  /// reproduce the paper's uniform random pairs; Fig. 17 uses a matched
  /// window so movement models are compared on equal pair geometry.
  double min_pair_distance_m = 0.0;
  double max_pair_distance_m = 1e18;

  double duration_s = 100.0;

  // Location service.
  bool destination_update = true;  ///< the Figs. 14b/15b/16b switch
  loc::LocationServiceConfig location;

  // Crypto cost model (Sec. 5.2's measured operation costs).
  crypto::CostModel crypto_cost;

  // Protocol under test + per-protocol knobs.
  ProtocolKind protocol = ProtocolKind::Alert;
  routing::AlertConfig alert;
  routing::GpsrConfig gpsr;
  routing::AlarmConfig alarm;
  routing::Ao2pConfig ao2p;
  routing::ZapConfig zap;

  // Measurement.
  double residency_sample_period_s = 2.0;  ///< zone-residency sampling grid
  bool run_attacks = false;  ///< mount timing/intersection analyses per run
  /// Node-compromise budgets c (Sec. 3.1): when non-empty, each replication
  /// additionally mounts the targeted next-packet interception and the
  /// random-c full-flow blockage analyses for every budget, filling
  /// RunResult::compromise_targeted / compromise_blocked index-for-index.
  std::vector<std::size_t> compromise_budgets;

  std::uint64_t seed = 1;

  /// Structured observability (metrics / profiling / trace sinks).
  ObsOptions obs;

  /// Derived NetworkConfig for net::Network.
  [[nodiscard]] net::NetworkConfig network_config() const;
};

}  // namespace alert::core
