#pragma once

/// \file scenario_codec.hpp
/// Canonical ScenarioConfig serialization and the stable content hash the
/// campaign result cache is keyed by.
///
/// canonical_scenario() renders every *semantic* field of a ScenarioConfig
/// — everything that can change what a replication computes — as sorted
/// `key=value` lines with doubles printed at full round-trip precision.
/// Two configs with equal canonical forms produce identical replications
/// (same seeds, same event trace, same digests). Observability options
/// (ScenarioConfig::obs) are deliberately excluded: attaching a trace sink
/// or profiler never feeds the determinism digest.
///
/// scenario_unit_key() is the cache key of one (scenario, replication) work
/// unit: SHA-1 over (canonical form, replication index, kSimulationEpoch).
/// The epoch is a hand-bumped constant — NOT the git version — so cache
/// entries survive unrelated code/doc changes and are invalidated exactly
/// when simulation semantics change. Bump it whenever a change alters what
/// run_once computes for an unchanged config.
///
/// apply_scenario_param() is the string->field binding layer used by sweep
/// grids (campaign specs loaded from JSON) and exercised by the figure
/// registry; it covers the knobs the paper's evaluation sweeps.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"

namespace alert::core {

/// Simulation-semantics epoch. Part of every cache key; bump on any change
/// to run_once/simulator/protocol behaviour that alters results for an
/// unchanged ScenarioConfig.
inline constexpr const char* kSimulationEpoch = "alertsim-sim/1";

/// Sorted `key=value\n` rendering of every semantic field (see file
/// comment for the exclusion rules).
[[nodiscard]] std::string canonical_scenario(const ScenarioConfig& config);

/// SHA-1 hex digest identifying one (scenario, replication) work unit under
/// the current simulation epoch. Stable across processes and platforms.
[[nodiscard]] std::string scenario_unit_key(const ScenarioConfig& config,
                                            std::uint64_t replication);

[[nodiscard]] const char* mobility_name(MobilityKind k);
[[nodiscard]] std::optional<ProtocolKind> parse_protocol_kind(
    std::string_view name);  ///< accepts "alert"/"ALERT" etc.
[[nodiscard]] std::optional<MobilityKind> parse_mobility_kind(
    std::string_view name);  ///< "rwp"/"random_waypoint"/"group"/"static"

/// Set one sweepable parameter from its string form. Returns false and
/// fills `error` on an unknown key or unparseable value. The key namespace
/// is the same one canonical_scenario() emits (e.g. "node_count",
/// "speed_mps", "protocol", "alert.partitions_h", "mobility").
bool apply_scenario_param(ScenarioConfig& config, std::string_view key,
                          std::string_view value, std::string* error);

/// The sweepable parameter keys apply_scenario_param() understands.
[[nodiscard]] std::vector<std::string> scenario_param_keys();

}  // namespace alert::core
