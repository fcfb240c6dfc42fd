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
/// or profiler never feeds the determinism digest. The faults.* and
/// mac.arq.* rows appear only while the fault plan or the ARQ is on: an
/// all-off plan is inert, so default dumps read as they did before either
/// existed.
///
/// scenario_unit_key() is the cache key of one (scenario, replication) work
/// unit: SHA-1 over (canonical form, replication index, kSimulationEpoch).
/// The epoch is a hand-bumped constant — NOT the git version — so cache
/// entries survive unrelated code/doc changes and are invalidated exactly
/// when simulation semantics change. Bump it whenever a change alters what
/// run_once computes for an unchanged config.
///
/// apply_scenario_param() parses one `key=value` pair into its field. It
/// reads the very table canonical_scenario() renders, so every key of the
/// dump is settable and every dump line applies back exactly; campaign
/// specs and alertsim_cli's flags both go through it.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

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

/// Set one scenario field from its canonical text. Returns false and fills
/// `error` on an unknown key or a value that does not parse whole. Keys are
/// those canonical_scenario() emits — every field, including the faults.*
/// and mac.arq.* rows a default dump leaves out — plus `partitions_h`, an
/// alias of `alert.partitions_h`.
bool apply_scenario_param(ScenarioConfig& config, std::string_view key,
                          std::string_view value, std::string* error);

}  // namespace alert::core
