#pragma once

/// \file workloads.hpp
/// The benchmark's workloads as campaign specs, generated from the
/// workload seed. See README.md for why each workload exists.
///
///   paper-cold  every registry campaign on an empty cache
///   paper-warm  the same campaigns replayed from a filled cache
///   arena-10k   ALERT with the Sec. 5.2 defaults at 10,000 nodes
///
/// Seed rule: arena-10k's scenario seed is a pure function of the workload
/// seed and the paper's default seed. kDefaultSeed maps to the default seed
/// itself; any other workload seed moves the arena to a fresh seed, so its
/// unit keys are disjoint from every other workload seed's and a cold pass
/// never hits a stale cache entry.
///
/// paper-cold and paper-warm run the registry at its own seeds whatever the
/// workload seed is: that is the job `alertsim-campaign --all` does, and
/// moving the registry's seeds moves its cost far more than any change the
/// benchmark is meant to catch (README.md, "Why the paper workloads ignore
/// --seed"). Their cold passes stay cold through a fresh cache root each.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "campaign/spec.hpp"

namespace alertbench {

enum class Workload { PaperCold, PaperWarm, Arena10k };

inline constexpr std::uint64_t kDefaultSeed = 0;

/// Worker threads of every pass (the pool size T of the closed loop).
inline constexpr std::size_t kThreads = 4;
/// Replications per registry point on paper-cold and paper-warm.
inline constexpr std::size_t kPaperReps = 1;
/// arena-10k: one point, kArenaReps units, kArenaDurationS simulated.
inline constexpr std::size_t kArenaNodes = 10000;
inline constexpr std::size_t kArenaReps = 4;
inline constexpr double kArenaDurationS = 5.0;

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// The campaigns one pass runs, in the order `alertsim-campaign --all`
/// runs them.
[[nodiscard]] std::vector<alert::campaign::CampaignSpec> workload_specs(
    Workload w, std::uint64_t seed);

/// CampaignOptions::reps for the workload.
[[nodiscard]] std::size_t workload_reps(Workload w);

}  // namespace alertbench
