#pragma once

/// \file engine.hpp
/// The campaign engine: expands a CampaignSpec into (point, replication)
/// work units, schedules them across util::ThreadPool, serves completed
/// units from the content-addressed result cache, folds replications in
/// deterministic point/replication order and assembles the
/// "alertsim-run-manifest/1" document.
///
/// Determinism contract: given the same spec and replication count, the
/// emitted manifest is byte-identical whether every unit executed live, was
/// served from cache, or any mixture — scheduling order never leaks into
/// the output. Cached units replay their recorded wall-clock self-profile,
/// so even the profile section reproduces. This is what makes interrupt +
/// resume equivalent to an uninterrupted run (the campaign smoke test's
/// assertion).
///
/// The unit pipeline is public piecewise — expand_units / execute_unit /
/// assemble_manifest — so callers that time or drive the stages themselves
/// (the repository benchmark) run exactly the engine's expansion,
/// execution and fold; run_campaign is the composition of the three.
///
/// Per-unit progress is reported through ALERT_LOG_INFO lines and the
/// counts on CampaignOutcome; neither feeds the manifest.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "core/experiment.hpp"
#include "obs/manifest.hpp"

namespace alert::campaign {

struct CampaignOptions {
  /// Replications per point; 0 = spec.fallback_reps.
  std::size_t reps = 0;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  /// Cache root; empty = default_cache_root(). Ignored when !use_cache.
  std::string cache_dir;
  bool use_cache = true;
  /// Structured trace of the first unit (point 0, replication 0). A cached
  /// first unit is re-executed for the trace side effect only — its cached
  /// result still feeds the manifest, keeping the bytes identical.
  std::string trace_out;
  std::string metrics_out;  ///< manifest path; empty = don't write
  bool print = true;        ///< banner/table/notes to stdout (obs helpers)
  /// Stamp obs::peak_rss_bytes() onto the manifest after the run. Off by
  /// default: peak RSS is host state, so recording it would break the
  /// cold-vs-cached manifest byte-identity contract. Opt in per run
  /// (--peak-rss on the benches/driver; the perf suite always records it).
  bool record_peak_rss = false;
};

struct CampaignOutcome {
  obs::RunManifest manifest;
  std::size_t reps = 0;        ///< resolved replications per point
  std::size_t units_total = 0;
  std::size_t cache_hits = 0;
  std::size_t executed = 0;    ///< live simulations (excludes trace replays)
  /// I/O failures the run survived in degraded mode: cache entries that
  /// could not be stored (those units re-execute next run) and journal
  /// lines that never reached disk. Non-zero means the sweep ran cache-less
  /// in part — surfaced in the driver summary so it is never silent.
  std::size_t cache_store_errors = 0;
  std::size_t journal_write_errors = 0;
  int exit_code = 0;  ///< non-zero when the manifest could not be written
};

[[nodiscard]] CampaignOutcome run_campaign(const CampaignSpec& spec,
                                           const CampaignOptions& options);

// --- the unit pipeline, stage by stage ---------------------------------------

/// One (point, replication) work unit of a campaign.
struct WorkUnit {
  std::size_t point = 0;
  std::uint64_t rep = 0;
  std::size_t slot = 0;  ///< into the flat results array (expansion order)
  std::string key;       ///< core::scenario_unit_key — the cache identity
  bool traced = false;   ///< first unit when a trace sink was requested
};

/// The expanded unit grid of one campaign: every unit in deterministic
/// point-major/replication-minor order, plus the per-point replication
/// counts the fold needs.
struct UnitGrid {
  std::size_t reps = 0;                 ///< resolved campaign-level reps
  std::vector<std::size_t> point_reps;  ///< one entry per spec point
  std::vector<WorkUnit> units;
};

/// Expand the spec's points into work units. `reps_option` as in
/// CampaignOptions::reps; `trace_first` marks unit (0, 0) traced. Every
/// point passes core::validate_scenario first (exit 2 on the first bad one).
[[nodiscard]] UnitGrid expand_units(const CampaignSpec& spec,
                                    std::size_t reps_option,
                                    bool trace_first = false);

/// Execute one unit live (self-profile always on, exactly as the pooled
/// path runs it). `trace_out` attaches the structured trace sink when the
/// unit is traced.
[[nodiscard]] core::RunResult execute_unit(const CampaignSpec& spec,
                                           const WorkUnit& unit,
                                           const std::string& trace_out = {});

/// Fold per-unit results (indexed by WorkUnit::slot) in deterministic
/// point/replication order and assemble the run manifest — params, merged
/// metrics/profile, sorted digests, reducer series, notes. Consumes
/// `results`.
[[nodiscard]] obs::RunManifest assemble_manifest(
    const CampaignSpec& spec, const UnitGrid& grid,
    std::vector<core::RunResult>&& results, bool record_peak_rss = false);

/// RunManifest::write_file under the name the repository benchmark calls.
bool write_manifest_atomic(const obs::RunManifest& manifest,
                           const std::string& path);

}  // namespace alert::campaign
