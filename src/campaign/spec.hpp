#pragma once

/// \file spec.hpp
/// Declarative campaign specifications: a CampaignSpec names one figure (or
/// ad-hoc sweep) as a list of fully-resolved experiment points plus a
/// reduction that turns the aggregated point results into the figure's
/// series and notes. Specs come from two places:
///
///   * the built-in figure registry (figures.hpp) — every paper figure is a
///     builder function returning a CampaignSpec whose reducer reproduces
///     the bench's exact series/table/notes;
///   * JSON files (schema "alertsim-campaign-spec/1") — a base config, a
///     set of curves (param overrides) and an x-axis sweep, expanded
///     curve-major into points and reduced through a named y-metric.
///
/// The spec layer is pure description: no execution, no I/O beyond
/// load_spec_file. The engine (engine.hpp) schedules the points' work units,
/// consults the result cache, folds replications in deterministic order and
/// hands the PointResults to the reducer.

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "obs/manifest.hpp"
#include "util/stats.hpp"

namespace alert::campaign {

/// The paper's default setup (Sec. 5.2): 1000x1000 m, 200 nodes, 2 m/s,
/// 250 m range, 10 flows, 512 B CBR every 2 s, 100 s, H = 5, seed 0xA1E47.
[[nodiscard]] core::ScenarioConfig paper_default_scenario();

/// The "# defaults: ..." banner line describing paper_default_scenario().
[[nodiscard]] const char* paper_defaults_line();

/// One experiment point: a fully-resolved scenario plus its identity on the
/// figure (which curve it belongs to, its x value).
struct PointSpec {
  std::string curve;  ///< series this point feeds (default reducer grouping)
  double x = 0.0;
  core::ScenarioConfig config;
  std::size_t reps_override = 0;  ///< 0 = campaign-level replication count
};

/// The outcome of one point after all replications completed (from the
/// cache or executed live).
struct PointResult {
  const PointSpec* spec = nullptr;  ///< borrowed from the spec
  /// The runs in replication order (deterministic regardless of
  /// scheduling); trace_digests sorted.
  core::ExperimentResult result;
};

/// Context the engine passes to reducers (dynamic values that may appear in
/// notes, e.g. "(reps per point: N)").
struct ReduceContext {
  std::size_t reps = 0;  ///< campaign-level replications actually used
};

/// Turns the point results into the figure's series and notes on the
/// manifest (title/labels/params are already set by the engine). When
/// absent, the default reducer groups points by curve name (first-appearance
/// order) and extracts `y_metric` per point.
using Reducer = std::function<void(const std::vector<PointResult>& points,
                                   const ReduceContext& ctx,
                                   obs::RunManifest& manifest)>;

struct CampaignSpec {
  std::string name;     ///< machine id, e.g. "fig14a_latency_vs_nodes"
  std::string banner;   ///< "# ..." line, e.g. "Fig. 14a — latency ..."
  std::string title;    ///< table/manifest title
  std::string x_label;
  std::string y_label;
  std::size_t fallback_reps = 10;  ///< when --reps is not given
  std::string y_metric;            ///< default reducer's core::YMetric
  std::vector<PointSpec> points;
  Reducer reduce;  ///< nullptr = default reducer over y_metric
  /// Static notes appended after the reducer's.
  std::vector<std::string> notes;
};

/// The point (x, mean, 95% CI half-width) of an accumulator.
[[nodiscard]] util::SeriesPoint series_point(double x,
                                             const util::Accumulator& a);

/// One series per curve name, in first-appearance order, holding each
/// point's x and its y-metric `y_metric` (core::y_metrics()).
[[nodiscard]] std::vector<util::Series> group_by_curve(
    const std::vector<PointResult>& points, std::string_view y_metric);

/// "(reps per point: N<detail>)", the note a simulated figure ends with.
[[nodiscard]] std::string reps_note(std::size_t reps,
                                    std::string_view detail = {});

/// The default reducer: group_by_curve over `y_metric`, then reps_note.
void default_reduce(const CampaignSpec& spec,
                    const std::vector<PointResult>& points,
                    const ReduceContext& ctx, obs::RunManifest& manifest);

inline constexpr const char* kSpecSchema = "alertsim-campaign-spec/1";

/// Parse a JSON campaign spec (schema "alertsim-campaign-spec/1"; see
/// docs/CAMPAIGN.md for the full schema). Returns nullopt and fills
/// `error` on malformed input, unknown params or unknown y_metric.
[[nodiscard]] std::optional<CampaignSpec> load_spec_json(
    std::string_view json, std::string* error = nullptr);

/// Read and parse a spec file. Every error message names the path once.
[[nodiscard]] std::optional<CampaignSpec> load_spec_file(
    const std::string& path, std::string* error = nullptr);

}  // namespace alert::campaign
