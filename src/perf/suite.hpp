#pragma once

/// \file suite.hpp
/// The pinned benchmark suites behind the committed baselines:
///
///   core      — event-dispatch ns/op, neighbour-query ns/op, fig14a-style
///               macro throughput at paper scale (events/s, packets/s) and
///               peak RSS → BENCH_core.json
///   campaign  — campaign-engine scheduling throughput in units/s through
///               the cold (execute + store) and warm (content-addressed
///               cache replay) paths, and peak RSS → BENCH_campaign.json
///   scale     — arena scale at paper density, where the network indexes
///               nodes in the spatial grid: neighbour-query ns/op at 10k
///               nodes, a fig14a-style 10k-node macro run (events/s), and
///               peak RSS → BENCH_scale.json
///   lint      — alertsim-analyzer wall time over a generated source tree
///               of pinned shape (the real tree would drift as the repo
///               grows), single-threaded, and peak RSS → BENCH_lint.json
///
/// "Pinned" means the workload shapes, seeds and repeat counts are fixed in
/// suite.cpp: a measured number is only comparable against a baseline
/// produced by the same pin (the schema's `version` records the producing
/// commit). The smoke scale shrinks every workload for CI self-tests and
/// unit tests; smoke numbers are not comparable against full-scale
/// baselines (`--check` without `--current` measures fresh with whatever
/// scale flag it was given — pass neither `--smoke` nor a smoke-scale
/// `--current` when gating against the committed baselines).

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perf/measure.hpp"
#include "perf/report.hpp"

namespace alert::perf {

struct SuiteOptions {
  /// Shrink every workload (~10x) and repeat count: wiring checks only.
  bool smoke = false;
  /// Override every bench's repeat count (0 = per-bench pinned default).
  std::size_t repeats = 0;
  /// Scratch directory for the campaign suite's result cache; "" = a
  /// subdirectory of the system temp dir. Recreated cold, removed at the
  /// end of the run.
  std::string work_dir;
};

/// The suite names run_suite accepts, in baseline-file order.
[[nodiscard]] const std::vector<std::string>& suite_names();

/// The repo-root baseline filename for a suite ("BENCH_core.json", ...).
[[nodiscard]] std::string baseline_filename(std::string_view suite);

/// Run one pinned suite and return its report (suite/version/host stamped).
/// Returns nullopt for an unknown suite name.
[[nodiscard]] std::optional<BenchReport> run_suite(std::string_view suite,
                                                   const SuiteOptions& options);

}  // namespace alert::perf
