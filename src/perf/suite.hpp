#pragma once

/// \file suite.hpp
/// The pinned benchmark suites behind the committed baselines. Each answers
/// a question the repository benchmark (alertbench) cannot commit:
///
///   core   — the kernels: event dispatch at a paper-scale queue depth,
///            neighbour query, SHA-1, XTEA-CTR, RSA encrypt/decrypt and key
///            generation (ns/op), fig14a-style macro throughput at paper
///            scale (events/s), and peak RSS → BENCH_core.json
///   scale  — the 10k-node arena at paper density, where the network
///            indexes nodes in the spatial grid: grid neighbour query
///            (ns/op), a fig14a-style 10k-node macro run (events/s), and
///            peak RSS → BENCH_scale.json
///   paper  — reproducing the whole paper: wall time of every registry
///            campaign at 1 rep on an emptied cache, as
///            `alertsim-campaign --all --reps 1` runs them, and peak RSS
///            → BENCH_paper.json
///
/// Peak RSS is the process's high-water mark, so a process measures one
/// suite. "Pinned" means the workload shapes, seeds and repeat counts are
/// fixed in suite.cpp: a measured number is only comparable against a
/// baseline produced by the same pin (the schema's `version` records the
/// producing commit). The smoke scale shrinks every workload for CI
/// self-tests and unit tests; smoke numbers are not comparable against
/// full-scale baselines.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perf/measure.hpp"
#include "perf/report.hpp"

namespace alert::perf {

struct SuiteOptions {
  /// Shrink every workload and repeat count: wiring checks only.
  bool smoke = false;
  /// Override every bench's repeat count (0 = per-bench pinned default).
  std::size_t repeats = 0;
  /// Scratch directory for the paper suite's result cache and manifests;
  /// "" = a subdirectory of the system temp dir. Emptied before every
  /// repeat, removed at the end of the run.
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
