#pragma once

/// \file compare.hpp
/// The regression-gate arithmetic: compare a freshly measured BenchReport
/// against a committed baseline, metric by metric, using each baseline
/// metric's own relative tolerance (optionally widened by a scale factor —
/// CI runners are noisier than the machine that minted the baseline).
///
/// Verdicts are direction-aware: for lower-is-better metrics (ns/op, peak
/// RSS) a regression is current > baseline * (1 + tol); for
/// higher-is-better (events/s, units/s) it is baseline > current *
/// (1 + tol). A baseline metric absent from the current run fails the gate
/// (a silently dropped bench would otherwise hide forever); a new current
/// metric only produces a note until the baseline is refreshed.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perf/report.hpp"

namespace alert::perf {

enum class Verdict : std::uint8_t {
  Ok,                ///< within tolerance of the baseline
  Improved,          ///< better than baseline by more than the tolerance
  Regressed,         ///< worse than baseline by more than the tolerance
  MissingInCurrent,  ///< baseline metric the current run did not produce
  NewInCurrent,      ///< current metric with no baseline row (note only)
};

[[nodiscard]] const char* verdict_name(Verdict v);

struct MetricComparison {
  std::string name;
  std::string unit;
  double baseline = 0.0;
  double current = 0.0;
  /// Signed relative change in percent, (current - baseline) / baseline.
  double delta_pct = 0.0;
  /// Effective threshold applied (baseline tolerance_pct * scale).
  double tolerance_pct = 0.0;
  bool higher_is_better = false;
  Verdict verdict = Verdict::Ok;
};

struct CompareOptions {
  /// Multiplier on every metric's tolerance_pct (CI passes > 1 to absorb
  /// runner-class noise; see docs/BENCHMARKS.md noise policy).
  double tolerance_scale = 1.0;
};

struct ComparisonReport {
  std::vector<MetricComparison> items;  ///< baseline order, then new metrics
  std::vector<std::string> notes;       ///< host mismatch, new metrics, ...

  [[nodiscard]] std::size_t count(Verdict v) const;
  /// Gate verdict: no regressions and no baseline metric missing.
  [[nodiscard]] bool passed() const;
  /// Aligned human-readable table plus the notes, for the driver / CI log.
  [[nodiscard]] std::string render() const;
};

/// Compare `current` against `baseline`. The suites must match — compare
/// BENCH_core.json against a core run, not a campaign run (the driver
/// enforces this with exit 2 before calling).
[[nodiscard]] ComparisonReport compare_reports(const BenchReport& baseline,
                                               const BenchReport& current,
                                               const CompareOptions& options);

}  // namespace alert::perf
