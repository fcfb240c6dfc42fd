#pragma once

/// \file report.hpp
/// The committed perf artifact: a BenchReport is one suite's measured
/// metrics plus the provenance needed to interpret them (git describe, host
/// fingerprint, repeat counts). Serialized as schema "alertsim-bench/1" —
/// the format of the repo-root baselines BENCH_core.json, BENCH_scale.json
/// and BENCH_paper.json that the CI perf-gate compares against
/// (tools/alertsim-perf, docs/BENCHMARKS.md).
///
/// Each metric carries its own gate tolerance: the thresholds are part of
/// the committed baseline, so tightening or loosening a metric's noise
/// policy is an ordinary reviewed diff.

#include <cstddef>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace alert::perf {

inline constexpr const char* kBenchSchema = "alertsim-bench/1";

/// One measured metric of a suite.
struct BenchMetric {
  std::string name;  ///< e.g. "ns_per_event_dispatch"
  std::string unit;  ///< e.g. "ns/op", "events/s", "bytes"
  double value = 0.0;          ///< median over repeats
  double iqr = 0.0;            ///< interquartile range of the repeats
  std::size_t repeats = 1;
  bool higher_is_better = false;
  /// Relative gate threshold in percent: the check fails when the current
  /// value is worse than baseline by more than this (times the CLI's
  /// --scale multiplier; see compare.hpp).
  double tolerance_pct = 25.0;
};

/// Where the numbers came from. Compared fingerprints that differ produce a
/// warning note, never a failure — baselines are refreshed per machine
/// class, and CI uses a widened --scale instead (docs/BENCHMARKS.md).
struct HostFingerprint {
  std::string os;         ///< compile-target platform tag
  std::string compiler;   ///< __VERSION__
  std::string build_type; ///< "release" / "debug" (NDEBUG probe)
  unsigned hardware_threads = 0;

  [[nodiscard]] static HostFingerprint current();
  [[nodiscard]] std::string summary() const;
  [[nodiscard]] bool operator==(const HostFingerprint&) const = default;
};

struct BenchReport {
  std::string suite;    ///< "core" | "scale" | "paper"
  std::string version;  ///< obs::build_version() (git describe)
  HostFingerprint host;
  std::vector<BenchMetric> metrics;  ///< sorted by name

  [[nodiscard]] const BenchMetric* find(std::string_view name) const;
  /// Insert keeping the by-name order (duplicate names are an invariant
  /// violation — metric names identify gate rows).
  void add_metric(BenchMetric metric);

  void write_json(std::ostream& out) const;
  /// Atomic write (temp file + rename); returns false and logs on I/O
  /// failure.
  [[nodiscard]] bool write_file(const std::string& path) const;
};

/// Parse an "alertsim-bench/1" document. Returns nullopt and fills `error`
/// on malformed JSON, a schema mismatch, or missing/mistyped fields.
[[nodiscard]] std::optional<BenchReport> load_report(
    std::string_view json, std::string* error = nullptr);

/// Read and parse a report file.
[[nodiscard]] std::optional<BenchReport> load_report_file(
    const std::string& path, std::string* error = nullptr);

}  // namespace alert::perf
