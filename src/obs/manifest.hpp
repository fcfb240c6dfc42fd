#pragma once

/// \file manifest.hpp
/// The run manifest: one JSON document capturing everything needed to
/// reproduce and interpret a run — the scenario parameters, seed,
/// replication count, git version, per-replication determinism digests, the
/// merged metrics snapshot, the wall-clock self-profile, and the result
/// series. Every campaign emits one of these (src/campaign/engine.cpp) so
/// downstream tooling consumes a uniform artifact; the schema is
/// validated by tools/check_manifest.py in CI and documented in
/// docs/OBSERVABILITY.md.
///
/// Schema id: "alertsim-run-manifest/1".

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/stats.hpp"

namespace alert::obs {

inline constexpr const char* kManifestSchema = "alertsim-run-manifest/1";

struct RunManifest {
  std::string name;         ///< machine id, e.g. "fig14a_latency_vs_nodes"
  std::string title;        ///< human title, e.g. "Fig. 14a — latency ..."
  std::string x_label;
  std::string y_label;

  /// Flat key=value scenario/config dump (strings keep the schema stable).
  std::vector<std::pair<std::string, std::string>> params;

  std::uint64_t seed = 0;
  std::size_t replications = 0;

  /// Per-replication event-trace digests of the runs that fed this
  /// manifest (order: completion order; the multiset is deterministic).
  std::vector<std::uint64_t> trace_digests;

  /// Peak resident-set size of the emitting process (obs::peak_rss_bytes),
  /// stamped only when memory recording was requested (--peak-rss / the
  /// perf suite). 0 = not measured, and the field is omitted from the JSON
  /// so byte-identity contracts (cold vs cached campaign manifests) are
  /// untouched by default.
  std::uint64_t peak_rss_bytes = 0;

  MetricsSnapshot metrics;
  ProfileReport profile;
  std::vector<util::Series> series;
  std::vector<std::string> notes;

  void add_param(std::string key, std::string value) {
    params.emplace_back(std::move(key), std::move(value));
  }

  void write_json(std::ostream& out) const;
  /// Write to `path` through util::write_file_atomic; returns false (and
  /// logs) on I/O failure.
  bool write_file(const std::string& path) const;
};

/// The project version string stamped at build time
/// (`git describe --always --dirty --tags`, or "unknown" outside a git
/// checkout).
[[nodiscard]] const char* build_version();

}  // namespace alert::obs
