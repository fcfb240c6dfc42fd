#pragma once

/// \file pass.hpp
/// One pass of a workload: every campaign of the workload run once, in its
/// own process, on kThreads pool workers.
///
/// The untraced pass calls campaign::run_campaign per campaign, exactly as
/// `alertsim-campaign --all` does, and is what the end-to-end metrics come
/// from. The traced pass composes the same public pipeline itself
/// (expand_units, ResultCache::load/store, execute_unit, Journal::mark_done,
/// assemble_manifest, write_manifest_atomic over util::ThreadPool) with a
/// span around each call, and derives the per-layer metrics from the spans
/// plus the counters every executed unit returns in its RunResult.

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace alertbench {

struct PassOptions {
  Workload workload = Workload::PaperCold;
  std::uint64_t seed = kDefaultSeed;
  std::string cache_root;  ///< fresh (cold workloads) or the fill (warm)
  std::string out_dir;     ///< manifests land here, one per campaign
  std::string tmp_dir;     ///< parent of the set-up samples' cache roots
  bool traced = false;
};

/// What the benchmark checks about one (scenario, replication) unit.
struct UnitRecord {
  std::string campaign;
  std::string key;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  bool ledger_balanced = false;
};

struct PassResult {
  double wall_s = 0.0;  ///< pass start until the last manifest is written
  double cpu_s = 0.0;   ///< user + system CPU over the same interval
  std::uint64_t peak_rss_bytes = 0;
  std::vector<double> setup_s;  ///< one sample per set-up repetition
  std::size_t executed = 0;     ///< units simulated live
  std::size_t cache_hits = 0;
  std::size_t store_errors = 0;
  std::size_t journal_errors = 0;
  bool manifests_written = true;
  std::vector<UnitRecord> units;        ///< every unit, in pass order
  std::vector<std::string> manifests;   ///< paths, in campaign order
  std::vector<Span> spans;              ///< traced pass only
  std::uint64_t origin_ns = 0;          ///< traced pass start
  std::map<std::string, double> layers; ///< traced pass only
};

/// Run one pass. Set-up is sampled 21 times before the pass starts.
[[nodiscard]] PassResult run_pass(const PassOptions& options);

/// Packet-ledger balance read from a unit's metrics snapshot: every opened
/// packet has exactly one terminal fate. Release builds compile out
/// run_once's own ALERT_ASSERT of this identity.
[[nodiscard]] bool ledger_balanced(const alert::core::RunResult& run);

void write_pass_json(std::ostream& out, const PassResult& result);

}  // namespace alertbench
