#include "campaign/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/journal.hpp"
#include "core/scenario_codec.hpp"
#include "obs/resource.hpp"
#include "obs/series.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace alert::campaign {

bool write_manifest_atomic(const obs::RunManifest& manifest,
                           const std::string& path) {
  return manifest.write_file(path);
}

UnitGrid expand_units(const CampaignSpec& spec, std::size_t reps_option,
                      bool trace_first) {
  // Every point is checked here, on the calling thread, before any unit
  // exists: an invalid one exits 2 with one message, never one per worker.
  for (const PointSpec& point : spec.points) {
    core::validate_scenario(point.config);
  }
  UnitGrid grid;
  grid.reps = reps_option > 0 ? reps_option : spec.fallback_reps;
  grid.point_reps.assign(spec.points.size(), 0);
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    grid.point_reps[p] = spec.points[p].reps_override > 0
                             ? spec.points[p].reps_override
                             : grid.reps;
    for (std::uint64_t r = 0; r < grid.point_reps[p]; ++r) {
      WorkUnit unit;
      unit.point = p;
      unit.rep = r;
      unit.slot = grid.units.size();
      unit.key = core::scenario_unit_key(spec.points[p].config, r);
      unit.traced = p == 0 && r == 0 && trace_first;
      grid.units.push_back(std::move(unit));
    }
  }
  return grid;
}

core::RunResult execute_unit(const CampaignSpec& spec, const WorkUnit& unit,
                             const std::string& trace_out) {
  core::ScenarioConfig cfg = spec.points[unit.point].config;
  cfg.obs.profile = true;
  if (unit.traced) cfg.obs.trace_out = trace_out;
  return core::run_once(cfg, unit.rep);
}

obs::RunManifest assemble_manifest(const CampaignSpec& spec,
                                   const UnitGrid& grid,
                                   std::vector<core::RunResult>&& results,
                                   bool record_peak_rss) {
  // --- fold replications in deterministic point/replication order ---------
  std::vector<PointResult> points(spec.points.size());
  std::size_t slot = 0;
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    PointResult& pr = points[p];
    pr.spec = &spec.points[p];
    for (std::size_t r = 0; r < grid.point_reps[p]; ++r, ++slot) {
      pr.result.add(std::move(results[slot]));
    }
    std::sort(pr.result.trace_digests.begin(),
              pr.result.trace_digests.end());
  }

  // --- assemble the manifest ---------------------------------------------
  obs::RunManifest manifest;
  manifest.name = spec.name;
  manifest.title = spec.title;
  manifest.x_label = spec.x_label;
  manifest.y_label = spec.y_label;
  const core::ScenarioConfig defaults = paper_default_scenario();
  manifest.seed = defaults.seed;
  manifest.replications = grid.reps;
  manifest.add_param("node_count", std::to_string(defaults.node_count));
  manifest.add_param("speed_mps", std::to_string(defaults.speed_mps));
  manifest.add_param("radio_range_m",
                     std::to_string(defaults.radio_range_m));
  manifest.add_param("flow_count", std::to_string(defaults.flow_count));
  manifest.add_param("packet_interval_s",
                     std::to_string(defaults.packet_interval_s));
  manifest.add_param("payload_bytes",
                     std::to_string(defaults.payload_bytes));
  manifest.add_param("duration_s", std::to_string(defaults.duration_s));
  manifest.add_param("partitions_h",
                     std::to_string(defaults.alert.partitions_h));
  for (const PointResult& pr : points) {
    manifest.metrics.merge(pr.result.metrics);
    manifest.profile.merge(pr.result.profile);
    manifest.trace_digests.insert(manifest.trace_digests.end(),
                                  pr.result.trace_digests.begin(),
                                  pr.result.trace_digests.end());
  }

  const ReduceContext ctx{grid.reps};
  if (spec.reduce) {
    spec.reduce(points, ctx, manifest);
  } else {
    default_reduce(spec, points, ctx, manifest);
  }
  // Measurement-only and opt-in: stamped after every unit completed so the
  // peak covers the whole campaign, never recorded into cache entries.
  if (record_peak_rss) manifest.peak_rss_bytes = obs::peak_rss_bytes();
  for (const std::string& note : spec.notes) manifest.notes.push_back(note);
  return manifest;
}

CampaignOutcome run_campaign(const CampaignSpec& spec,
                             const CampaignOptions& options) {
  CampaignOutcome outcome;

  // --- expand the grid into work units ------------------------------------
  // Before the banner: a point expand_units rejects exits with nothing on
  // stdout.
  UnitGrid grid = expand_units(spec, options.reps, !options.trace_out.empty());
  outcome.reps = grid.reps;
  outcome.units_total = grid.units.size();

  if (options.print) {
    obs::print_figure_banner(spec.banner, paper_defaults_line());
  }

  std::unique_ptr<ResultCache> cache;
  std::unique_ptr<Journal> journal;
  if (options.use_cache && !grid.units.empty()) {
    const std::string root =
        options.cache_dir.empty() ? default_cache_root() : options.cache_dir;
    cache = std::make_unique<ResultCache>(root);
    journal = std::make_unique<Journal>(root + "/journal", spec.name);
  }

  // --- schedule across the pool -------------------------------------------
  // Each unit writes its own pre-sized slot; completion order never matters
  // because aggregation below walks slots in point/replication order.
  std::vector<core::RunResult> results(grid.units.size());
  std::atomic<std::size_t> cache_hits{0};
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> done{0};
  {
    util::ThreadPool pool(options.threads);
    for (const WorkUnit& unit : grid.units) {
      pool.submit([&spec, &options, &results, &cache, &journal, &cache_hits,
                   &executed, &done, &unit, total = grid.units.size()] {
        bool cached = false;
        if (cache != nullptr) {
          if (auto hit = cache->load(unit.key)) {
            // Writes are disjoint: `results` is pre-sized and every unit
            // owns exactly one slot, so no two tasks touch the same entry.
            results[unit.slot] =  // alert-lint: allow(lock-discipline)
                std::move(*hit);
            cached = true;
          }
        }
        if (cached && unit.traced) {
          // Re-execute for the trace side effect only; the cached result
          // still feeds the manifest so its bytes stay identical.
          (void)execute_unit(spec, unit, options.trace_out);
        }
        if (!cached) {
          results[unit.slot] = execute_unit(spec, unit, options.trace_out);
          if (cache != nullptr) cache->store(unit.key, results[unit.slot]);
          executed.fetch_add(1);
        } else {
          cache_hits.fetch_add(1);
        }
        if (journal != nullptr) journal->mark_done(unit.key);
        const std::size_t finished = done.fetch_add(1) + 1;
        ALERT_LOG_INFO("campaign %s: unit %zu/%zu %s (point %zu rep %llu)",
                       spec.name.c_str(), finished, total,
                       cached ? "cached" : "ran", unit.point,
                       static_cast<unsigned long long>(unit.rep));
      });
    }
    pool.wait_idle();
  }
  outcome.cache_hits = cache_hits.load();
  outcome.executed = executed.load();
  if (cache != nullptr) outcome.cache_store_errors = cache->store_errors();
  if (journal != nullptr) {
    outcome.journal_write_errors = journal->write_errors();
  }

  outcome.manifest = assemble_manifest(spec, grid, std::move(results),
                                       options.record_peak_rss);
  obs::RunManifest& manifest = outcome.manifest;

  // --- present -------------------------------------------------------------
  if (options.print) {
    if (!manifest.series.empty()) {
      obs::print_series_table(manifest.title, manifest.x_label,
                              manifest.y_label, manifest.series);
    }
    if (!manifest.notes.empty()) obs::print_text_line("");
    for (const std::string& note : manifest.notes) {
      obs::print_text_line(note);
    }
  }
  if (util::log_level() >= util::LogLevel::Info &&
      !manifest.profile.scopes.empty()) {
    std::fputs(manifest.profile.summary().c_str(), stderr);
  }
  ALERT_LOG_INFO("campaign %s: %zu units, %zu cached, %zu executed",
                 spec.name.c_str(), outcome.units_total, outcome.cache_hits,
                 outcome.executed);
  if (outcome.cache_store_errors > 0 || outcome.journal_write_errors > 0) {
    ALERT_LOG_WARN(
        "campaign %s: degraded persistence — %zu cache store errors, %zu "
        "journal write errors (completed units will re-execute on resume)",
        spec.name.c_str(), outcome.cache_store_errors,
        outcome.journal_write_errors);
  }

  if (!options.metrics_out.empty()) {
    if (!write_manifest_atomic(manifest, options.metrics_out)) {
      outcome.exit_code = 1;
      return outcome;
    }
    if (options.print) {
      obs::print_text_line("manifest: " + options.metrics_out);
    }
  }
  if (!options.trace_out.empty() && options.print) {
    obs::print_text_line("trace: " + options.trace_out);
  }
  return outcome;
}

}  // namespace alert::campaign
