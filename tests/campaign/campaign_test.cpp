#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/engine.hpp"
#include "campaign/figures.hpp"
#include "campaign/journal.hpp"
#include "campaign/result_codec.hpp"
#include "campaign/spec.hpp"
#include "core/scenario_codec.hpp"
#include "crypto/sha1.hpp"  // alert-lint: allow(module-layering) the registry unit keys are pinned by their SHA-1
#include "temp_dir.hpp"

namespace alert::campaign {
namespace {

namespace fs = std::filesystem;

/// A fast scenario for engine tests: small field, few nodes, short session.
core::ScenarioConfig tiny_scenario() {
  core::ScenarioConfig cfg = paper_default_scenario();
  cfg.field = {0.0, 0.0, 400.0, 400.0};
  cfg.node_count = 30;
  cfg.flow_count = 2;
  cfg.duration_s = 10.0;
  return cfg;
}

CampaignSpec tiny_spec(const std::string& name) {
  CampaignSpec spec;
  spec.name = name;
  spec.banner = "test — tiny campaign";
  spec.title = "tiny campaign";
  spec.x_label = "x";
  spec.y_label = "delivery rate";
  spec.y_metric = "delivery_rate";
  for (const std::size_t n : {20u, 30u}) {
    PointSpec point;
    point.curve = "tiny";
    point.x = static_cast<double>(n);
    point.config = tiny_scenario();
    point.config.node_count = n;
    spec.points.push_back(std::move(point));
  }
  return spec;
}

std::string manifest_bytes(const obs::RunManifest& manifest) {
  std::ostringstream out;
  manifest.write_json(out);
  return out.str();
}

using test_support::TempDir;

// --- result codec ----------------------------------------------------------

TEST(ResultCodec, RoundTripIsByteStable) {
  core::ScenarioConfig cfg = tiny_scenario();
  cfg.obs.profile = true;
  const core::RunResult run = core::run_once(cfg, 3);

  const std::string json = run_result_to_json(run);
  std::string error;
  const auto parsed = parse_run_result(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(run_result_to_json(*parsed), json);
  EXPECT_EQ(parsed->sent, run.sent);
  EXPECT_EQ(parsed->delivered, run.delivered);
  EXPECT_EQ(parsed->trace_digest, run.trace_digest);
  EXPECT_EQ(parsed->hello_messages, run.hello_messages);
  EXPECT_GT(run.events_executed, 0u);
  EXPECT_EQ(parsed->events_executed, run.events_executed);
}

TEST(ResultCodec, RejectsWrongSchema) {
  std::string error;
  EXPECT_FALSE(
      parse_run_result(R"({"schema":"something-else/1"})", &error));
  EXPECT_FALSE(parse_run_result("not json at all", &error));
}

// --- cache -----------------------------------------------------------------

TEST(ResultCache, StoreThenLoad) {
  TempDir dir("alertsim-cache-test-");
  ResultCache cache(dir.path());
  const core::RunResult run = core::run_once(tiny_scenario(), 0);
  const std::string key = core::scenario_unit_key(tiny_scenario(), 0);

  EXPECT_FALSE(cache.load(key).has_value());
  ASSERT_TRUE(cache.store(key, run));
  const auto hit = cache.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(run_result_to_json(*hit), run_result_to_json(run));
}

TEST(ResultCache, CorruptEntryIsAMiss) {
  TempDir dir("alertsim-cache-test-");
  ResultCache cache(dir.path());
  const std::string key = core::scenario_unit_key(tiny_scenario(), 0);
  fs::create_directories(fs::path(cache.object_path(key)).parent_path());
  std::ofstream(cache.object_path(key)) << "{torn write";
  EXPECT_FALSE(cache.load(key).has_value());
}

TEST(ResultCache, CorruptEntryOverwrittenByNextStore) {
  TempDir dir("alertsim-cache-test-");
  ResultCache cache(dir.path());
  const core::RunResult run = core::run_once(tiny_scenario(), 0);
  const std::string key = core::scenario_unit_key(tiny_scenario(), 0);
  fs::create_directories(fs::path(cache.object_path(key)).parent_path());
  std::ofstream(cache.object_path(key)) << "{torn write";
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_TRUE(fs::exists(cache.object_path(key)));  // present-but-corrupt

  // The re-execution path: the corrupt entry reads as a miss, the unit runs
  // again, and the atomic store replaces the bad bytes under the final name.
  ASSERT_TRUE(cache.store(key, run));
  EXPECT_EQ(cache.store_errors(), 0u);
  const auto healed = cache.load(key);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(run_result_to_json(*healed), run_result_to_json(run));
}

TEST(ResultCache, UnwritableRootCountsStoreErrors) {
  // Tests may run as root (CI containers), where permission bits are
  // ineffective — nest the cache root under a regular file instead, so
  // create_directories fails with ENOTDIR for every euid.
  TempDir dir("alertsim-cache-test-");
  const std::string blocker = dir.path() + "/blocker";
  std::ofstream(blocker) << "not a directory\n";
  ResultCache cache(blocker + "/cache");
  const core::RunResult run = core::run_once(tiny_scenario(), 0);
  const std::string key = core::scenario_unit_key(tiny_scenario(), 0);
  EXPECT_FALSE(cache.store(key, run));
  EXPECT_FALSE(cache.store(key, run));
  EXPECT_EQ(cache.store_errors(), 2u);
  EXPECT_FALSE(cache.load(key).has_value());
}

TEST(ResultCache, EmptyCacheDirEnvFallsBackToDefault) {
  const char* saved = std::getenv("ALERTSIM_CACHE_DIR");
  const std::string restore = saved != nullptr ? saved : "";

  ::setenv("ALERTSIM_CACHE_DIR", "", 1);
  EXPECT_EQ(default_cache_root(), ".alertsim-cache");
  ::setenv("ALERTSIM_CACHE_DIR", "/tmp/alertsim-somewhere", 1);
  EXPECT_EQ(default_cache_root(), "/tmp/alertsim-somewhere");
  ::unsetenv("ALERTSIM_CACHE_DIR");
  EXPECT_EQ(default_cache_root(), ".alertsim-cache");

  if (saved != nullptr) {
    ::setenv("ALERTSIM_CACHE_DIR", restore.c_str(), 1);
  }
}

TEST(ScenarioUnitKey, ChangesWithParamsAndReplication) {
  const core::ScenarioConfig cfg = tiny_scenario();
  const std::string key = core::scenario_unit_key(cfg, 0);
  EXPECT_EQ(core::scenario_unit_key(cfg, 0), key);  // stable
  EXPECT_NE(core::scenario_unit_key(cfg, 1), key);  // replication

  core::ScenarioConfig changed = cfg;
  changed.speed_mps = cfg.speed_mps + 0.5;
  EXPECT_NE(core::scenario_unit_key(changed, 0), key);  // any param
  changed = cfg;
  changed.seed += 1;
  EXPECT_NE(core::scenario_unit_key(changed, 0), key);  // seed

  // Observability settings are not semantic: they never split the cache.
  changed = cfg;
  changed.obs.profile = !cfg.obs.profile;
  changed.obs.trace_out = "/tmp/whatever.jsonl";
  EXPECT_EQ(core::scenario_unit_key(changed, 0), key);
}

// --- journal ---------------------------------------------------------------

TEST(Journal, PersistsAcrossReopen) {
  TempDir dir("alertsim-journal-test-");
  {
    Journal journal(dir.path(), "spec_a");
    EXPECT_EQ(journal.done_count(), 0u);
    journal.mark_done("aaaa");
    journal.mark_done("bbbb");
    journal.mark_done("aaaa");  // idempotent
    EXPECT_EQ(journal.done_count(), 2u);
  }
  Journal reopened(dir.path(), "spec_a");
  EXPECT_EQ(reopened.done_count(), 2u);
  EXPECT_TRUE(reopened.contains("aaaa"));
  EXPECT_TRUE(reopened.contains("bbbb"));
  EXPECT_FALSE(reopened.contains("cccc"));
}

TEST(Journal, IgnoresTornTailLine) {
  TempDir dir("alertsim-journal-test-");
  { Journal(dir.path(), "spec_b").mark_done("aaaa"); }
  {
    // Simulate a process killed mid-append: a record missing its newline
    // is still a complete line to getline, but a half-written "don" is not
    // a well-formed record.
    std::ofstream out(dir.path() + "/spec_b.journal", std::ios::app);
    out << "don";
  }
  Journal reopened(dir.path(), "spec_b");
  EXPECT_EQ(reopened.done_count(), 1u);
  EXPECT_TRUE(reopened.contains("aaaa"));
}

TEST(Journal, UnwritableDirCountsWriteErrorsInsteadOfSilence) {
  // Same ENOTDIR trick as the cache test: works under any euid.
  TempDir dir("alertsim-journal-test-");
  const std::string blocker = dir.path() + "/blocker";
  std::ofstream(blocker) << "not a directory\n";
  Journal journal(blocker + "/journal", "spec_e");
  EXPECT_GE(journal.write_errors(), 1u);  // the failed open
  const std::size_t before = journal.write_errors();
  journal.mark_done("aaaa");
  journal.mark_done("bbbb");
  EXPECT_EQ(journal.write_errors(), before + 2);
  // In-memory view still works — only durability is degraded.
  EXPECT_TRUE(journal.contains("aaaa"));
}

// --- spec JSON loader ------------------------------------------------------

constexpr const char* kGoodSpec = R"({
  "schema": "alertsim-campaign-spec/1",
  "name": "sweep_speed",
  "y_metric": "delivery_rate",
  "reps": 2,
  "base": {"node_count": 30, "duration_s": 10, "flow_count": 2},
  "curves": [
    {"name": "ALERT"},
    {"name": "GPSR", "set": {"protocol": "gpsr"}}
  ],
  "x": {"param": "speed_mps", "values": [2, 4]},
  "notes": ["hand-written spec"]
})";

TEST(SpecLoader, ExpandsCurveMajor) {
  std::string error;
  const auto spec = load_spec_json(kGoodSpec, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->name, "sweep_speed");
  EXPECT_EQ(spec->fallback_reps, 2u);
  ASSERT_EQ(spec->points.size(), 4u);
  EXPECT_EQ(spec->points[0].curve, "ALERT");
  EXPECT_EQ(spec->points[1].curve, "ALERT");
  EXPECT_EQ(spec->points[2].curve, "GPSR");
  EXPECT_EQ(spec->points[3].curve, "GPSR");
  EXPECT_EQ(spec->points[1].x, 4.0);
  EXPECT_EQ(spec->points[1].config.speed_mps, 4.0);
  EXPECT_EQ(spec->points[0].config.node_count, 30u);
  EXPECT_EQ(spec->points[2].config.protocol, core::ProtocolKind::Gpsr);
  ASSERT_EQ(spec->notes.size(), 1u);
  EXPECT_EQ(spec->x_label, "speed_mps");
}

TEST(SpecLoader, RejectsBadInput) {
  std::string error;
  EXPECT_FALSE(load_spec_json("{}", &error));
  EXPECT_FALSE(load_spec_json(
      R"({"schema":"alertsim-campaign-spec/1","name":"x",
          "y_metric":"no_such_metric","x":{"param":"speed_mps","values":[1]}})",
      &error));
  EXPECT_NE(error.find("no_such_metric"), std::string::npos);
  EXPECT_FALSE(load_spec_json(
      R"({"schema":"alertsim-campaign-spec/1","name":"x",
          "y_metric":"delivery_rate",
          "base":{"no_such_param":1},
          "x":{"param":"speed_mps","values":[1]}})",
      &error));
}

// --- engine ----------------------------------------------------------------

CampaignOptions engine_options(const std::string& cache_dir,
                               const std::string& metrics_out) {
  CampaignOptions options;
  options.reps = 2;
  options.threads = 2;
  options.cache_dir = cache_dir;
  options.metrics_out = metrics_out;
  options.print = false;
  return options;
}

TEST(Engine, CachedRerunIsByteIdentical) {
  TempDir dir("alertsim-engine-test-");
  const CampaignSpec spec = tiny_spec("engine_cached");
  const std::string out = dir.path() + "/m.json";

  const CampaignOutcome cold =
      run_campaign(spec, engine_options(dir.path() + "/cache", out));
  EXPECT_EQ(cold.exit_code, 0);
  EXPECT_EQ(cold.units_total, 4u);
  EXPECT_EQ(cold.executed, 4u);
  EXPECT_EQ(cold.cache_hits, 0u);

  const CampaignOutcome warm =
      run_campaign(spec, engine_options(dir.path() + "/cache", out));
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(warm.cache_hits, 4u);
  EXPECT_EQ(manifest_bytes(warm.manifest), manifest_bytes(cold.manifest));
  EXPECT_EQ(warm.manifest.trace_digests, cold.manifest.trace_digests);
  ASSERT_EQ(warm.manifest.trace_digests.size(), 4u);
  EXPECT_TRUE(std::is_sorted(cold.manifest.trace_digests.begin(),
                             cold.manifest.trace_digests.begin() + 2));

  // A cache-less run reproduces everything except the wall-clock profile
  // (fresh timings can never byte-match; cached replays do, checked above).
  CampaignOptions no_cache = engine_options("", out);
  no_cache.use_cache = false;
  CampaignOutcome live = run_campaign(spec, no_cache);
  EXPECT_EQ(live.executed, 4u);
  obs::RunManifest cold_stripped = cold.manifest;
  live.manifest.profile.scopes.clear();
  cold_stripped.profile.scopes.clear();
  EXPECT_EQ(manifest_bytes(live.manifest), manifest_bytes(cold_stripped));
}

TEST(Engine, ParamOrSeedChangeMissesCache) {
  TempDir dir("alertsim-engine-test-");
  const std::string cache = dir.path() + "/cache";
  CampaignSpec spec = tiny_spec("engine_miss");
  (void)run_campaign(spec, engine_options(cache, ""));

  CampaignSpec changed = tiny_spec("engine_miss");
  changed.points[0].config.speed_mps += 1.0;
  const CampaignOutcome after_param =
      run_campaign(changed, engine_options(cache, ""));
  EXPECT_EQ(after_param.executed, 2u);  // point 0's units only
  EXPECT_EQ(after_param.cache_hits, 2u);

  CampaignSpec reseeded = tiny_spec("engine_miss");
  for (PointSpec& point : reseeded.points) point.config.seed += 1;
  const CampaignOutcome after_seed =
      run_campaign(reseeded, engine_options(cache, ""));
  EXPECT_EQ(after_seed.executed, 4u);
  EXPECT_EQ(after_seed.cache_hits, 0u);
}

TEST(Engine, ResumeAfterPartialRunMatchesUninterrupted) {
  TempDir dir("alertsim-engine-test-");
  const CampaignSpec spec = tiny_spec("engine_resume");

  // Uninterrupted reference, no cache involved (profile stripped: fresh
  // wall-clock timings differ run to run; determinism covers everything
  // else).
  CampaignOptions reference = engine_options("", "");
  reference.use_cache = false;
  CampaignOutcome uninterrupted = run_campaign(spec, reference);
  uninterrupted.manifest.profile.scopes.clear();
  const std::string expected = manifest_bytes(uninterrupted.manifest);

  // "Crash" after one unit: pre-seed the cache with a single completed unit,
  // exactly the state a killed campaign leaves behind (the engine always
  // executes with the self-profile on, so the seeded entry must too).
  const std::string cache_dir = dir.path() + "/cache";
  {
    ResultCache cache(cache_dir);
    Journal journal(cache_dir + "/journal", spec.name);
    const std::string key =
        core::scenario_unit_key(spec.points[0].config, 0);
    core::ScenarioConfig cfg = spec.points[0].config;
    cfg.obs.profile = true;
    cache.store(key, core::run_once(cfg, 0));
    journal.mark_done(key);
  }
  CampaignOutcome resumed = run_campaign(spec, engine_options(cache_dir, ""));
  EXPECT_EQ(resumed.cache_hits, 1u);
  EXPECT_EQ(resumed.executed, 3u);
  resumed.manifest.profile.scopes.clear();
  EXPECT_EQ(manifest_bytes(resumed.manifest), expected);
}

TEST(Engine, RepsOverridePinsPointReplications) {
  TempDir dir("alertsim-engine-test-");
  CampaignSpec spec = tiny_spec("engine_override");
  spec.points[0].reps_override = 1;
  const CampaignOutcome outcome =
      run_campaign(spec, engine_options(dir.path() + "/cache", ""));
  EXPECT_EQ(outcome.units_total, 3u);  // 1 + 2
  EXPECT_EQ(outcome.reps, 2u);
}

TEST(Engine, UnwritableCacheRootDegradesGracefully) {
  // A sweep pointed at an unusable cache root must still complete (exit 0,
  // every unit executed live) and must say so: store/journal failures are
  // counted on the outcome, never silent.
  TempDir dir("alertsim-engine-test-");
  const std::string blocker = dir.path() + "/blocker";
  std::ofstream(blocker) << "not a directory\n";
  const CampaignSpec spec = tiny_spec("engine_degraded");
  const CampaignOutcome outcome =
      run_campaign(spec, engine_options(blocker + "/cache", ""));
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_EQ(outcome.executed, outcome.units_total);
  EXPECT_EQ(outcome.cache_hits, 0u);
  EXPECT_EQ(outcome.cache_store_errors, outcome.units_total);
  EXPECT_GE(outcome.journal_write_errors, outcome.units_total);
}

// --- figure registry -------------------------------------------------------

TEST(FigureRegistry, EveryFigureBuildsAConsistentSpec) {
  for (const FigureDef& def : figure_registry()) {
    const CampaignSpec spec = def.build();
    // Names are unique: each one finds its own entry.
    EXPECT_EQ(find_figure(spec.name), &def) << spec.name;
    EXPECT_FALSE(spec.banner.empty()) << spec.name;
    EXPECT_FALSE(spec.title.empty()) << spec.name;
    // Default-reduced specs must name a known y-metric.
    if (!spec.reduce) {
      EXPECT_NE(core::find_y_metric(spec.y_metric), nullptr)
          << spec.name << " y_metric=" << spec.y_metric;
    }
  }
  EXPECT_NE(find_figure("fig11_rf_vs_partitions"), nullptr);
  EXPECT_EQ(find_figure("no_such_figure"), nullptr);
}

TEST(FigureRegistry, UnitKeysArePinned) {
  // The cache identity of the whole paper: every registry unit key at one
  // rep, in registry order, one per line. Any change to the canonical dump,
  // the key derivation or the registry's scenarios moves this digest and
  // turns every warm cache cold; kSimulationEpoch bumps move it on purpose.
  std::string keys;
  std::size_t units = 0;
  for (const FigureDef& def : figure_registry()) {
    for (const WorkUnit& unit : expand_units(def.build(), 1).units) {
      keys += unit.key;
      keys += '\n';
      ++units;
    }
  }
  EXPECT_EQ(units, 242u);
  std::string hex;
  for (const std::uint8_t byte : crypto::Sha1::hash(keys)) {
    hex += "0123456789abcdef"[byte >> 4];
    hex += "0123456789abcdef"[byte & 0xF];
  }
  EXPECT_EQ(hex, "0721a35face6755e95fc855b04eb6a9a2756481c");
}

/// A deterministic stand-in for one unit's replication: every scalar is
/// distinct and derived from the unit's slot, `delivered > 0`, and the
/// vectors are non-empty (one compromise entry per budget), so each
/// reducer's data path runs without a simulation.
core::RunResult synthetic_run(std::size_t slot,
                              const core::ScenarioConfig& config) {
  const double s = static_cast<double>(slot) + 1.0;
  core::RunResult r;
  r.sent = 40 + slot;
  r.delivered = 20 + slot;
  r.mean_latency_s = 0.001 * s;
  r.mean_e2e_delay_s = 0.002 * s;
  r.mean_hops = 1.5 + s;
  r.mean_participants = 3.25 * s;
  r.mean_route_overlap = 1.0 / (1.0 + s);
  r.rf_per_packet = 0.5 * s;
  r.partitions_per_packet = 0.75 * s;
  r.control_hops_per_packet = 0.125 * s;
  r.cumulative_participants = {s, s + 1.0, s + 2.5};
  r.remaining_by_sample = {10.0 + s, 8.0 + s, 5.5 + s};
  r.cover_packets_per_data = 0.0625 * s;
  r.timing_source_rate = 1.0 / (2.0 + s);
  r.timing_dest_rate = 1.0 / (3.0 + s);
  r.intersection_success = 1.0 / (4.0 + s);
  r.intersection_identified = 1.0 / (5.0 + s);
  r.intersection_frequency = 1.0 / (6.0 + s);
  for (std::size_t i = 0; i < config.compromise_budgets.size(); ++i) {
    r.compromise_targeted.push_back(0.01 * s + 0.1 * static_cast<double>(i));
    r.compromise_blocked.push_back(0.02 * s + 0.05 * static_cast<double>(i));
  }
  r.location_update_messages = 1000 + slot;
  r.hello_messages = 5000 + slot;
  r.energy_total_j = 7.0 * s;
  r.energy_crypto_j = 2.5 * s;
  r.energy_per_delivered_j = 0.3 * s;
  r.energy_max_node_j = 0.9 * s;
  r.trace_digest = 0x9E3779B97F4A7C15ULL * (slot + 1);
  return r;
}

TEST(FigureRegistry, ManifestsArePinned) {
  // What the reducers write: all 27 registry manifests at one rep, folded
  // by the engine's own assemble_manifest from synthetic unit results (no
  // simulation), `version` blanked. A change to a figure's points, curve
  // names, reducer, notes or y-metric extraction moves this digest.
  std::string all;
  std::size_t manifests = 0;
  for (const FigureDef& def : figure_registry()) {
    const CampaignSpec spec = def.build();
    const UnitGrid grid = expand_units(spec, 1);
    std::vector<core::RunResult> results;
    for (const WorkUnit& unit : grid.units) {
      results.push_back(
          synthetic_run(unit.slot, spec.points[unit.point].config));
    }
    std::string json =
        manifest_bytes(assemble_manifest(spec, grid, std::move(results)));
    const std::string version =
        std::string("\"") + obs::build_version() + "\"";
    const std::size_t at = json.find(version, json.find("\"version\""));
    ASSERT_NE(at, std::string::npos) << spec.name;
    json.replace(at, version.size(), "\"\"");
    all += json;
    ++manifests;
  }
  EXPECT_EQ(manifests, 27u);
  EXPECT_EQ(crypto::to_hex(crypto::Sha1::hash(all)),
            "111f47b829000f4b4225f40875dccff0592cab54");
}

/// synthetic_run plus what one delivering replication never shows: rep 1
/// delivers nothing, and rep 2's participant and residency vectors are one
/// entry longer than the other reps'.
core::RunResult fold_case_run(const WorkUnit& unit,
                              const core::ScenarioConfig& config) {
  core::RunResult r = synthetic_run(unit.slot, config);
  if (unit.rep == 1) r.delivered = 0;
  if (unit.rep == 2) {
    r.cumulative_participants.push_back(r.cumulative_participants.back() + 4.0);
    r.remaining_by_sample.push_back(r.remaining_by_sample.back() - 2.0);
  }
  return r;
}

TEST(FigureRegistry, FoldsArePinned) {
  // How replications fold into a point: a one-point default-reduced spec
  // per y-metric at 4 reps, then all 27 registry figures at 3 reps, from
  // fold_case_run results, `version` blanked. So a CI, the rule that only
  // delivering reps fold latency/delay/hops/energy per packet, and the
  // per-index fold of vectors of unequal length are all in the digest.
  // The names are spelt out: renaming a y-metric fails here.
  std::vector<std::pair<CampaignSpec, std::size_t>> campaigns;
  for (const char* y_metric :
       {"delivery_rate", "latency_ms", "e2e_delay_ms", "hops",
        "hops_with_control", "participants", "route_overlap",
        "rf_per_packet", "partitions_per_packet", "cover_per_data",
        "energy_per_delivered_j", "energy_total_j", "energy_crypto_j",
        "energy_max_node_j", "timing_source_rate", "timing_dest_rate",
        "intersection_success", "intersection_identified",
        "intersection_frequency"}) {
    CampaignSpec spec = tiny_spec(std::string("fold_") + y_metric);
    spec.y_metric = y_metric;
    spec.points.resize(1);
    campaigns.emplace_back(std::move(spec), 4);
  }
  for (const FigureDef& def : figure_registry()) {
    campaigns.emplace_back(def.build(), 3);
  }
  std::string all;
  for (const auto& [spec, reps] : campaigns) {
    const UnitGrid grid = expand_units(spec, reps);
    std::vector<core::RunResult> results;
    for (const WorkUnit& unit : grid.units) {
      results.push_back(fold_case_run(unit, spec.points[unit.point].config));
    }
    std::string json =
        manifest_bytes(assemble_manifest(spec, grid, std::move(results)));
    const std::string version =
        std::string("\"") + obs::build_version() + "\"";
    const std::size_t at = json.find(version, json.find("\"version\""));
    ASSERT_NE(at, std::string::npos) << spec.name;
    json.replace(at, version.size(), "\"\"");
    all += json;
  }
  EXPECT_EQ(campaigns.size(), 19u + 27u);
  EXPECT_EQ(crypto::to_hex(crypto::Sha1::hash(all)),
            "7051e224e2a25c1abbef15c02e1bef9c109f93ab");
}

}  // namespace
}  // namespace alert::campaign
