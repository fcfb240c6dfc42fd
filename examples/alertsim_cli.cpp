/// \file alertsim_cli.cpp
/// Scenario driver: run any protocol/parameter combination from the
/// command line and print the full metric set (optionally as a CSV row,
/// for scripting sweeps beyond the registry's figure campaigns).
///
///   alertsim_cli [--KEY VALUE ...] [--reps 10] [--threads N] [--csv]
///                [--profile] [--trace-out run.json]
///                [--metrics-out manifest.json] [--log-level info]
///
/// Every flag but the driver's own above is a canonical scenario key
/// (core::canonical_scenario, the keys campaign specs take), e.g.
///
///   alertsim_cli --protocol gpsr --node_count 300 --speed_mps 4
///                --mobility group --run_attacks --reps 10 --csv
///
/// An unknown flag or a value that does not parse exits 2.

#include <cstdio>
#include <string>
#include <string_view>

#include "core/experiment.hpp"
#include "core/scenario_codec.hpp"
#include "obs/manifest.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

int usage(const std::string& msg) {
  std::fprintf(stderr, "alertsim_cli: %s\n", msg.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alert;

  std::string error;
  const auto parsed = util::CliArgs::parse(argc, argv, &error);
  if (!parsed) return usage(error);
  const util::CliArgs& args = *parsed;

  // The driver's own flags (see util/cli.hpp for the shared ones).
  const util::CommonFlags obs_flags = util::CommonFlags::from(args);
  const std::int64_t reps_flag = args.get("reps", std::int64_t{10});
  const bool csv = args.get("csv", false);
  const bool profile = args.get("profile", false);

  // Everything else is one scenario key each. Once every key is read,
  // rejection() can only name a driver flag whose value did not parse; that
  // outranks the "unknown scenario parameter" the flag also raised here.
  core::ScenarioConfig cfg;
  std::string scenario_error;
  for (const std::string& key : args.unused()) {
    if (!core::apply_scenario_param(cfg, key, args.get(key, std::string()),
                                    &error) &&
        scenario_error.empty()) {
      scenario_error = error;
    }
  }
  if (const auto bad = args.rejection()) return usage(*bad);
  if (!scenario_error.empty()) return usage(scenario_error);
  if (reps_flag < 1 ||
      static_cast<std::size_t>(reps_flag) > core::kMaxReplications) {
    return usage("--reps must be in 1.." +
                 std::to_string(core::kMaxReplications));
  }
  const auto reps = static_cast<std::size_t>(reps_flag);
  if (obs_flags.threads < 0) return usage("--threads must be >= 0");
  if (const auto level = util::parse_log_level(obs_flags.log_level)) {
    util::set_log_level(*level);
  } else {
    return usage("bad --log-level=" + obs_flags.log_level);
  }
  cfg.obs.trace_out = obs_flags.trace_out;
  cfg.obs.profile = profile || !obs_flags.metrics_out.empty();

  const core::ExperimentResult r = core::run_experiment(
      cfg, reps, static_cast<std::size_t>(obs_flags.threads));

  if (!obs_flags.metrics_out.empty()) {
    obs::RunManifest manifest;
    manifest.name = "alertsim_cli";
    manifest.title = std::string("alertsim_cli — ") +
                     core::protocol_name(cfg.protocol);
    manifest.seed = cfg.seed;
    manifest.replications = reps;
    // The scenario's canonical pairs: the manifest names the whole config.
    const std::string dump = core::canonical_scenario(cfg);
    for (std::string_view rest = dump; !rest.empty();) {
      const std::string_view line = rest.substr(0, rest.find('\n'));
      const std::size_t eq = line.find('=');
      manifest.add_param(std::string(line.substr(0, eq)),
                         std::string(line.substr(eq + 1)));
      rest.remove_prefix(line.size() + 1);
    }
    manifest.trace_digests = r.trace_digests;
    manifest.metrics = r.metrics;
    manifest.profile = r.profile;
    if (!manifest.write_file(obs_flags.metrics_out)) return 1;
  }

  if (csv) {
    // A column subset of the y-metric table, each at its own precision.
    struct Column {
      const char* y_metric;
      int precision;
    };
    constexpr Column kColumns[] = {
        {"delivery_rate", 4},      {"latency_ms", 3},
        {"e2e_delay_ms", 3},       {"hops", 3},
        {"participants", 2},       {"rf_per_packet", 3},
        {"route_overlap", 3},      {"energy_per_delivered_j", 5},
        {"timing_source_rate", 3}, {"intersection_success", 3}};
    std::printf("protocol,nodes,speed,duration,reps");
    for (const Column& c : kColumns) std::printf(",%s", c.y_metric);
    std::printf("\n%s,%zu,%.3g,%.3g,%zu", core::protocol_name(cfg.protocol),
                cfg.node_count, cfg.speed_mps, cfg.duration_s, reps);
    for (const Column& c : kColumns) {
      std::printf(",%.*f", c.precision, r.point(c.y_metric).y);
    }
    std::printf("\n");
    return 0;
  }

  std::printf("%s — %zu nodes, %.1f m/s, %.0f s, %zu flows, %zu reps\n\n",
              core::protocol_name(cfg.protocol), cfg.node_count,
              cfg.speed_mps, cfg.duration_s, cfg.flow_count, reps);
  for (const core::YMetric& row : core::y_metrics()) {
    const util::SeriesPoint p = r.point(row.name);
    std::printf("  %-24s %.4f (+/-%.4f)\n", row.name, p.y, p.ci);
  }
  return 0;
}
