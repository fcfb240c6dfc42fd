/// \file alertsim_cli.cpp
/// Scenario driver: run any protocol/parameter combination from the
/// command line and print the full metric set (optionally as a CSV row,
/// for scripting sweeps beyond the registry's figure campaigns).
///
///   alertsim_cli --protocol alert --nodes 200 --speed 2 --duration 100
///                --flows 10 --h 5 --reps 10 [--attacks] [--csv]
///                [--mobility rwp|group|static] [--groups 10]
///                [--group-range 150] [--no-dest-update]
///                [--countermeasure] [--seed 1]
///                [--trace-out run.json] [--metrics-out manifest.json]
///                [--log-level info] [--profile]

#include <cstdio>
#include <cstring>
#include <string>

#include "core/experiment.hpp"
#include "obs/manifest.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

alert::core::ProtocolKind parse_protocol(const std::string& name) {
  using alert::core::ProtocolKind;
  if (name == "gpsr") return ProtocolKind::Gpsr;
  if (name == "alarm") return ProtocolKind::Alarm;
  if (name == "ao2p") return ProtocolKind::Ao2p;
  if (name == "zap") return ProtocolKind::Zap;
  return ProtocolKind::Alert;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alert;

  std::string error;
  const auto parsed = util::CliArgs::parse(argc, argv, &error);
  if (!parsed) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const util::CliArgs& args = *parsed;

  core::ScenarioConfig cfg;
  cfg.protocol = parse_protocol(args.get("protocol", std::string("alert")));
  cfg.node_count = static_cast<std::size_t>(args.get("nodes", std::int64_t{200}));
  cfg.speed_mps = args.get("speed", 2.0);
  cfg.duration_s = args.get("duration", 100.0);
  cfg.flow_count = static_cast<std::size_t>(args.get("flows", std::int64_t{10}));
  cfg.payload_bytes = static_cast<std::size_t>(args.get("payload", std::int64_t{512}));
  cfg.packet_interval_s = args.get("interval", 2.0);
  cfg.alert.partitions_h = static_cast<int>(args.get("h", std::int64_t{5}));
  cfg.alert.intersection_countermeasure = args.get("countermeasure", false);
  cfg.alert.notify_and_go = !args.get("no-notify", false);
  cfg.destination_update = !args.get("no-dest-update", false);
  cfg.run_attacks = args.get("attacks", false);
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  cfg.radio_range_m = args.get("range", 250.0);

  // Shared observability flags (see util/cli.hpp): structured trace sink,
  // run-manifest output, log threshold.
  const util::CommonFlags obs_flags = util::CommonFlags::from(args);
  cfg.obs.trace_out = obs_flags.trace_out;
  cfg.obs.profile = args.get("profile", false) || !obs_flags.metrics_out.empty();
  if (const auto level = util::parse_log_level(obs_flags.log_level)) {
    util::set_log_level(*level);
  } else {
    std::fprintf(stderr, "error: bad --log-level=%s\n",
                 obs_flags.log_level.c_str());
    return 2;
  }

  const std::string mobility = args.get("mobility", std::string("rwp"));
  if (mobility == "group") {
    cfg.mobility = core::MobilityKind::Group;
    cfg.group_count = static_cast<std::size_t>(args.get("groups", std::int64_t{10}));
    cfg.group_range_m = args.get("group-range", 150.0);
  } else if (mobility == "static") {
    cfg.mobility = core::MobilityKind::Static;
  }

  const auto reps = static_cast<std::size_t>(args.get("reps", std::int64_t{10}));
  const bool csv = args.get("csv", false);
  if (obs_flags.threads < 0) {
    std::fprintf(stderr, "error: --threads must be >= 0\n");
    return 2;
  }

  for (const std::string& key : args.unused()) {
    std::fprintf(stderr, "warning: unknown flag --%s ignored\n", key.c_str());
  }

  const core::ExperimentResult r = core::run_experiment(
      cfg, reps, static_cast<std::size_t>(obs_flags.threads));

  if (!obs_flags.metrics_out.empty()) {
    obs::RunManifest manifest;
    manifest.name = "alertsim_cli";
    manifest.title = std::string("alertsim_cli — ") +
                     core::protocol_name(cfg.protocol);
    manifest.seed = cfg.seed;
    manifest.replications = reps;
    manifest.add_param("protocol", core::protocol_name(cfg.protocol));
    manifest.add_param("node_count", std::to_string(cfg.node_count));
    manifest.add_param("speed_mps", std::to_string(cfg.speed_mps));
    manifest.add_param("duration_s", std::to_string(cfg.duration_s));
    manifest.add_param("flow_count", std::to_string(cfg.flow_count));
    manifest.trace_digests = r.trace_digests;
    manifest.metrics = r.metrics;
    manifest.profile = r.profile;
    if (!manifest.write_file(obs_flags.metrics_out)) return 1;
  }

  if (csv) {
    std::printf(
        "protocol,nodes,speed,duration,reps,delivery,latency_ms,e2e_ms,"
        "hops,participants,rf_per_packet,route_overlap,energy_per_pkt_j,"
        "timing_src,intersect_p\n");
    std::printf("%s,%zu,%.3g,%.3g,%zu,%.4f,%.3f,%.3f,%.3f,%.2f,%.3f,%.3f,"
                "%.5f,%.3f,%.3f\n",
                core::protocol_name(cfg.protocol), cfg.node_count,
                cfg.speed_mps, cfg.duration_s, reps,
                r.delivery_rate.mean(), r.latency_s.mean() * 1e3,
                r.e2e_delay_s.mean() * 1e3, r.hops.mean(),
                r.participants.mean(), r.rf_per_packet.mean(),
                r.route_overlap.mean(), r.energy_per_delivered_j.mean(),
                r.timing_source_rate.mean(), r.intersection_success.mean());
    return 0;
  }

  std::printf("%s — %zu nodes, %.1f m/s, %.0f s, %zu flows, %zu reps\n\n",
              core::protocol_name(cfg.protocol), cfg.node_count,
              cfg.speed_mps, cfg.duration_s, cfg.flow_count, reps);
  std::printf("  delivery rate        %.3f (+/-%.3f)\n",
              r.delivery_rate.mean(), r.delivery_rate.ci95_halfwidth());
  std::printf("  latency per packet   %.2f ms (+/-%.2f)\n",
              r.latency_s.mean() * 1e3, r.latency_s.ci95_halfwidth() * 1e3);
  std::printf("  end-to-end delay     %.2f ms\n", r.e2e_delay_s.mean() * 1e3);
  std::printf("  hops per packet      %.2f (+/-%.2f)\n", r.hops.mean(),
              r.hops.ci95_halfwidth());
  std::printf("  participants/flow    %.1f\n", r.participants.mean());
  std::printf("  RFs per packet       %.2f\n", r.rf_per_packet.mean());
  std::printf("  route overlap        %.2f\n", r.route_overlap.mean());
  std::printf("  energy per packet    %.4f J\n",
              r.energy_per_delivered_j.mean());
  if (cfg.run_attacks) {
    std::printf("  timing src-id rate   %.2f\n", r.timing_source_rate.mean());
    std::printf("  intersection P(D)    %.2f (freq %.2f)\n",
                r.intersection_success.mean(),
                r.intersection_frequency.mean());
  }
  return 0;
}
