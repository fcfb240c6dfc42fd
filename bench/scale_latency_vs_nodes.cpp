// scale_latency_vs_nodes: the fig14a-style curve continued past the paper's
// 400-node x-axis. Runs one ALERT replication per population (default 10k
// and 100k nodes) at the paper's density (the arena grows as sqrt(n/200) km
// so neighbourhoods stay at Sec. 5.2 scale, and the network indexes nodes
// in its spatial grid), and writes one RunManifest with the latency and
// events/s series, per-replication digests, and the per-subsystem
// wall-clock self-profile (net.query isolates the neighbour index).
//
// Usage:
//   scale_latency_vs_nodes [--nodes 10000,100000] [--duration 5]
//                          [--out scale_latency_manifest.json] [--peak-rss]
//                          [--log-level L]

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "obs/manifest.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "perf/kernels.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

using namespace alert;

int usage(const char* msg) {
  if (msg != nullptr) {
    std::fprintf(stderr, "scale_latency_vs_nodes: %s\n", msg);
  }
  std::fprintf(stderr,
               "usage: scale_latency_vs_nodes [--nodes N,N,...] [--duration S]\n"
               "       [--out FILE] [--peak-rss] [--log-level L]\n");
  return 2;
}

/// Parse "10000,100000" into counts; returns false on any bad token.
bool parse_node_list(const std::string& text, std::vector<std::size_t>* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t next = text.find(',', pos);
    if (next == std::string::npos) next = text.size();
    const std::string token = text.substr(pos, next - pos);
    try {
      std::size_t used = 0;
      const unsigned long long n = std::stoull(token, &used);
      if (used != token.size() || n == 0) return false;
      out->push_back(static_cast<std::size_t>(n));
    } catch (...) {
      return false;
    }
    pos = next + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto args = util::CliArgs::parse(argc, argv, &error);
  if (!args) return usage(error.c_str());

  const std::string nodes_arg =
      args->get("nodes", std::string("10000,100000"));
  const double duration_s = args->get("duration", 5.0);
  const std::string out_path =
      args->get("out", std::string("scale_latency_manifest.json"));
  const bool record_rss = args->get("peak-rss", false);
  const std::string log_level = args->get("log-level", std::string("info"));
  if (const auto bad = args->rejection()) return usage(bad->c_str());
  if (const auto level = util::parse_log_level(log_level)) {
    util::set_log_level(*level);
  } else {
    return usage(("bad --log-level=" + log_level).c_str());
  }
  if (duration_s <= 0.0) return usage("--duration must be > 0");

  std::vector<std::size_t> node_counts;
  if (!parse_node_list(nodes_arg, &node_counts)) {
    return usage("--nodes wants a comma-separated list of positive counts");
  }

  obs::RunManifest manifest;
  manifest.name = "scale_latency_vs_nodes";
  manifest.title = "ALERT latency vs. nodes (paper-density arena)";
  manifest.x_label = "nodes";
  manifest.y_label = "latency (s)";
  manifest.add_param("duration_s", std::to_string(duration_s));

  util::Series latency;
  latency.name = "ALERT";
  util::Series events_per_s;
  events_per_s.name = "events_per_s";

  for (const std::size_t n : node_counts) {
    // Profiled like every perf scenario: per-subsystem scopes, net.query too.
    const core::ScenarioConfig config = perf::scale_scenario(n, duration_s);
    if (manifest.seed == 0) manifest.seed = config.seed;
    ALERT_LOG_INFO("scale bench: %zu nodes, %.1f s sim time...", n,
                   duration_s);
    const std::uint64_t start = obs::monotonic_ns();
    const core::RunResult run = core::run_once(config, 0);
    const double wall_s =
        static_cast<double>(obs::monotonic_ns() - start) / 1e9;
    latency.points.push_back(
        {static_cast<double>(n), run.mean_latency_s, 0.0});
    events_per_s.points.push_back(
        {static_cast<double>(n),
         static_cast<double>(run.events_executed) / wall_s, 0.0});
    manifest.trace_digests.push_back(run.trace_digest);
    manifest.metrics.merge(run.metrics);
    manifest.profile.merge(run.profile);
    ++manifest.replications;
    ALERT_LOG_INFO(
        "scale bench: %zu nodes done in %.1f s wall (%.0f events/s, "
        "digest %016llx)",
        n, wall_s,
        static_cast<double>(run.events_executed) / wall_s,
        static_cast<unsigned long long>(run.trace_digest));
  }

  manifest.series.push_back(std::move(latency));
  manifest.series.push_back(std::move(events_per_s));
  if (record_rss) manifest.peak_rss_bytes = obs::peak_rss_bytes();
  if (!manifest.write_file(out_path)) {
    std::fprintf(stderr, "scale_latency_vs_nodes: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  std::printf("wrote %s (%zu populations)\n", out_path.c_str(),
              manifest.replications);
  std::printf("%s\n", manifest.profile.summary().c_str());
  return 0;
}
