/// \file quickstart.cpp
/// Minimal end-to-end use of the alertsim public API: build a 200-node
/// MANET on a 1 km^2 field (the paper's default setup), run ALERT traffic
/// between 10 random S-D pairs for 100 simulated seconds, and print the
/// paper's evaluation metrics next to GPSR's for comparison.

#include <cstdio>

#include "core/experiment.hpp"

int main() {
  using namespace alert;

  core::ScenarioConfig cfg;      // paper defaults: 1000x1000 m, 200 nodes,
  cfg.duration_s = 100.0;        // 2 m/s, 250 m range, 10 pairs, 512 B CBR
  cfg.run_attacks = true;
  cfg.seed = 42;

  std::printf("alertsim quickstart — %zu nodes, %.0f s, %zu flows\n\n",
              cfg.node_count, cfg.duration_s, cfg.flow_count);

  // Rows of the y-metric table (core::y_metrics()); each prints its mean
  // over the replications, in the row's scale.
  const char* const metrics[] = {
      "delivery_rate",      "latency_ms",           "hops",
      "participants",       "route_overlap",        "rf_per_packet",
      "timing_source_rate", "intersection_success", "intersection_frequency"};
  for (const core::ProtocolKind proto :
       {core::ProtocolKind::Alert, core::ProtocolKind::Gpsr}) {
    cfg.protocol = proto;
    const core::ExperimentResult r = core::run_experiment(cfg, 3);
    std::printf("%s:\n", core::protocol_name(proto));
    for (const char* metric : metrics) {
      std::printf("  %-24s %.3f\n", metric, r.point(metric).y);
    }
    std::printf("\n");
  }
  std::printf(
      "ALERT should match GPSR's delivery at slightly higher latency/hops\n"
      "while spreading traffic over far more nodes and defeating the\n"
      "attacks — run alertsim-campaign --all for the full figure\n"
      "reproductions.\n");
  return 0;
}
