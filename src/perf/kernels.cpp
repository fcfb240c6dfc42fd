#include "perf/kernels.hpp"

#include <cmath>
#include <utility>

#include "campaign/spec.hpp"
#include "net/mobility.hpp"
#include "util/check.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"

namespace alert::perf {

std::uint64_t run_dispatch_batch(std::size_t events) {
  sim::Simulator simulator;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < events; ++i) {
    simulator.schedule_at(static_cast<double>(i) * 1e-6, [&acc] { ++acc; });
  }
  simulator.run_until(static_cast<double>(events) * 1e-6);
  ALERT_INVARIANT(acc == events, "dispatch batch lost events");
  return simulator.events_executed();
}

QueryTopology::QueryTopology(std::size_t node_count, std::uint64_t seed,
                             double field_side_m)
    : simulator_(std::make_unique<sim::Simulator>()) {
  net::NetworkConfig config;
  config.node_count = node_count;
  config.field = util::Rect{0.0, 0.0, field_side_m, field_side_m};
  // Horizon 0: the constructor places nodes but schedules no periodic
  // processes, so the topology is pure t=0 state.
  network_ = std::make_unique<net::Network>(
      *simulator_, config,
      std::make_unique<net::StaticPlacement>(config.field), util::Rng(seed),
      0.0);
}

QueryTopology::~QueryTopology() = default;

std::uint64_t QueryTopology::run_queries(std::size_t queries) const {
  // Query centers come from their own fixed-seed stream, re-created per
  // call so repeated measurements of one topology scan identical centers.
  util::Rng centers(kKernelSeed ^ 0x5EA4C4ULL);
  const double radius = network_->config().radio_range_m;
  std::uint64_t found = 0;
  for (std::size_t i = 0; i < queries; ++i) {
    const util::Vec2 center = centers.point_in(network_->config().field);
    found += network_->nodes_within(center, radius, 0.0).size();
  }
  return found;
}

core::ScenarioConfig macro_scenario(std::size_t node_count,
                                    double duration_s) {
  core::ScenarioConfig config = campaign::paper_default_scenario();
  config.node_count = node_count;
  config.duration_s = duration_s;
  // Campaign units always run profiled (campaign::execute_unit), so the
  // gate times the same path, scope timers included.
  config.obs.profile = true;
  return config;
}

core::ScenarioConfig scale_scenario(std::size_t node_count,
                                    double duration_s) {
  core::ScenarioConfig config = macro_scenario(node_count, duration_s);
  // Grow the arena with the population so density (and therefore per-node
  // neighbourhood size) stays at the paper's 200 nodes / km^2. A fixed
  // field would make every broadcast physically O(n) and no index could
  // change that.
  const double side =
      std::sqrt(static_cast<double>(node_count) / 200.0) * 1000.0;
  config.field = util::Rect{0.0, 0.0, side, side};
  return config;
}

MacroRunStats run_macro_once(const core::ScenarioConfig& config) {
  const core::RunResult run = core::run_once(config, 0);
  MacroRunStats stats;
  stats.events_executed = run.events_executed;
  stats.delivered = run.delivered;
  if (const obs::MetricValue* tx = run.metrics.find("net.tx")) {
    stats.frames_tx = tx->total;
  }
  return stats;
}

}  // namespace alert::perf
