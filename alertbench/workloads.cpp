#include "workloads.hpp"

#include <cmath>
#include <string>

#include "campaign/figures.hpp"

namespace alertbench {

namespace {

using alert::campaign::CampaignSpec;

/// splitmix64's finalizer: a bijection on 64-bit words.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Scenario seed of a point whose own seed is `base_seed`, under workload
/// seed `seed`. Identity at kDefaultSeed; injective in `seed`.
std::uint64_t point_seed(std::uint64_t seed, std::uint64_t base_seed) {
  // mix64(seed) ^ mix64(kDefaultSeed) is 0 only at kDefaultSeed because
  // mix64 is a bijection.
  return base_seed ^ mix64(seed) ^ mix64(kDefaultSeed);
}

std::vector<CampaignSpec> registry() {
  std::vector<CampaignSpec> specs;
  for (const alert::campaign::FigureDef& def :
       alert::campaign::figure_registry()) {
    specs.push_back(def.build());
  }
  return specs;
}

CampaignSpec arena_10k(std::uint64_t seed) {
  alert::core::ScenarioConfig cfg = alert::campaign::paper_default_scenario();
  cfg.node_count = kArenaNodes;
  // Grow the field with the population so density stays at the paper's
  // 200 nodes per km^2.
  const double side =
      std::sqrt(static_cast<double>(kArenaNodes) / 200.0) * 1000.0;
  cfg.field = alert::util::Rect{0.0, 0.0, side, side};
  cfg.duration_s = kArenaDurationS;
  cfg.seed = point_seed(seed, cfg.seed);

  CampaignSpec spec;
  spec.name = "arena_10k";
  spec.banner = "arena-10k — ALERT, Sec. 5.2 defaults at 10,000 nodes";
  spec.title = "arena-10k — ALERT latency at 10,000 nodes";
  spec.x_label = "nodes";
  spec.y_label = "latency (ms)";
  spec.y_metric = "latency_ms";
  spec.fallback_reps = kArenaReps;
  alert::campaign::PointSpec point;
  point.curve = "ALERT";
  point.x = static_cast<double>(kArenaNodes);
  point.config = cfg;
  spec.points.push_back(std::move(point));
  return spec;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "paper-cold") return Workload::PaperCold;
  if (name == "paper-warm") return Workload::PaperWarm;
  if (name == "arena-10k") return Workload::Arena10k;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::PaperCold: return "paper-cold";
    case Workload::PaperWarm: return "paper-warm";
    case Workload::Arena10k: return "arena-10k";
  }
  return "?";
}

std::vector<CampaignSpec> workload_specs(Workload w, std::uint64_t seed) {
  switch (w) {
    case Workload::PaperCold:
    case Workload::PaperWarm: return registry();
    case Workload::Arena10k: return {arena_10k(seed)};
  }
  return {};
}

std::size_t workload_reps(Workload w) {
  return w == Workload::Arena10k ? kArenaReps : kPaperReps;
}

}  // namespace alertbench
