#pragma once

/// \file figures.hpp
/// The built-in campaign registry: every figure of the paper's evaluation
/// (and this repo's ablations) as a CampaignSpec builder — its points,
/// series, table labels and commentary. `alertsim-campaign --figure NAME`
/// runs one entry and `alertsim-campaign --all` the whole registry in one
/// process.

#include <string_view>
#include <vector>

#include "campaign/spec.hpp"

namespace alert::campaign {

/// A registry entry. Its name is the built spec's `name` (the manifest's).
struct FigureDef {
  CampaignSpec (*build)();
};

/// All registered figures, in the paper's presentation order.
[[nodiscard]] const std::vector<FigureDef>& figure_registry();

/// The figure whose built spec is named `name`; nullptr when unknown.
[[nodiscard]] const FigureDef* find_figure(std::string_view name);

}  // namespace alert::campaign
