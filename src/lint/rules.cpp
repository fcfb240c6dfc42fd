#include "lint/rules.hpp"

#include "lint/rules_detail.hpp"

namespace alert::analysis_tools {

std::vector<std::unique_ptr<Rule>> make_default_rules(
    const AnalyzerConfig& config) {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(detail::make_float_type(config));
  rules.push_back(detail::make_raw_stdout(config));
  rules.push_back(detail::make_iterator_invalidation());
  rules.push_back(detail::make_module_layering(config));
  rules.push_back(detail::make_unordered_iteration(config));
  rules.push_back(detail::make_pointer_ordering());
  rules.push_back(detail::make_exhaustive_enum());
  rules.push_back(detail::make_mutable_global(config));
  rules.push_back(detail::make_rng_discipline(config));
  rules.push_back(detail::make_wallclock_in_sim(config));
  rules.push_back(detail::make_lock_discipline(config));
  return rules;
}

}  // namespace alert::analysis_tools
