#pragma once

/// \file rules.hpp
/// The rule catalog. `make_default_rules` instantiates every built-in rule
/// against a config; docs/VERIFICATION.md documents each rule's rationale.
///
/// Ported from the retired Python alert-lint (token-based now):
///   float-type, raw-stdout, iterator-invalidation (its
///   header-self-sufficiency check is the `header_check` build target in
///   src/CMakeLists.txt, not a rule).
/// New rules regex could not express:
///   module-layering, unordered-iteration-ordering, pointer-ordering,
///   exhaustive-enum, mutable-global.
/// Whole-program determinism rules:
///   rng-discipline, wallclock-in-sim, lock-discipline.

#include <memory>
#include <vector>

#include "lint/rule.hpp"

namespace alert::analysis_tools {

[[nodiscard]] std::vector<std::unique_ptr<Rule>> make_default_rules(
    const AnalyzerConfig& config);

}  // namespace alert::analysis_tools
