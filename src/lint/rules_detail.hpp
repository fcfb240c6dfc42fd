#pragma once

/// \file rules_detail.hpp
/// Internal factory declarations wiring the rule TUs into
/// make_default_rules (lint/rules.cpp). Not part of the public surface.

#include <memory>

#include "lint/rule.hpp"

namespace alert::analysis_tools::detail {

std::unique_ptr<Rule> make_float_type(const AnalyzerConfig& c);
std::unique_ptr<Rule> make_raw_stdout(const AnalyzerConfig& c);
std::unique_ptr<Rule> make_iterator_invalidation();

std::unique_ptr<Rule> make_module_layering(const AnalyzerConfig& c);
std::unique_ptr<Rule> make_unordered_iteration(const AnalyzerConfig& c);
std::unique_ptr<Rule> make_pointer_ordering();
std::unique_ptr<Rule> make_exhaustive_enum();
std::unique_ptr<Rule> make_mutable_global(const AnalyzerConfig& c);

std::unique_ptr<Rule> make_rng_discipline(const AnalyzerConfig& c);
std::unique_ptr<Rule> make_wallclock_in_sim(const AnalyzerConfig& c);
std::unique_ptr<Rule> make_lock_discipline(const AnalyzerConfig& c);

}  // namespace alert::analysis_tools::detail
