#pragma once

/// \file parse.hpp
/// Strict text-to-value parsers: the whole string must be one value of the
/// type, or the parse fails and leaves `*out` untouched. One set serves
/// every textual input — util::CliArgs's typed getters and the scenario
/// codec (core::apply_scenario_param) — so "3x", " 3", "" and an
/// out-of-range number are rejected alike wherever they are typed.

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace alert::util {

/// Plain decimal (`std::from_chars`): no leading space or '+', no sign for
/// an unsigned T; doubles also take exponents, "inf" and "nan".
template <typename T>
  requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
[[nodiscard]] bool parse_number(std::string_view s, T* out) {
  T value{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

/// true/1/yes/on or false/0/no/off.
[[nodiscard]] inline bool parse_bool(std::string_view s, bool* out) {
  if (s == "true" || s == "1" || s == "yes" || s == "on") {
    *out = true;
    return true;
  }
  if (s == "false" || s == "0" || s == "no" || s == "off") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace alert::util
