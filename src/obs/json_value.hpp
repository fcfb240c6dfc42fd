#pragma once

/// \file json_value.hpp
/// Minimal JSON reader: the counterpart of JsonWriter (json.hpp) for the
/// artifacts this project both writes and reads back — campaign spec files,
/// the content-addressed result cache, and tests that verify run manifests
/// round-trip. Strict RFC 8259 subset: no comments, no trailing commas.
///
/// Numbers keep their raw source text so integer values round-trip exactly
/// (a std::uint64_t trace digest must not lose low bits through a double);
/// as_double()/as_u64()/as_i64() parse on demand.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace alert::obs {

class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  // Scalar accessors. Calling a mismatched accessor returns the fallback
  // rather than dying: cache/spec readers treat malformed input as a miss.
  [[nodiscard]] bool as_bool(bool fallback = false) const;
  [[nodiscard]] double as_double(double fallback = 0.0) const;
  [[nodiscard]] std::uint64_t as_u64(std::uint64_t fallback = 0) const;
  [[nodiscard]] std::int64_t as_i64(std::int64_t fallback = 0) const;
  [[nodiscard]] const std::string& as_string() const;  ///< "" if not a string

  /// Raw source text of a number token (exact, unparsed).
  [[nodiscard]] const std::string& raw_number() const { return scalar_; }

  // Containers.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const JsonValue& at(std::size_t i) const;  ///< array element
  [[nodiscard]] const std::vector<JsonValue>& array() const { return array_; }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& object()
      const {
    return object_;
  }
  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  // Construction (used by the parser; exposed for tests).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(std::string raw);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::string scalar_;  ///< string value, or raw number token
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parse one JSON document (trailing whitespace allowed, trailing garbage
/// is an error). Returns nullopt and fills `error` (with a byte offset) on
/// malformed input.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error = nullptr);

}  // namespace alert::obs
