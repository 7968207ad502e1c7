#pragma once
// Minimal JSON value model + recursive-descent parser.
//
// Grown for the benchmark harness: BENCH_*.json reports are written by
// src/obs/bench/report.cpp and read back by tools/bench_diff, so the repo
// needs to *parse* (not just validate) its own artifacts without an
// external dependency. Covers the full JSON grammar except \uXXXX escapes
// beyond ASCII (mapped through verbatim). Objects preserve insertion order
// and use linear lookup — documents here are small (hundreds of keys).

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace orp {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array();
  static JsonValue make_object();

  /// Parses one JSON document (throws std::runtime_error with a byte
  /// offset on malformed input, or on arrays and objects nested deeper
  /// than 512; trailing non-whitespace is an error).
  static JsonValue parse(std::string_view text);

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  // Typed accessors throw std::runtime_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;                      ///< array
  const std::vector<std::pair<std::string, JsonValue>>& members() const;  ///< object

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const noexcept;
  /// Object member that must exist (throws naming the missing key).
  const JsonValue& at(std::string_view key) const;

  // Mutators for building documents programmatically (tests).
  void push_back(JsonValue v);
  void set(std::string key, JsonValue v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Escapes a string for embedding in a JSON document (quotes not added).
std::string json_escape_string(std::string_view raw);

}  // namespace orp
