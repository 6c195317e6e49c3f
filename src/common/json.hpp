// Minimal JSON value: a writer plus a strict RFC 8259 parser, enough
// to emit experiment results and read them back (post-mortem bundles,
// JSONL telemetry dumps) without a third-party dependency. Values are
// built bottom-up; serialization escapes strings per RFC 8259 and
// renders non-finite doubles as null.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace lagover {

/// A JSON value (object keys stay in insertion order).
class Json {
 public:
  Json() : kind_(Kind::kNull) {}

  static Json null();
  static Json boolean(bool value);
  static Json number(double value);
  static Json integer(std::int64_t value);
  static Json string(std::string value);
  static Json array();
  static Json object();

  /// Parses one JSON document (trailing whitespace allowed, trailing
  /// garbage rejected). Returns false on malformed input, leaving
  /// `out` null and — when given — `error` describing the failure.
  static bool parse(const std::string& text, Json& out,
                    std::string* error = nullptr);

  /// Array append (precondition: this is an array).
  Json& push_back(Json value);

  /// Object insert/overwrite (precondition: this is an object).
  Json& set(const std::string& key, Json value);

  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept {
    return kind_ == Kind::kNumber || kind_ == Kind::kInteger;
  }
  /// An integer token within int64 range ("3", not "3.0" or "1e3").
  bool is_integer() const noexcept { return kind_ == Kind::kInteger; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  // Lenient readers: a kind mismatch yields the fallback rather than a
  // crash, so inspector queries degrade gracefully on foreign input.
  bool as_bool(bool fallback = false) const noexcept;
  double as_number(double fallback = 0.0) const noexcept;
  /// A non-integer number truncates toward zero; one outside
  /// [-2^63, 2^63) yields the fallback.
  std::int64_t as_int(std::int64_t fallback = 0) const noexcept;
  const std::string& as_string() const noexcept;

  /// Element/member count (0 for scalars).
  std::size_t size() const noexcept;

  /// Array element (precondition: array and in range).
  const Json& at(std::size_t index) const;

  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const noexcept;

  /// Object members in insertion order (empty for non-objects).
  const std::vector<std::pair<std::string, Json>>& members() const noexcept {
    return members_;
  }

  /// Array elements (empty for non-arrays).
  const std::vector<Json>& elements() const noexcept { return elements_; }

  /// Compact serialization.
  std::string dump() const;

  /// Pretty serialization with 2-space indentation.
  std::string dump_pretty() const;

 private:
  enum class Kind { kNull, kBool, kNumber, kInteger, kString, kArray, kObject };

  void write(std::string& out, int indent, bool pretty) const;

  Kind kind_;
  bool bool_value_ = false;
  double number_value_ = 0.0;
  std::int64_t integer_value_ = 0;
  std::string string_value_;
  std::vector<Json> elements_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Escapes a string for embedding in JSON (adds surrounding quotes).
std::string json_escape(const std::string& text);

}  // namespace lagover
