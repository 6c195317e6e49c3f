#include "common/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace lagover {

std::string json_escape(const std::string& text) {
  std::string out = "\"";
  for (unsigned char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (ch < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += static_cast<char>(ch);
        }
    }
  }
  out += '"';
  return out;
}

Json Json::null() { return Json(); }

Json Json::boolean(bool value) {
  Json json;
  json.kind_ = Kind::kBool;
  json.bool_value_ = value;
  return json;
}

Json Json::number(double value) {
  Json json;
  json.kind_ = Kind::kNumber;
  json.number_value_ = value;
  return json;
}

Json Json::integer(std::int64_t value) {
  Json json;
  json.kind_ = Kind::kInteger;
  json.integer_value_ = value;
  return json;
}

Json Json::string(std::string value) {
  Json json;
  json.kind_ = Kind::kString;
  json.string_value_ = std::move(value);
  return json;
}

Json Json::array() {
  Json json;
  json.kind_ = Kind::kArray;
  return json;
}

Json Json::object() {
  Json json;
  json.kind_ = Kind::kObject;
  return json;
}

Json& Json::push_back(Json value) {
  LAGOVER_EXPECTS(kind_ == Kind::kArray);
  elements_.push_back(std::move(value));
  return *this;
}

bool Json::as_bool(bool fallback) const noexcept {
  return kind_ == Kind::kBool ? bool_value_ : fallback;
}

double Json::as_number(double fallback) const noexcept {
  if (kind_ == Kind::kNumber) return number_value_;
  if (kind_ == Kind::kInteger) return static_cast<double>(integer_value_);
  return fallback;
}

std::int64_t Json::as_int(std::int64_t fallback) const noexcept {
  if (kind_ == Kind::kInteger) return integer_value_;
  // The cast is defined only inside [-2^63, 2^63); NaN fails both tests.
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (kind_ == Kind::kNumber && number_value_ >= -kLimit &&
      number_value_ < kLimit)
    return static_cast<std::int64_t>(number_value_);
  return fallback;
}

const std::string& Json::as_string() const noexcept {
  static const std::string kEmpty;
  return kind_ == Kind::kString ? string_value_ : kEmpty;
}

std::size_t Json::size() const noexcept {
  if (kind_ == Kind::kArray) return elements_.size();
  if (kind_ == Kind::kObject) return members_.size();
  return 0;
}

const Json& Json::at(std::size_t index) const {
  LAGOVER_EXPECTS(kind_ == Kind::kArray && index < elements_.size());
  return elements_[index];
}

const Json* Json::find(const std::string& key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser over a [begin, end) byte range. Strict
/// RFC 8259 except that it accepts any \uXXXX escape verbatim as a
/// UTF-8 encoded code point without surrogate-pair pairing (telemetry
/// strings are ASCII; this keeps the decoder small).
class Parser {
 public:
  Parser(const char* begin, const char* end) : cursor_(begin), end_(end) {}

  bool parse_document(Json& out, std::string* error) {
    skip_whitespace();
    if (!parse_value(out, 0)) {
      fail(error);
      return false;
    }
    skip_whitespace();
    if (cursor_ != end_) {
      message_ = "trailing characters after document";
      fail(error);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 256;

  void skip_whitespace() {
    while (cursor_ != end_ &&
           (*cursor_ == ' ' || *cursor_ == '\t' || *cursor_ == '\n' ||
            *cursor_ == '\r'))
      ++cursor_;
  }

  bool consume_literal(const char* literal) {
    const char* probe = cursor_;
    for (; *literal != '\0'; ++literal, ++probe) {
      if (probe == end_ || *probe != *literal) return false;
    }
    cursor_ = probe;
    return true;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) {
      message_ = "nesting too deep";
      return false;
    }
    if (cursor_ == end_) {
      message_ = "unexpected end of input";
      return false;
    }
    switch (*cursor_) {
      case 'n':
        if (!consume_literal("null")) break;
        out = Json::null();
        return true;
      case 't':
        if (!consume_literal("true")) break;
        out = Json::boolean(true);
        return true;
      case 'f':
        if (!consume_literal("false")) break;
        out = Json::boolean(false);
        return true;
      case '"':
        return parse_string_value(out);
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        return parse_number(out);
    }
    message_ = "invalid literal";
    return false;
  }

  bool parse_number(Json& out) {
    const char* start = cursor_;
    if (cursor_ != end_ && *cursor_ == '-') ++cursor_;
    bool digits = false;
    while (cursor_ != end_ && *cursor_ >= '0' && *cursor_ <= '9') {
      ++cursor_;
      digits = true;
    }
    bool integral = true;
    if (cursor_ != end_ && *cursor_ == '.') {
      integral = false;
      ++cursor_;
      bool fraction = false;
      while (cursor_ != end_ && *cursor_ >= '0' && *cursor_ <= '9') {
        ++cursor_;
        fraction = true;
      }
      if (!fraction) digits = false;
    }
    if (cursor_ != end_ && (*cursor_ == 'e' || *cursor_ == 'E')) {
      integral = false;
      ++cursor_;
      if (cursor_ != end_ && (*cursor_ == '+' || *cursor_ == '-')) ++cursor_;
      bool exponent = false;
      while (cursor_ != end_ && *cursor_ >= '0' && *cursor_ <= '9') {
        ++cursor_;
        exponent = true;
      }
      if (!exponent) digits = false;
    }
    if (!digits) {
      message_ = "invalid number";
      return false;
    }
    const std::string text(start, cursor_);
    if (integral) {
      errno = 0;
      char* parse_end = nullptr;
      const long long value = std::strtoll(text.c_str(), &parse_end, 10);
      if (errno == 0 && parse_end != nullptr && *parse_end == '\0') {
        out = Json::integer(value);
        return true;
      }
      // Out-of-range integers fall through to double precision.
    }
    out = Json::number(std::strtod(text.c_str(), nullptr));
    return true;
  }

  bool parse_string_value(Json& out) {
    std::string value;
    if (!parse_string(value)) return false;
    out = Json::string(std::move(value));
    return true;
  }

  bool parse_string(std::string& out) {
    ++cursor_;  // opening quote
    while (cursor_ != end_) {
      const unsigned char ch = static_cast<unsigned char>(*cursor_);
      if (ch == '"') {
        ++cursor_;
        return true;
      }
      if (ch < 0x20) {
        message_ = "unescaped control character in string";
        return false;
      }
      if (ch != '\\') {
        out += static_cast<char>(ch);
        ++cursor_;
        continue;
      }
      ++cursor_;
      if (cursor_ == end_) break;
      switch (*cursor_) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            ++cursor_;
            if (cursor_ == end_) {
              message_ = "truncated \\u escape";
              return false;
            }
            const char hex = *cursor_;
            code <<= 4;
            if (hex >= '0' && hex <= '9') {
              code |= static_cast<unsigned>(hex - '0');
            } else if (hex >= 'a' && hex <= 'f') {
              code |= static_cast<unsigned>(hex - 'a' + 10);
            } else if (hex >= 'A' && hex <= 'F') {
              code |= static_cast<unsigned>(hex - 'A' + 10);
            } else {
              message_ = "invalid \\u escape";
              return false;
            }
          }
          append_utf8(out, code);
          break;
        }
        default:
          message_ = "invalid escape";
          return false;
      }
      ++cursor_;
    }
    message_ = "unterminated string";
    return false;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  bool parse_array(Json& out, int depth) {
    ++cursor_;  // '['
    out = Json::array();
    skip_whitespace();
    if (cursor_ != end_ && *cursor_ == ']') {
      ++cursor_;
      return true;
    }
    while (true) {
      skip_whitespace();
      Json element;
      if (!parse_value(element, depth + 1)) return false;
      out.push_back(std::move(element));
      skip_whitespace();
      if (cursor_ == end_) break;
      if (*cursor_ == ',') {
        ++cursor_;
        continue;
      }
      if (*cursor_ == ']') {
        ++cursor_;
        return true;
      }
      message_ = "expected ',' or ']' in array";
      return false;
    }
    message_ = "unterminated array";
    return false;
  }

  bool parse_object(Json& out, int depth) {
    ++cursor_;  // '{'
    out = Json::object();
    skip_whitespace();
    if (cursor_ != end_ && *cursor_ == '}') {
      ++cursor_;
      return true;
    }
    while (true) {
      skip_whitespace();
      if (cursor_ == end_ || *cursor_ != '"') {
        message_ = "expected string key in object";
        return false;
      }
      std::string key;
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (cursor_ == end_ || *cursor_ != ':') {
        message_ = "expected ':' in object";
        return false;
      }
      ++cursor_;
      skip_whitespace();
      Json value;
      if (!parse_value(value, depth + 1)) return false;
      out.set(key, std::move(value));
      skip_whitespace();
      if (cursor_ == end_) break;
      if (*cursor_ == ',') {
        ++cursor_;
        continue;
      }
      if (*cursor_ == '}') {
        ++cursor_;
        return true;
      }
      message_ = "expected ',' or '}' in object";
      return false;
    }
    message_ = "unterminated object";
    return false;
  }

  void fail(std::string* error) const {
    if (error != nullptr)
      *error = message_.empty() ? "malformed JSON" : message_;
  }

  const char* cursor_;
  const char* end_;
  std::string message_;
};

}  // namespace

bool Json::parse(const std::string& text, Json& out, std::string* error) {
  Parser parser(text.data(), text.data() + text.size());
  Json parsed;
  if (!parser.parse_document(parsed, error)) {
    out = Json::null();
    return false;
  }
  out = std::move(parsed);
  return true;
}

Json& Json::set(const std::string& key, Json value) {
  LAGOVER_EXPECTS(kind_ == Kind::kObject);
  for (auto& [existing, member] : members_) {
    if (existing == key) {
      member = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

void Json::write(std::string& out, int indent, bool pretty) const {
  const std::string pad(pretty ? static_cast<std::size_t>(indent) * 2 : 0,
                        ' ');
  const std::string inner_pad(
      pretty ? (static_cast<std::size_t>(indent) + 1) * 2 : 0, ' ');
  const char* newline = pretty ? "\n" : "";
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_value_ ? "true" : "false";
      break;
    case Kind::kInteger: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(integer_value_));
      out += buf;
      break;
    }
    case Kind::kNumber: {
      if (!std::isfinite(number_value_)) {
        out += "null";
        break;
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.10g", number_value_);
      out += buf;
      break;
    }
    case Kind::kString:
      out += json_escape(string_value_);
      break;
    case Kind::kArray: {
      if (elements_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += newline;
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        out += inner_pad;
        elements_[i].write(out, indent + 1, pretty);
        if (i + 1 < elements_.size()) out += ',';
        out += newline;
      }
      out += pad;
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += newline;
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += inner_pad;
        out += json_escape(members_[i].first);
        out += pretty ? ": " : ":";
        members_[i].second.write(out, indent + 1, pretty);
        if (i + 1 < members_.size()) out += ',';
        out += newline;
      }
      out += pad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, false);
  return out;
}

std::string Json::dump_pretty() const {
  std::string out;
  write(out, 0, true);
  return out;
}

}  // namespace lagover
