#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace orp {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::runtime_error("json: " + what + " at offset " + std::to_string(pos));
}

/// Arrays and objects nest at most this deep: the parser recurses once per
/// level, so a hostile document must not run it off the stack.
constexpr std::size_t kMaxDepth = 512;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t depth = 0;  ///< arrays and objects open around pos

  bool eof() const noexcept { return pos >= text.size(); }
  char peek() const noexcept { return text[pos]; }

  void skip_ws() noexcept {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r')) {
      ++pos;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) fail(pos, std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume_literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    if (eof()) fail(pos, "unexpected end of input");
    switch (peek()) {
      case '{':
      case '[': {
        if (depth == kMaxDepth) fail(pos, "nesting deeper than 512");
        ++depth;
        JsonValue nested = peek() == '{' ? parse_object() : parse_array();
        --depth;
        return nested;
      }
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        fail(pos, "bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        fail(pos, "bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail(pos, "bad literal");
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (!eof() && peek() != '"') {
      char c = peek();
      if (c == '\\') {
        ++pos;
        if (eof()) fail(pos, "unterminated escape");
        switch (peek()) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            // Decode \uXXXX; non-ASCII code points are passed through as
            // UTF-8 for the BMP (no surrogate-pair recombination — the
            // bench reports never emit them).
            if (pos + 4 >= text.size()) fail(pos, "truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = text[pos + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail(pos, "bad \\u escape");
            }
            pos += 4;
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail(pos, "unknown escape");
        }
        ++pos;
      } else {
        out += c;
        ++pos;
      }
    }
    expect('"');
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos;
    bool digits = false;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) || peek() == '.' ||
                      peek() == 'e' || peek() == 'E' || peek() == '-' || peek() == '+')) {
      if (std::isdigit(static_cast<unsigned char>(peek()))) digits = true;
      ++pos;
    }
    if (!digits) fail(start, "expected a value");
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data() + start, text.data() + pos, value);
    if (ec != std::errc() || ptr != text.data() + pos) fail(start, "bad number");
    return JsonValue::make_number(value);
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue out = JsonValue::make_array();
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos;
      return out;
    }
    for (;;) {
      out.push_back(parse_value());
      skip_ws();
      if (eof()) fail(pos, "unterminated array");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect(']');
      return out;
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue out = JsonValue::make_object();
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.set(std::move(key), parse_value());
      skip_ws();
      if (eof()) fail(pos, "unterminated object");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect('}');
      return out;
    }
  }
};

}  // namespace

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::make_object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue JsonValue::parse(std::string_view text) {
  Parser p{text};
  JsonValue value = p.parse_value();
  p.skip_ws();
  if (!p.eof()) fail(p.pos, "trailing content");
  return value;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw std::runtime_error("json: not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) throw std::runtime_error("json: not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  if (kind_ != Kind::kObject) throw std::runtime_error("json: not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v) throw std::runtime_error("json: missing key \"" + std::string(key) + "\"");
  return *v;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ != Kind::kArray) throw std::runtime_error("json: push_back on non-array");
  items_.push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  if (kind_ != Kind::kObject) throw std::runtime_error("json: set on non-object");
  for (auto& [name, value] : members_) {
    if (name == key) {
      value = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

std::string json_escape_string(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace orp
