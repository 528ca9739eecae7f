#include "polaris/scenario/json.hpp"

#include <charconv>
#include <cstdlib>

#include "polaris/support/check.hpp"
#include "polaris/support/json.hpp"

namespace polaris::scenario {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    POLARIS_CHECK_MSG(pos_ == text_.size(),
                      "trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    POLARIS_CHECK_MSG(false, std::string("JSON parse error at byte ") +
                                 std::to_string(pos_) + ": " + what);
    std::abort();  // unreachable (CHECK throws)
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return Json::string(string_body());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json{};
      default:
        return number();
    }
  }

  Json object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = string_body();
      skip_ws();
      expect(':');
      obj.set(std::move(key), value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (specs are ASCII in practice;
          // surrogate pairs are out of scope and rejected).
          if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape");
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  /// Consumes a run of decimal digits; false if there was none.
  bool digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > from;
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
  /// The grammar is checked before converting, so hex, inf/nan, a leading
  /// '+' or '.', and a bare trailing '.' are all rejected; a leading zero
  /// ends the number, leaving "01"'s "1" as trailing garbage.  A value
  /// beyond a double's range (1e999, or 1e-400 underflowing to zero) is
  /// rejected rather than turned into inf or 0.
  Json number() {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else if (!digits()) {
      fail("expected a value");
    }
    if (at('.')) {
      ++pos_;
      if (!digits()) fail("expected a digit after '.'");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!digits()) fail("expected an exponent digit");
    }
    double v = 0.0;
    const std::errc ec =
        std::from_chars(text_.data() + start, text_.data() + pos_, v).ec;
    if (ec != std::errc{}) {
      pos_ = start;
      fail("number out of range");
    }
    return Json::number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  support::append_json_escaped(out, s);
  out.push_back('"');
}

void dump_value(const Json& v, std::string& out);

void dump_value(const Json& v, std::string& out) {
  switch (v.type()) {
    case Json::Type::kNull:
      out += "null";
      break;
    case Json::Type::kBool:
      out += v.boolean() ? "true" : "false";
      break;
    case Json::Type::kNumber:
      support::append_json_number(out, v.num());
      break;
    case Json::Type::kString:
      dump_string(v.str(), out);
      break;
    case Json::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& e : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(e, out);
      }
      out.push_back(']');
      break;
    }
    case Json::Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, val] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(key, out);
        out.push_back(':');
        dump_value(val, out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).document(); }

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(v);
  return j;
}

Json Json::boolean(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

void Json::set(std::string key, Json value) {
  POLARIS_CHECK_MSG(type_ == Type::kObject, "Json::set on a non-object");
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
}

void Json::push(Json value) {
  POLARIS_CHECK_MSG(type_ == Type::kArray, "Json::push on a non-array");
  arr_.push_back(std::move(value));
}

double Json::num() const {
  POLARIS_CHECK_MSG(type_ == Type::kNumber, "expected a JSON number");
  return num_;
}

const std::string& Json::str() const {
  POLARIS_CHECK_MSG(type_ == Type::kString, "expected a JSON string");
  return str_;
}

bool Json::boolean() const {
  POLARIS_CHECK_MSG(type_ == Type::kBool, "expected a JSON bool");
  return bool_;
}

const std::vector<Json>& Json::items() const {
  POLARIS_CHECK_MSG(type_ == Type::kArray, "expected a JSON array");
  return arr_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  POLARIS_CHECK_MSG(type_ == Type::kObject, "expected a JSON object");
  return obj_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  POLARIS_CHECK_MSG(v != nullptr, "missing JSON key: " + std::string(key));
  return *v;
}

double Json::num_or(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_number()) ? v->num_ : fallback;
}

std::string Json::str_or(std::string_view key, std::string_view fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_string()) ? v->str_ : std::string(fallback);
}

bool Json::bool_or(std::string_view key, bool fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_ : fallback;
}

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

}  // namespace polaris::scenario
