#include "exp/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pnet::exp {

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  // Integral values inside the exactly-representable range print as
  // integers: "3" not "3.0", matching how counts read in a report.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  // Shortest precision that round-trips. %.*g never needs more than 17
  // significant digits for a double.
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
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
  out += '"';
  return out;
}

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value completes a "key": — no comma, the key placed one
  }
  if (!has_elements_.empty()) {
    if (has_elements_.back()) out_ += ',';
    has_elements_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  has_elements_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  has_elements_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  has_elements_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  has_elements_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma();
  out_ += json_string(name);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  out_ += json_double(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  out_ += json_string(v);
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, const ParseLimits& limits)
      : text_(text), limits_(limits) {}

  bool parse(JsonValue& out, std::string& error) {
    error_ = &error;
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after JSON document");
    }
    return true;
  }

 private:
  bool fail(const std::string& what) {
    *error_ = "byte " + std::to_string(pos_) + ": " + what;
    return false;
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected, const char* what) {
    if (at_end() || peek() != expected) return fail(what);
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > limits_.max_depth) return fail("nesting too deep");
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.text);
      case 't': return parse_literal("true", [&] {
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
      });
      case 'f': return parse_literal("false", [&] {
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
      });
      case 'n': return parse_literal("null", [&] {
        out.kind = JsonValue::Kind::kNull;
      });
      default: return parse_number(out);
    }
  }

  template <class Fn>
  bool parse_literal(std::string_view word, Fn apply) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    apply();
    return true;
  }

  bool parse_object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      if (out.find(key) != nullptr) {
        return fail("duplicate object key '" + key + "'");
      }
      skip_ws();
      if (!consume(':', "expected ':' after object key")) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.items.push_back(std::move(value));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening '"'
    out.clear();
    while (true) {
      if (at_end()) return fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("unescaped control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (at_end()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t code = 0;
          if (!parse_hex4(code)) return false;
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("unpaired high surrogate");
            }
            pos_ += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail("unpaired low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default: return fail("invalid escape character");
      }
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        --pos_;
        return fail("invalid hex digit in \\u escape");
      }
    }
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    // Grammar check before strtod: JSON forbids "+1", ".5", "01", "1.",
    // and hex — strtod accepts several of those, so validate shape first.
    const std::size_t int_start = pos_;
    while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    if (pos_ == int_start) return fail("invalid number");
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      return fail("leading zero in number");
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      const std::size_t frac_start = pos_;
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
      if (pos_ == frac_start) return fail("missing digits after '.'");
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      const std::size_t exp_start = pos_;
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
      if (pos_ == exp_start) return fail("missing digits in exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) {
      return fail("number out of range (non-finite)");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number = value;
    out.text = token;
    return true;
  }

  std::string_view text_;
  const ParseLimits& limits_;
  std::size_t pos_ = 0;
  std::string* error_ = nullptr;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out, std::string& error,
                const ParseLimits& limits) {
  if (text.size() > limits.max_bytes) {
    error = "document of " + std::to_string(text.size()) +
            " bytes exceeds the " + std::to_string(limits.max_bytes) +
            "-byte limit";
    return false;
  }
  out = JsonValue{};
  Parser parser(text, limits);
  return parser.parse(out, error);
}

}  // namespace pnet::exp
