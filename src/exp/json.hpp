// JSON for the experiment stack: a deterministic streaming writer for
// reports and canonical specs, and a strict bounded parser for specs read
// back (pnet-serve requests, exp::decode_spec). The repository takes no
// external JSON dependency.
//
// The writer has the one property the determinism contract needs:
// identical inputs produce byte-identical text. Keys are emitted in call
// order (callers iterate ordered containers), doubles are printed with the
// shortest representation that round-trips (strtod(print(v)) == v), and
// there is no locale, pointer, or time dependence anywhere.
//
// The parser is built for hostile input rather than for generality: the
// service accepts newline-delimited spec JSON from arbitrary clients, so
// every parse is bounded (payload bytes, nesting depth) and every
// deviation from the JSON grammar is a structured error, never a crash or
// a silent coercion:
//   * numbers must be finite — "NaN"/"Infinity" tokens are not JSON and
//     1e999-style overflows are rejected rather than becoming inf;
//   * duplicate object keys are rejected (last-wins would let a client
//     smuggle two values past a validator that saw only one);
//   * trailing garbage after the document is rejected (a framing bug on
//     the client would otherwise be half-accepted);
//   * \uXXXX escapes are decoded to UTF-8, with unpaired surrogates
//     rejected.
// The parser allocates proportionally to the input (which is capped), so a
// request can never balloon server memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pnet::exp {

/// Shortest decimal representation of `v` that parses back to exactly the
/// same double. NaN/inf (not valid JSON) are emitted as null.
std::string json_double(double v);

/// `s` as a JSON string literal, with the mandatory escapes applied.
std::string json_string(std::string_view s);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Starts a "key": inside an object; follow with a value or a begin_*.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }

  /// key(name) + value(v) in one call.
  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// The finished document. Asserts balance in debug builds only.
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void comma();

  std::string out_;
  /// One bool per open container: true once the first element was written.
  std::vector<bool> has_elements_;
  bool pending_key_ = false;
};

struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// kString: the decoded string; kNumber: the literal as written, for
  /// integers wider than a double holds exactly.
  std::string text;
  std::vector<JsonValue> items;                           // kArray
  std::vector<std::pair<std::string, JsonValue>> members; // kObject, in
                                                          // document order

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// Member lookup on an object; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

struct ParseLimits {
  /// Documents longer than this are rejected before parsing starts.
  std::size_t max_bytes = 1u << 20;
  /// Maximum container nesting. 32 is far above any spec shape and far
  /// below anything that could stress the recursive descent.
  int max_depth = 32;
};

/// Parses exactly one JSON document spanning all of `text` (trailing
/// whitespace allowed, trailing tokens not). On failure returns false and
/// fills `error` with a byte offset + description; `out` is unspecified.
[[nodiscard]] bool parse_json(std::string_view text, JsonValue& out,
                              std::string& error,
                              const ParseLimits& limits = {});

}  // namespace pnet::exp
