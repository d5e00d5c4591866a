// Minimal JSON emitter + recursive-descent parser: every JSON byte the
// library and its tools read or write goes through this file.
//
// The emitter handles comma placement, string escaping, and non-finite
// number clamping; callers drive nesting with begin/end pairs (checked via
// DESMINE_ENSURES). One strict RFC 8259 lexer serves two readers:
// parse_json builds a tree (config files, bench calibration), and
// parse_flat_json reads one object of scalar members straight into a map
// (the serve protocol, the checkpoint and quarantine journals) without
// building a tree. Strings take the standard escapes; a \uXXXX escape is
// written out as UTF-8, and a surrogate pair as one 4-byte code point.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace desmine::obs {

/// A parsed JSON document node. Object members keep insertion order so
/// error messages and re-emission stay deterministic.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  /// First member named `key`, or null when absent / not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws util::RuntimeError with the byte offset of
/// the first offending character.
JsonValue parse_json(std::string_view text);

/// Read one flat JSON object, whose member values are strings, numbers,
/// true, false or null, into `out` (cleared first). String values are
/// unescaped; any other value keeps its literal text once the grammar has
/// accepted it ("ok":true gives "true", "session":12 gives "12"). Returns
/// false, never throws, and leaves `out` empty on malformed input: a nested
/// object or array, trailing text, an invalid literal or number, a bad
/// escape or lone surrogate, or a duplicate key.
bool parse_flat_json(std::string_view text,
                     std::map<std::string, std::string>& out);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; must be followed by a value or begin_*.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// The document built so far. Valid once every begin_* is closed.
  const std::string& str() const { return out_; }

  /// Escape `s` as a JSON string literal (including the quotes).
  static std::string quote(std::string_view s);

 private:
  void comma();

  std::string out_;
  std::vector<bool> container_has_items_;
  bool pending_key_ = false;
};

}  // namespace desmine::obs
