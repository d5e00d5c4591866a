#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"

namespace desmine::obs {

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows "key": — no comma
  }
  if (!container_has_items_.empty()) {
    if (container_has_items_.back()) out_ += ',';
    container_has_items_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  container_has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  DESMINE_ENSURES(!container_has_items_.empty(), "unbalanced end_object");
  container_has_items_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  container_has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  DESMINE_ENSURES(!container_has_items_.empty(), "unbalanced end_array");
  container_has_items_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  out_ += quote(k);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  out_ += quote(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();  // JSON has no inf/nan
  comma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

std::string JsonWriter::quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Append code point `cp` (at most U+10FFFF) to `out` as UTF-8.
void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// The one JSON lexer: strict RFC 8259 strings, literals and numbers,
/// behind a tree entry point (parse_document) and a flat one
/// (parse_flat_document). Every error throws RuntimeError naming the byte
/// offset.
class JsonParser {
 public:
  /// Deeper nesting is a parse error rather than a stack overflow.
  static constexpr std::size_t kMaxDepth = 512;

  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    finish();
    return v;
  }

  void parse_flat_document(std::map<std::string, std::string>& out) {
    skip_ws();
    parse_members([&](std::string key) {
      std::string value =
          peek() == '"' ? parse_string() : std::string(scalar_token());
      if (!out.emplace(std::move(key), std::move(value)).second) {
        fail("duplicate key");
      }
    });
    finish();
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw RuntimeError("json parse error at offset " + std::to_string(pos_) +
                       ": " + what);
  }

  void finish() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// Walk a comma-separated list from `open` to `close`, calling
  /// `on_item()` with the cursor on each item; it must consume the item.
  template <typename OnItem>
  void parse_list(char open, char close, OnItem&& on_item) {
    expect(open);
    skip_ws();
    if (peek() == close) {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      on_item();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(close);
      return;
    }
  }

  /// Walk one object, calling `on_member(key)` with the cursor on each
  /// member's value; it must consume that value.
  template <typename OnMember>
  void parse_members(OnMember&& on_member) {
    parse_list('{', '}', [&] {
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      on_member(std::move(key));
    });
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{':
      case '[':
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      case '"':
        v.type = JsonValue::Type::kString;
        v.string = parse_string();
        return v;
      default: break;
    }
    const std::string_view token = scalar_token();
    if (token == "true" || token == "false") {
      v.type = JsonValue::Type::kBool;
      v.boolean = token == "true";
    } else if (token != "null") {
      v.type = JsonValue::Type::kNumber;
      v.number = std::strtod(std::string(token).c_str(), nullptr);
    }
    return v;
  }

  JsonValue parse_object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    parse_members([&](std::string key) {
      v.object.emplace_back(std::move(key), parse_value());
    });
    return v;
  }

  JsonValue parse_array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    parse_list('[', ']', [&] { v.array.push_back(parse_value()); });
    return v;
  }

  /// Lex `true`, `false`, `null` or a number and return its text.
  std::string_view scalar_token() {
    const std::size_t start = pos_;
    switch (peek()) {
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        break;
      default: lex_number();
    }
    return text_.substr(start, pos_ - start);
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  void lex_number() {
    const auto at = [&](char c) {
      return pos_ < text_.size() && text_[pos_] == c;
    };
    const auto digits = [&] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > from;
    };
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else if (!digits()) {
      fail("invalid value");
    }
    if (at('.')) {
      ++pos_;
      if (!digits()) fail("malformed number");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!digits()) fail("malformed number");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    return cp;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote, escape or control character.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_.substr(run, pos_ - run));
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c != '\\') fail("unescaped control character in string");
      if (++pos_ >= text_.size()) fail("unterminated escape");
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
          // UTF-16 escapes: a surrogate pair is one code point above the
          // BMP; a surrogate on its own encodes nothing.
          unsigned cp = parse_hex4();
          if (cp >= 0xDC00 && cp <= 0xDFFF) fail("lone low surrogate");
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (!consume_literal("\\u")) fail("lone high surrogate");
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("lone high surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

bool parse_flat_json(std::string_view text,
                     std::map<std::string, std::string>& out) {
  out.clear();
  try {
    JsonParser(text).parse_flat_document(out);
    return true;
  } catch (const RuntimeError&) {
    out.clear();
    return false;
  }
}

}  // namespace desmine::obs
