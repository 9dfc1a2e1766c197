#include "util/json_reader.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace svc::util {

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue value;
  value.kind_ = Kind::kBool;
  value.bool_ = v;
  return value;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue value;
  value.kind_ = Kind::kNumber;
  value.number_ = v;
  return value;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue value;
  value.kind_ = Kind::kString;
  value.string_ = std::move(v);
  return value;
}

JsonValue JsonValue::MakeArray() {
  JsonValue value;
  value.kind_ = Kind::kArray;
  return value;
}

JsonValue JsonValue::MakeObject() {
  JsonValue value;
  value.kind_ = Kind::kObject;
  return value;
}

std::optional<int64_t> JsonValue::AsInteger() const {
  if (kind_ != Kind::kNumber || number_ != std::trunc(number_) ||
      std::abs(number_) > static_cast<double>(kMaxSafeInteger)) {
    return std::nullopt;
  }
  return static_cast<int64_t>(number_);
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

// Recursive-descent parser over the whole document.  Depth is bounded so a
// hostile (or accidentally self-referencing) input cannot overflow the
// stack.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    if (!ParseValue(value, 0)) return std::move(error_);
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after the top-level value");
      return std::move(error_);
    }
    return value;
  }

 private:
  bool ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return !Fail("nesting deeper than 64 levels");
    if (pos_ >= text_.size()) return !Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': return ParseString(out);
      case 't': return ParseLiteral("true", JsonValue::MakeBool(true), out);
      case 'f': return ParseLiteral("false", JsonValue::MakeBool(false), out);
      case 'n': return ParseLiteral("null", JsonValue::MakeNull(), out);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return !Fail(std::string("unexpected character '") + c + "'");
    }
  }

  bool ParseObject(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out = JsonValue::MakeObject();
    SkipWhitespace();
    if (Peek('}')) {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (!Peek('"')) return !Fail("expected '\"' to start an object key");
      JsonValue key;
      if (!ParseString(key)) return false;
      if (out.Find(key.AsString()) != nullptr) {
        return !Fail("duplicate object key \"" + key.AsString() + "\"");
      }
      SkipWhitespace();
      if (!Peek(':')) return !Fail("expected ':' after object key");
      ++pos_;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(value, depth + 1)) return false;
      out.members().emplace_back(key.AsString(), std::move(value));
      SkipWhitespace();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      if (Peek('}')) {
        ++pos_;
        return true;
      }
      return !Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue& out, int depth) {
    ++pos_;  // '['
    out = JsonValue::MakeArray();
    SkipWhitespace();
    if (Peek(']')) {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(value, depth + 1)) return false;
      out.items().push_back(std::move(value));
      SkipWhitespace();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      if (Peek(']')) {
        ++pos_;
        return true;
      }
      return !Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(JsonValue& out) {
    ++pos_;  // '"'
    std::string value;
    while (true) {
      if (pos_ >= text_.size()) return !Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        out = JsonValue::MakeString(std::move(value));
        return true;
      }
      if (c < 0x20) return !Fail("raw control character in string");
      if (c != '\\') {
        value.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // '\\'
      if (pos_ >= text_.size()) return !Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': value.push_back('"'); break;
        case '\\': value.push_back('\\'); break;
        case '/': value.push_back('/'); break;
        case 'b': value.push_back('\b'); break;
        case 'f': value.push_back('\f'); break;
        case 'n': value.push_back('\n'); break;
        case 'r': value.push_back('\r'); break;
        case 't': value.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!ParseHex4(code)) return false;
          AppendUtf8(code, value);
          break;
        }
        default:
          return !Fail(std::string("invalid escape '\\") + esc + "'");
      }
    }
  }

  bool ParseHex4(unsigned& code) {
    code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) return !Fail("truncated \\u escape");
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else return !Fail("non-hex digit in \\u escape");
    }
    return true;
  }

  // Encodes a BMP code point as UTF-8 (surrogate pairs are passed through as
  // two separate 3-byte sequences — configs are ASCII in practice).
  static void AppendUtf8(unsigned code, std::string& out) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool ParseNumber(JsonValue& out) {
    const size_t start = pos_;
    if (Peek('-')) ++pos_;
    // Integer part: one zero, or a nonzero digit followed by digits.
    if (Peek('0')) {
      ++pos_;
    } else if (PeekDigit()) {
      while (PeekDigit()) ++pos_;
    } else {
      return !Fail("malformed number");
    }
    if (Peek('.')) {
      ++pos_;
      if (!PeekDigit()) return !Fail("digit required after decimal point");
      while (PeekDigit()) ++pos_;
    }
    if (Peek('e') || Peek('E')) {
      ++pos_;
      if (Peek('+') || Peek('-')) ++pos_;
      if (!PeekDigit()) return !Fail("digit required in exponent");
      while (PeekDigit()) ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) return !Fail("number out of range");
    out = JsonValue::MakeNumber(value);
    return true;
  }

  bool ParseLiteral(const char* literal, JsonValue value, JsonValue& out) {
    for (const char* p = literal; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return !Fail(std::string("expected '") + literal + "'");
      }
    }
    out = std::move(value);
    return true;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool PeekDigit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  // Records the first error with its line:column; always returns true so
  // call sites read `return !Fail(...)`.
  bool Fail(const std::string& what) {
    if (error_.ok()) {
      size_t line = 1, column = 1;
      for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
        if (text_[i] == '\n') {
          ++line;
          column = 1;
        } else {
          ++column;
        }
      }
      error_ = Status(ErrorCode::kInvalidArgument,
                      "json: " + what + " at line " + std::to_string(line) +
                          ", column " + std::to_string(column));
    }
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  Status error_;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace svc::util
