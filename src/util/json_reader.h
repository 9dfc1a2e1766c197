// Strict JSON reader — the parsing counterpart of util::JsonWriter.
//
// Parses a complete JSON document into a JsonValue tree and errors (with a
// line:column position) on anything the grammar forbids: trailing garbage
// after the top-level value, duplicate object keys, bad escapes, control
// characters inside strings, non-finite numbers.  Strictness is the point —
// scenario files are configuration, and a silently-ignored typo is a
// mis-run experiment (the scenario layer additionally rejects unknown keys
// on top of this, see sim/scenario.h).
//
//   util::Result<util::JsonValue> doc = util::ParseJson(text);
//   if (!doc) return doc.status();
//   const util::JsonValue* jobs = doc->Find("jobs");
//
// Object members keep insertion order (like JsonWriter), so a
// parse -> serialize round trip preserves the document byte for byte when
// the writer emits the same fields.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

namespace svc::util {

// 2^53 - 1: every integer up to this magnitude survives the trip through a
// double (and so through any JSON reader) unchanged.
inline constexpr int64_t kMaxSafeInteger = (int64_t{1} << 53) - 1;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray();
  static JsonValue MakeObject();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors; the caller must have checked the kind (asserted in
  // debug builds, undefined garbage otherwise — util/json_fields.h reads
  // whole structs with every check done).
  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  const std::string& AsString() const { return string_; }

  // The number as an integer, when it is one exactly: a number with no
  // fractional part within ±kMaxSafeInteger.  nullopt for anything else
  // (non-numbers included), so no caller rounds, truncates, or overflows
  // a float-to-int cast.
  std::optional<int64_t> AsInteger() const;

  // Array elements (empty unless is_array()).
  const std::vector<JsonValue>& items() const { return items_; }
  std::vector<JsonValue>& items() { return items_; }

  // Object members in document order (empty unless is_object()).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  std::vector<std::pair<std::string, JsonValue>>& members() {
    return members_;
  }

  // Object member lookup; nullptr when absent (or not an object).
  const JsonValue* Find(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Parses `text` as exactly one JSON document.  Errors carry a
// "line L, column C" position and a short description.
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace svc::util
