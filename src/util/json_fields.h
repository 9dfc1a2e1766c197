// Declarative JSON field tables: one declaration per field drives the
// strict reader, the canonical writer, and the range checker, so the three
// cannot drift apart.  A table lists a struct's keys in canonical order,
// each with its member and what the member may hold:
//
//   const util::Fields<Config>& ConfigFields() {
//     static const auto* fields = new util::Fields<Config>{
//         util::Number("racks", &Config::racks, util::Range::AtLeast(1)),
//         util::Text("mode", &Config::mode, {"batch", "poisson"}),
//         util::Object("inner", &Config::inner, InnerFields()),
//     };
//     return *fields;
//   }
//
// ReadFields rejects unknown keys, type mismatches, and integers the
// member cannot hold exactly (integral, fits the C++ type, within
// ±kMaxSafeInteger), naming the JSON path: "config.inner.racks: ...".
// Absent keys keep the member's value.  WriteFields emits every key in
// table order.  CheckFields applies the declared ranges and spellings, and
// holds 64-bit integers to ±kMaxSafeInteger, so whatever it accepts reads
// back from WriteFields unchanged.  Checks that relate two fields stay
// with the caller.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/json_reader.h"
#include "util/result.h"

namespace svc::util {

inline Status FieldError(const std::string& path, const std::string& what) {
  return Status(ErrorCode::kInvalidArgument, path + ": " + what);
}

// The values a numeric member may hold: an interval, closed or open at
// either end, that may also admit every negative value (the "< 0
// inherits" sentinel of override fields).
struct Range {
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;
  bool negative_inherits = false;

  static Range AtLeast(double lo) { return {lo, kInf}; }
  static Range Above(double lo) { return {lo, kInf, true}; }
  static Range Closed(double lo, double hi) { return {lo, hi}; }
  static Range Open(double lo, double hi) { return {lo, hi, true, true}; }
  static Range ClosedOpen(double lo, double hi) {
    return {lo, hi, false, true};
  }
  Range OrNegative() const { return {lo, hi, lo_open, hi_open, true}; }

  bool Contains(double v) const {
    if (negative_inherits && v < 0) return true;
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }

  // This range narrowed to the closed interval `bounds`.
  Range Within(const Range& bounds) const {
    Range range = *this;
    if (lo < bounds.lo) range = {bounds.lo, hi, false, hi_open};
    if (hi > bounds.hi) range = {range.lo, bounds.hi, range.lo_open, false};
    range.negative_inherits = negative_inherits;
    return range;
  }

  // ">= 1", "> 0", ">= 0 and finite", "in (0, 1)",
  // "in [0, 1) or < 0 to inherit", ...
  std::string Text() const {
    std::string text =
        hi == kInf    ? (lo_open ? "> " : ">= ") + Format(lo) +
                         (hi_open ? " and finite" : "")
        : lo == -kInf ? (hi_open ? "< " : "<= ") + Format(hi)
                      : std::string("in ") + (lo_open ? "(" : "[") +
                            Format(lo) + ", " + Format(hi) +
                            (hi_open ? ")" : "]");
    return negative_inherits ? text + " or < 0 to inherit" : text;
  }

  static std::string Format(double v) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", v);
    return buffer;
  }
};

// One key of a table for struct T, built by the factories below.
template <typename T>
struct Field {
  std::string key;
  std::function<Status(const JsonValue&, const std::string& path, T&)> read;
  std::function<void(const T&, JsonWriter&)> write;  // key and value
  std::function<Status(const T&, const std::string& path)> check;
};

template <typename T>
using Fields = std::vector<Field<T>>;

// Reads the JSON object `v` into *out.
template <typename T>
Status ReadFields(const Fields<T>& fields, const JsonValue& v,
                  const std::string& path, T* out) {
  if (!v.is_object()) return FieldError(path, "expected object");
  for (const auto& [key, value] : v.members()) {
    auto field = std::find_if(fields.begin(), fields.end(),
                              [&](const Field<T>& f) { return f.key == key; });
    if (field == fields.end()) {
      return FieldError(path + "." + key, "unknown key");
    }
    Status status = field->read(value, path + "." + key, *out);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

// Parses `text` as one JSON document and reads it into *out.
template <typename T>
Status ParseFields(const Fields<T>& fields, const std::string& text,
                   const std::string& path, T* out) {
  Result<JsonValue> doc = ParseJson(text);
  if (!doc) return doc.status();
  return ReadFields(fields, *doc, path, out);
}

// Writes `value` as one compact JSON object, every field in table order.
template <typename T>
void WriteFields(const Fields<T>& fields, const T& value, JsonWriter& w) {
  w.BeginObject();
  for (const Field<T>& field : fields) field.write(value, w);
  w.EndObject();
}

// The first member outside its declared range or spellings, in table order.
template <typename T>
Status CheckFields(const Fields<T>& fields, const T& value,
                   const std::string& path) {
  for (const Field<T>& field : fields) {
    Status status = field.check(value, path + "." + field.key);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

namespace field_detail {

// The integers an integer type M holds that also survive a double.
template <typename M>
Range IntegerRange() {
  return Range::Closed(
      static_cast<double>(
          std::max<int64_t>(std::numeric_limits<M>::min(), -kMaxSafeInteger)),
      static_cast<double>(
          std::min<uint64_t>(std::numeric_limits<M>::max(), kMaxSafeInteger)));
}

// A codec reads, writes, and checks one member value.

template <typename M>
struct NumberCodec {
  Range range;

  Status Read(const JsonValue& v, const std::string& path, M* out) const {
    if constexpr (std::is_floating_point_v<M>) {
      if (!v.is_number()) return FieldError(path, "expected number");
      *out = v.AsDouble();
    } else {
      const std::optional<int64_t> n = v.AsInteger();
      if (!n || !std::in_range<M>(*n)) {
        return FieldError(path,
                          "expected integer " + IntegerRange<M>().Text());
      }
      *out = static_cast<M>(*n);
    }
    return Status::Ok();
  }
  void Write(M value, JsonWriter& w) const { w.Value(value); }
  Status Check(M value, const std::string& path) const {
    Range allowed = range;
    if constexpr (std::numeric_limits<M>::digits > 53) {
      allowed = range.Within(IntegerRange<M>());
    }
    if (allowed.Contains(static_cast<double>(value))) return Status::Ok();
    return FieldError(path, "must be " + allowed.Text());
  }
};

struct FlagCodec {
  Status Read(const JsonValue& v, const std::string& path, bool* out) const {
    if (!v.is_bool()) return FieldError(path, "expected bool");
    *out = v.AsBool();
    return Status::Ok();
  }
  void Write(bool value, JsonWriter& w) const { w.Value(value); }
  Status Check(bool, const std::string&) const { return Status::Ok(); }
};

inline std::string SpellingsText(const std::vector<std::string>& spellings) {
  std::string text;
  for (const std::string& spelling : spellings) {
    text += (text.empty() ? "" : " | ") +
            (spelling.empty() ? std::string("\"\"") : spelling);
  }
  return text;
}

struct TextCodec {
  std::vector<std::string> spellings;  // empty: any string
  bool non_empty = false;

  Status Read(const JsonValue& v, const std::string& path,
              std::string* out) const {
    if (!v.is_string()) return FieldError(path, "expected string");
    *out = v.AsString();
    return Status::Ok();
  }
  void Write(const std::string& value, JsonWriter& w) const { w.Value(value); }
  Status Check(const std::string& value, const std::string& path) const {
    if (non_empty && value.empty()) {
      return FieldError(path, "must be non-empty");
    }
    if (spellings.empty() ||
        std::find(spellings.begin(), spellings.end(), value) !=
            spellings.end()) {
      return Status::Ok();
    }
    return FieldError(path, "must be " + SpellingsText(spellings));
  }
};

template <typename E>
struct TokenCodec {
  std::vector<std::pair<std::string, E>> tokens;

  Status Read(const JsonValue& v, const std::string& path, E* out) const {
    std::vector<std::string> spellings;
    for (const auto& [spelling, value] : tokens) {
      if (v.is_string() && v.AsString() == spelling) {
        *out = value;
        return Status::Ok();
      }
      spellings.push_back(spelling);
    }
    return FieldError(path, "expected " + SpellingsText(spellings));
  }
  void Write(E value, JsonWriter& w) const {
    for (const auto& [spelling, token] : tokens) {
      if (token == value) return w.Value(spelling);
    }
    w.Null();
  }
  Status Check(E, const std::string&) const { return Status::Ok(); }
};

template <typename S>
struct ObjectCodec {
  const Fields<S>* fields;

  Status Read(const JsonValue& v, const std::string& path, S* out) const {
    return ReadFields(*fields, v, path, out);
  }
  void Write(const S& value, JsonWriter& w) const {
    WriteFields(*fields, value, w);
  }
  Status Check(const S& value, const std::string& path) const {
    return CheckFields(*fields, value, path);
  }
};

// A JSON array of `Element` values; a read replaces the whole vector, each
// element starting from M{}.
template <typename M, typename Element>
struct ListCodec {
  Element element;
  bool non_empty = false;

  static std::string At(const std::string& path, size_t i) {
    return path + "[" + std::to_string(i) + "]";
  }
  Status Read(const JsonValue& v, const std::string& path,
              std::vector<M>* out) const {
    if (!v.is_array()) return FieldError(path, "expected array");
    std::vector<M> items(v.items().size());
    for (size_t i = 0; i < items.size(); ++i) {
      Status status = element.Read(v.items()[i], At(path, i), &items[i]);
      if (!status.ok()) return status;
    }
    *out = std::move(items);
    return Status::Ok();
  }
  void Write(const std::vector<M>& values, JsonWriter& w) const {
    w.BeginArray();
    for (const M& value : values) element.Write(value, w);
    w.EndArray();
  }
  Status Check(const std::vector<M>& values, const std::string& path) const {
    if (non_empty && values.empty()) {
      return FieldError(path, "must be non-empty");
    }
    for (size_t i = 0; i < values.size(); ++i) {
      Status status = element.Check(values[i], At(path, i));
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }
};

template <typename T, typename M, typename Codec>
Field<T> Make(const char* key, M T::*member, Codec codec) {
  return {key,
          [member, codec](const JsonValue& v, const std::string& path,
                          T& out) {
            return codec.Read(v, path, &(out.*member));
          },
          [key = std::string(key), member, codec](const T& in, JsonWriter& w) {
            w.Key(key);
            codec.Write(in.*member, w);
          },
          [member, codec](const T& in, const std::string& path) {
            return codec.Check(in.*member, path);
          }};
}

}  // namespace field_detail

// An int, int64_t, uint64_t, or double member.
template <typename T, typename M>
Field<T> Number(const char* key, M T::*member, Range range = {}) {
  return field_detail::Make(key, member, field_detail::NumberCodec<M>{range});
}

// A std::vector of numbers, each in `range`; with `non_empty`, at least one.
template <typename T, typename M>
Field<T> List(const char* key, std::vector<M> T::*member, Range range = {},
              bool non_empty = false) {
  using Codec = field_detail::ListCodec<M, field_detail::NumberCodec<M>>;
  return field_detail::Make(key, member, Codec{{range}, non_empty});
}

template <typename T>
Field<T> Flag(const char* key, bool T::*member) {
  return field_detail::Make(key, member, field_detail::FlagCodec{});
}

// A string member; with `spellings`, it must be one of them ("" only when
// listed).
template <typename T>
Field<T> Text(const char* key, std::string T::*member,
              std::vector<std::string> spellings = {}) {
  return field_detail::Make(key, member,
                            field_detail::TextCodec{std::move(spellings)});
}

// A string member that must not be empty.
template <typename T>
Field<T> Name(const char* key, std::string T::*member) {
  return field_detail::Make(key, member, field_detail::TextCodec{{}, true});
}

// An enum member, spelled in JSON as one of `tokens`.
template <typename T, typename E>
Field<T> Token(const char* key, E T::*member,
               std::vector<std::pair<std::string, E>> tokens) {
  return field_detail::Make(key, member,
                            field_detail::TokenCodec<E>{std::move(tokens)});
}

// A nested struct, through its own table.
template <typename T, typename S>
Field<T> Object(const char* key, S T::*member, const Fields<S>& fields) {
  return field_detail::Make(key, member, field_detail::ObjectCodec<S>{&fields});
}

// A std::vector of nested structs, each element starting from S{}.
template <typename T, typename S>
Field<T> Objects(const char* key, std::vector<S> T::*member,
                 const Fields<S>& fields) {
  using Codec = field_detail::ListCodec<S, field_detail::ObjectCodec<S>>;
  return field_detail::Make(key, member, Codec{{&fields}});
}

}  // namespace svc::util
