// Minimal streaming JSON writer for bench output (scenario_run's and
// fault_recovery's snapshots and the micro-bench --json mode).
//
// Emits compact, valid JSON with keys in insertion order; commas and
// nesting are handled by the writer so call sites read like the document.
// Strings go through obs::AppendJsonString, the one escaper every JSON
// emitter shares.  Doubles are printed with enough digits to round-trip
// (%.17g) and non-finite values — which JSON cannot represent — degrade to
// null.
//
//   util::JsonWriter w;
//   w.BeginObject();
//   w.Key("speedup"); w.Value(3.7);
//   w.Key("series"); w.BeginArray(); w.Value(1.0); w.Value(2.0); w.EndArray();
//   w.EndObject();
//   std::string doc = w.str();
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace svc::util {

class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  // Must be called inside an object, immediately before the member's value.
  void Key(const std::string& key);

  void Value(double v);
  void Value(int64_t v);
  void Value(int v) { Value(static_cast<int64_t>(v)); }
  void Value(uint64_t v);
  void Value(bool v);
  void Value(const std::string& v);
  void Value(const char* v) { Value(std::string(v)); }
  void Null();

  // Shorthand for Key(k); Value(v).
  template <typename T>
  void Member(const std::string& key, const T& value) {
    Key(key);
    Value(value);
  }

  // The document so far.  Well-formed once every Begin* has been closed.
  const std::string& str() const { return out_; }

 private:
  void Separate();  // emits the comma before a sibling element

  std::string out_;
  // One entry per open container: true once it has at least one element.
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

}  // namespace svc::util
