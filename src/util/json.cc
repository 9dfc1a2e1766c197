#include "util/json.h"

#include <cmath>
#include <cstdio>

#include "obs/core.h"

namespace svc::util {

void JsonWriter::Separate() {
  if (pending_key_) {
    // The comma (if any) was emitted with the key.
    pending_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  has_element_.push_back(false);
}

void JsonWriter::EndObject() {
  has_element_.pop_back();
  out_ += '}';
}

void JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  has_element_.push_back(false);
}

void JsonWriter::EndArray() {
  has_element_.pop_back();
  out_ += ']';
}

void JsonWriter::Key(const std::string& key) {
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
  obs::AppendJsonString(out_, key);
  out_ += ':';
  pending_key_ = true;
}

void JsonWriter::Value(double v) {
  Separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  out_ += buffer;
}

void JsonWriter::Value(int64_t v) {
  Separate();
  out_ += std::to_string(v);
}

void JsonWriter::Value(uint64_t v) {
  Separate();
  out_ += std::to_string(v);
}

void JsonWriter::Value(bool v) {
  Separate();
  out_ += v ? "true" : "false";
}

void JsonWriter::Value(const std::string& v) {
  Separate();
  obs::AppendJsonString(out_, v);
}

void JsonWriter::Null() {
  Separate();
  out_ += "null";
}

}  // namespace svc::util
