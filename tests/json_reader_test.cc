// Strict JSON reader (util/json_reader.h): the grammar it accepts, the
// strictness it promises (duplicate keys, trailing garbage, bad escapes,
// control characters), positioned errors, and the round-trip contract with
// util::JsonWriter that scenario serialization relies on.
#include "util/json_reader.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace svc::util {
namespace {

TEST(JsonReader, ParsesScalars) {
  Result<JsonValue> doc = ParseJson("null");
  ASSERT_TRUE(doc);
  EXPECT_TRUE(doc->is_null());

  doc = ParseJson("true");
  ASSERT_TRUE(doc);
  EXPECT_TRUE(doc->is_bool());
  EXPECT_TRUE(doc->AsBool());

  doc = ParseJson("-12.5e2");
  ASSERT_TRUE(doc);
  EXPECT_TRUE(doc->is_number());
  EXPECT_DOUBLE_EQ(doc->AsDouble(), -1250.0);

  doc = ParseJson("\"hi \\u0041\\n\"");
  ASSERT_TRUE(doc);
  EXPECT_TRUE(doc->is_string());
  EXPECT_EQ(doc->AsString(), "hi A\n");
}

TEST(JsonReader, ParsesNestedStructures) {
  Result<JsonValue> doc =
      ParseJson("{\"a\":[1,2,3],\"b\":{\"c\":true},\"d\":\"x\"}");
  ASSERT_TRUE(doc) << doc.status().ToText();
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[2].AsInteger().value_or(-1), 3);
  const JsonValue* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  const JsonValue* c = b->Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->AsBool());
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

// AsInteger is the one integer accessor: it answers only for numbers that
// are integers exactly, so no caller can round, truncate, or overflow.
TEST(JsonReader, AsIntegerAcceptsOnlyExactIntegers) {
  for (const char* text : {"1e300", "-1e300", "2.5", "9007199254740993",
                           "9007199254740992", "18446744073709551615",
                           "\"7\"", "true", "null", "[1]"}) {
    SCOPED_TRACE(text);
    Result<JsonValue> doc = ParseJson(text);
    ASSERT_TRUE(doc) << doc.status().ToText();
    EXPECT_FALSE(doc->AsInteger().has_value());
  }
  const std::vector<std::pair<const char*, int64_t>> exact = {
      {"0", 0},
      {"-0", 0},
      {"1e2", 100},
      {"-7", -7},
      {"9007199254740991", kMaxSafeInteger},
      {"-9007199254740991", -kMaxSafeInteger},
  };
  for (const auto& [text, value] : exact) {
    SCOPED_TRACE(text);
    Result<JsonValue> doc = ParseJson(text);
    ASSERT_TRUE(doc) << doc.status().ToText();
    EXPECT_EQ(doc->AsInteger().value_or(-1), value);
  }
}

TEST(JsonReader, MembersKeepInsertionOrder) {
  Result<JsonValue> doc = ParseJson("{\"z\":1,\"a\":2,\"m\":3}");
  ASSERT_TRUE(doc);
  ASSERT_EQ(doc->members().size(), 3u);
  EXPECT_EQ(doc->members()[0].first, "z");
  EXPECT_EQ(doc->members()[1].first, "a");
  EXPECT_EQ(doc->members()[2].first, "m");
}

TEST(JsonReader, RejectsDuplicateKeys) {
  Result<JsonValue> doc = ParseJson("{\"a\":1,\"a\":2}");
  ASSERT_FALSE(doc);
  EXPECT_NE(doc.status().message().find("duplicate"), std::string::npos)
      << doc.status().ToText();
}

TEST(JsonReader, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseJson("{} extra"));
  EXPECT_FALSE(ParseJson("1 2"));
}

TEST(JsonReader, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson(""));
  EXPECT_FALSE(ParseJson("{"));
  EXPECT_FALSE(ParseJson("[1,]"));
  EXPECT_FALSE(ParseJson("{\"a\"}"));
  EXPECT_FALSE(ParseJson("'single'"));
  EXPECT_FALSE(ParseJson("\"bad \\q escape\""));
  EXPECT_FALSE(ParseJson("\"raw \n newline\""));
  EXPECT_FALSE(ParseJson("nan"));
}

TEST(JsonReader, ErrorsCarryLineAndColumn) {
  Result<JsonValue> doc = ParseJson("{\n  \"a\": 1,\n  oops\n}");
  ASSERT_FALSE(doc);
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status().ToText();
}

TEST(JsonReader, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Member("name", "fig7 \"quoted\"\nline");
  w.Member("count", static_cast<int64_t>(42));
  w.Member("ratio", 0.25);
  w.Member("on", true);
  w.Key("values");
  w.BeginArray();
  w.Value(static_cast<int64_t>(1));
  w.Value(static_cast<int64_t>(2));
  w.EndArray();
  w.EndObject();

  Result<JsonValue> doc = ParseJson(w.str());
  ASSERT_TRUE(doc) << doc.status().ToText();
  EXPECT_EQ(doc->Find("name")->AsString(), "fig7 \"quoted\"\nline");
  EXPECT_EQ(doc->Find("count")->AsInteger().value_or(-1), 42);
  EXPECT_DOUBLE_EQ(doc->Find("ratio")->AsDouble(), 0.25);
  EXPECT_TRUE(doc->Find("on")->AsBool());
  EXPECT_EQ(doc->Find("values")->items().size(), 2u);
}

}  // namespace
}  // namespace svc::util
