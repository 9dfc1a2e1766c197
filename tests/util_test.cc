#include <gtest/gtest.h>

#include "util/result.h"
#include "util/strings.h"
#include "util/table.h"

namespace svc::util {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToText(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s(ErrorCode::kInfeasible, "no subtree fits");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInfeasible);
  EXPECT_EQ(s.ToText(), "INFEASIBLE: no subtree fits");
}

TEST(Result, ValuePath) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, ErrorPath) {
  Result<int> r(ErrorCode::kCapacity, "full");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCapacity);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, ImplicitStatusConversion) {
  auto fail = []() -> Result<std::string> {
    return Status(ErrorCode::kNotFound, "missing");
  };
  EXPECT_FALSE(fail().ok());
}

TEST(ErrorCodeNames, AllDistinct) {
  EXPECT_STREQ(ToString(ErrorCode::kOk), "OK");
  EXPECT_STREQ(ToString(ErrorCode::kInvalidArgument), "INVALID_ARGUMENT");
  EXPECT_STREQ(ToString(ErrorCode::kInfeasible), "INFEASIBLE");
  EXPECT_STREQ(ToString(ErrorCode::kCapacity), "CAPACITY");
  EXPECT_STREQ(ToString(ErrorCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(ToString(ErrorCode::kFailedPrecondition),
               "FAILED_PRECONDITION");
}

TEST(Split, BasicAndEmptyFields) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Split, NoSeparator) {
  const auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Table, AlignsAndCounts) {
  Table t({"col", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2.5"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string text = t.ToText();
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_NE(text.find("col"), std::string::npos);
}

TEST(Table, CsvEscapesQuotes) {
  Table t({"a"});
  t.AddRow({"say \"hi\""});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"1"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NO_THROW(t.ToText());
}

}  // namespace
}  // namespace svc::util
