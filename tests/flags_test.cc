// FlagSet parsing: the success paths, and the malformed values that must
// exit 2 naming the flag (death tests).
#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace svc::util {
namespace {

// Writes `text` to a unique temp file and returns its path; removed by the
// caller via std::remove.
std::string WriteTempFile(const std::string& tag, const std::string& text) {
  std::string path =
      ::testing::TempDir() + "svc_flags_" + tag + ".flags";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

TEST(FlagSet, DefaultsSurviveEmptyParse) {
  FlagSet flags("test");
  int64_t& count = flags.Int("count", 42, "a count");
  double& ratio = flags.Double("ratio", 0.5, "a ratio");
  bool& verbose = flags.Bool("verbose", false, "verbosity");
  std::string& name = flags.String("name", "default", "a name");
  char prog[] = "prog";
  char* argv[] = {prog};
  flags.Parse(1, argv);
  EXPECT_EQ(count, 42);
  EXPECT_DOUBLE_EQ(ratio, 0.5);
  EXPECT_FALSE(verbose);
  EXPECT_EQ(name, "default");
}

TEST(FlagSet, SpaceSeparatedValues) {
  FlagSet flags("test");
  int64_t& count = flags.Int("count", 0, "");
  double& ratio = flags.Double("ratio", 0, "");
  std::string& name = flags.String("name", "", "");
  char prog[] = "prog";
  char a1[] = "--count", a2[] = "7";
  char a3[] = "--ratio", a4[] = "2.25";
  char a5[] = "--name", a6[] = "svc";
  char* argv[] = {prog, a1, a2, a3, a4, a5, a6};
  flags.Parse(7, argv);
  EXPECT_EQ(count, 7);
  EXPECT_DOUBLE_EQ(ratio, 2.25);
  EXPECT_EQ(name, "svc");
}

TEST(FlagSet, EqualsSyntaxAndBareBool) {
  FlagSet flags("test");
  int64_t& count = flags.Int("count", 0, "");
  bool& verbose = flags.Bool("verbose", false, "");
  bool& quiet = flags.Bool("quiet", true, "");
  char prog[] = "prog";
  char a1[] = "--count=13";
  char a2[] = "--verbose";
  char a3[] = "--quiet=false";
  char* argv[] = {prog, a1, a2, a3};
  flags.Parse(4, argv);
  EXPECT_EQ(count, 13);
  EXPECT_TRUE(verbose);
  EXPECT_FALSE(quiet);
}

TEST(FlagSet, UsageListsFlagsAndDefaults) {
  FlagSet flags("my-prog does things");
  flags.Int("jobs", 300, "number of jobs");
  flags.Double("epsilon", 0.05, "risk factor");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("my-prog does things"), std::string::npos);
  EXPECT_NE(usage.find("--jobs"), std::string::npos);
  EXPECT_NE(usage.find("300"), std::string::npos);
  EXPECT_NE(usage.find("number of jobs"), std::string::npos);
  EXPECT_NE(usage.find("--epsilon"), std::string::npos);
}

TEST(FlagSet, ResponseFileExpandsTokens) {
  const std::string path = WriteTempFile("basic",
                                         "# a CI profile\n"
                                         "--count 9\n"
                                         "--ratio=1.25  # inline comment\n"
                                         "--verbose\n");
  FlagSet flags("test");
  int64_t& count = flags.Int("count", 0, "");
  double& ratio = flags.Double("ratio", 0, "");
  bool& verbose = flags.Bool("verbose", false, "");
  std::string at = "@" + path;
  char prog[] = "prog";
  char* argv[] = {prog, at.data()};
  flags.Parse(2, argv);
  std::remove(path.c_str());
  EXPECT_EQ(count, 9);
  EXPECT_DOUBLE_EQ(ratio, 1.25);
  EXPECT_TRUE(verbose);
}

TEST(FlagSet, ResponseFileComposesWithInlineFlags) {
  const std::string path = WriteTempFile("compose", "--count 3 --name filed\n");
  FlagSet flags("test");
  int64_t& count = flags.Int("count", 0, "");
  std::string& name = flags.String("name", "", "");
  bool& verbose = flags.Bool("verbose", false, "");
  std::string at = "@" + path;
  char prog[] = "prog";
  char later[] = "--name";
  char value[] = "inline";
  char flag[] = "--verbose";
  // Inline flags after the response file win (last assignment sticks).
  char* argv[] = {prog, at.data(), later, value, flag};
  flags.Parse(5, argv);
  std::remove(path.c_str());
  EXPECT_EQ(count, 3);
  EXPECT_EQ(name, "inline");
  EXPECT_TRUE(verbose);
}

TEST(FlagSet, NegativeNumbers) {
  FlagSet flags("test");
  int64_t& offset = flags.Int("offset", 0, "");
  double& delta = flags.Double("delta", 0, "");
  char prog[] = "prog";
  char a1[] = "--offset=-5";
  char a2[] = "--delta=-1.5";
  char* argv[] = {prog, a1, a2};
  flags.Parse(3, argv);
  EXPECT_EQ(offset, -5);
  EXPECT_DOUBLE_EQ(delta, -1.5);
}

// Parses `args` (after the program name) against one flag of each numeric
// type.  A malformed value exits, so callers run this inside EXPECT_EXIT.
void ParseNumeric(std::vector<std::string> args) {
  FlagSet flags("test");
  flags.Int("threads", 1, "");
  flags.Double("seconds", 1.0, "");
  char prog[] = "prog";
  std::vector<char*> argv{prog};
  for (std::string& arg : args) argv.push_back(arg.data());
  flags.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagSetDeathTest, IntegerMustParseWhole) {
  EXPECT_EXIT(ParseNumeric({"--threads", "4x"}), testing::ExitedWithCode(2),
              "bad value '4x' for flag '--threads'");
  EXPECT_EXIT(ParseNumeric({"--threads=2.9"}), testing::ExitedWithCode(2),
              "bad value '2.9' for flag '--threads'");
  EXPECT_EXIT(ParseNumeric({"--threads="}), testing::ExitedWithCode(2),
              "bad value '' for flag '--threads'");
}

TEST(FlagSetDeathTest, DoubleMustParseWholeAndBeFinite) {
  EXPECT_EXIT(ParseNumeric({"--seconds", "nan"}), testing::ExitedWithCode(2),
              "bad value 'nan' for flag '--seconds'");
  EXPECT_EXIT(ParseNumeric({"--seconds=-inf"}), testing::ExitedWithCode(2),
              "bad value '-inf' for flag '--seconds'");
  EXPECT_EXIT(ParseNumeric({"--seconds", "1e999"}), testing::ExitedWithCode(2),
              "bad value '1e999' for flag '--seconds'");
  EXPECT_EXIT(ParseNumeric({"--seconds", "1.5s"}), testing::ExitedWithCode(2),
              "bad value '1.5s' for flag '--seconds'");
}

TEST(FlagSetDeathTest, MissingValueAndUnknownFlag) {
  EXPECT_EXIT(ParseNumeric({"--seconds"}), testing::ExitedWithCode(2),
              "flag '--seconds' requires a value");
  EXPECT_EXIT(ParseNumeric({"--thread", "4"}), testing::ExitedWithCode(2),
              "unknown flag '--thread'");
}

}  // namespace
}  // namespace svc::util
