// Tiny command-line flag parser for the bench/example binaries.
//
// Supports `--name value` and `--name=value` forms plus `--help`.  Flags are
// registered with a default and a description; unknown flags are an error so
// typos in bench invocations fail loudly.
//
// An argument of the form `@path` is a response file: it is replaced by the
// whitespace-separated tokens of that file (newlines included; `#` starts a
// comment to end of line), so recurring flag bundles — a scenario override
// set, a CI profile — live in one file and compose with inline flags:
//
//   scenario_run @ci/smoke.flags --scenario fig7
//
// Response files expand exactly one level (a token starting with '@' inside
// a response file is an error, not a nested include).
//
//   util::FlagSet flags("scenario_run");
//   int& jobs = flags.Int("jobs", 300, "number of tenant jobs");
//   double& eps = flags.Double("epsilon", 0.05, "risk factor");
//   flags.Parse(argc, argv);   // exits with usage on error / --help
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace svc::util {

class FlagSet {
 public:
  explicit FlagSet(std::string program_description);

  // Registration.  The returned reference stays valid for the FlagSet's
  // lifetime and is updated by Parse().
  int64_t& Int(const std::string& name, int64_t default_value,
               const std::string& help);
  double& Double(const std::string& name, double default_value,
                 const std::string& help);
  bool& Bool(const std::string& name, bool default_value,
             const std::string& help);
  std::string& String(const std::string& name, std::string default_value,
                      const std::string& help);

  // Parses argv.  On `--help` prints usage and exits 0; on malformed or
  // unknown flags prints usage and exits 2.
  void Parse(int argc, char** argv);

  // Usage text (also printed by Parse on error).
  std::string Usage() const;

 private:
  enum class Type { kInt, kDouble, kBool, kString };
  struct Flag {
    Type type;
    std::string help;
    // Owned storage, stable addresses.
    int64_t int_value = 0;
    double double_value = 0;
    bool bool_value = false;
    std::string string_value;
  };

  Flag& Register(const std::string& name, Type type, const std::string& help);
  bool SetFromText(Flag& flag, const std::string& text);

  std::string description_;
  std::map<std::string, Flag*> flags_;        // name -> owned flag
  std::vector<std::unique_ptr<Flag>> owned_;  // storage
};

}  // namespace svc::util
