// Seeded mutational fuzz test for ParseScenario (sim/scenario.h).
//
// Mutants start from the canonical text of every built-in scenario and
// swap one or two number tokens for extremes: huge, negative, zero,
// fractional, past 2^53 or 2^32 or 2^31, a string, null.  Each mutant must
// either be rejected with an error naming its JSON path, or parse into a
// scenario whose canonical text repeats every member of the mutant with
// the same value.  Every Nth accepted mutant also runs on a copy shrunk to
// a small fabric, few jobs, and a short horizon: RunScenario must return
// (an error status is fine) rather than abort.  Fabrics large enough to
// exhaust memory are not this test's concern, hence the shrinking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.h"
#include "stats/rng.h"
#include "util/json_reader.h"

namespace svc::sim {
namespace {

// Sized so the whole test takes a few seconds under a Debug ASan/UBSan
// build.
constexpr int kMutants = 4000;
constexpr int kRunEvery = 50;  // accepted mutants per RunScenario call

const char* const kExtremes[] = {
    "1e20", "-1", "-7", "0", "0.5", "9007199254740993", "4294967297",
    "2147483648", "\"str\"", "null",
};

// (offset, length) of every number token in a JSON text, strings skipped.
std::vector<std::pair<size_t, size_t>> NumberTokens(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> tokens;
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '"') {
      for (++i; text[i] != '"'; ++i) {
        if (text[i] == '\\') ++i;
      }
      ++i;
    } else if (text[i] == '-' || (text[i] >= '0' && text[i] <= '9')) {
      const size_t start = i;
      while (i < text.size() && std::strchr("+-.0123456789eE", text[i])) ++i;
      tokens.emplace_back(start, i - start);
    } else {
      ++i;
    }
  }
  return tokens;
}

// Same JSON value; numbers compare as doubles, members in order.
bool SameValue(const util::JsonValue& a, const util::JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  if (a.is_number()) return a.AsDouble() == b.AsDouble();
  if (a.is_string()) return a.AsString() == b.AsString();
  if (a.is_bool()) return a.AsBool() == b.AsBool();
  if (a.items().size() != b.items().size() ||
      a.members().size() != b.members().size()) {
    return false;
  }
  for (size_t i = 0; i < a.items().size(); ++i) {
    if (!SameValue(a.items()[i], b.items()[i])) return false;
  }
  for (size_t i = 0; i < a.members().size(); ++i) {
    if (a.members()[i].first != b.members()[i].first ||
        !SameValue(a.members()[i].second, b.members()[i].second)) {
      return false;
    }
  }
  return true;
}

// A copy small enough to run in milliseconds: at most 2x2 racks of four
// 4-slot machines, 8 generated or 4 fixed jobs, two sweep points, and a
// 600 s horizon.
Scenario Shrunk(Scenario s) {
  topology::ThreeTierConfig& t = s.topology;
  const int aggs = std::min(t.racks / t.racks_per_agg, 2);
  t.racks_per_agg = std::min(t.racks_per_agg, 2);
  t.racks = aggs * t.racks_per_agg;
  t.machines_per_rack = std::min(t.machines_per_rack, 4);
  t.slots_per_machine = std::min(t.slots_per_machine, 4);
  t.tor_trunk = std::min(t.tor_trunk, 2);
  t.agg_trunk = std::min(t.agg_trunk, 2);
  s.workload.num_jobs = std::min(s.workload.num_jobs, 8);
  s.fixed_jobs.count = std::min(s.fixed_jobs.count, 4);
  s.max_seconds = std::min(s.max_seconds, 600.0);
  s.faults.horizon_seconds = std::min(s.faults.horizon_seconds, 600.0);
  if (s.sweep.values.size() > 2) s.sweep.values.resize(2);
  if (s.sweep.parameter == "trunk") {
    for (double& value : s.sweep.values) value = std::min(value, 2.0);
  }
  return s;
}

TEST(ScenarioFuzz, MutantsAreRejectedWithAPathOrRoundTrip) {
  std::vector<std::string> seeds;
  for (const std::string& name : RegisteredScenarioNames()) {
    seeds.push_back(SerializeScenario(*FindScenario(name)));
  }
  stats::Rng rng(20140630);
  int accepted = 0;
  int ran = 0;
  for (int m = 0; m < kMutants; ++m) {
    const std::string& seed =
        seeds[rng.UniformInt(0, static_cast<int64_t>(seeds.size()) - 1)];
    const std::vector<std::pair<size_t, size_t>> tokens = NumberTokens(seed);
    // One or two distinct tokens, replaced back to front so offsets hold.
    std::vector<size_t> picks = {static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(tokens.size()) - 1))};
    const size_t second = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(tokens.size()) - 1));
    if (rng.UniformInt(0, 1) == 1 && second != picks[0]) {
      picks.push_back(second);
    }
    std::sort(picks.rbegin(), picks.rend());
    std::string mutant = seed;
    for (const size_t pick : picks) {
      const char* extreme = kExtremes[rng.UniformInt(
          0, static_cast<int64_t>(std::size(kExtremes)) - 1)];
      mutant.replace(tokens[pick].first, tokens[pick].second, extreme);
    }
    SCOPED_TRACE(mutant);

    util::Result<Scenario> parsed = ParseScenario(mutant);
    if (!parsed) {
      const util::Status& status = parsed.status();
      ASSERT_EQ(status.code(), util::ErrorCode::kInvalidArgument)
          << status.ToText();
      ASSERT_EQ(status.message().rfind("scenario", 0), 0u) << status.ToText();
      ASSERT_NE(status.message().find(": "), std::string::npos)
          << status.ToText();
      continue;
    }
    ++accepted;
    util::Result<util::JsonValue> in = util::ParseJson(mutant);
    util::Result<util::JsonValue> out =
        util::ParseJson(SerializeScenario(*parsed));
    ASSERT_TRUE(in && out);
    ASSERT_TRUE(SameValue(*in, *out)) << SerializeScenario(*parsed);

    if (accepted % kRunEvery == 0) {
      ++ran;
      ScenarioRunOptions options;
      options.threads = 1;
      (void)RunScenario(Shrunk(*parsed), options);
    }
  }
  // The extremes include in-range values, so a fair share must parse.
  EXPECT_GT(accepted, kMutants / 10);
  EXPECT_GT(ran, 0);
}

}  // namespace
}  // namespace svc::sim
