// svcctl — scriptable SVC network manager.
//
//   build/src/cli/svcctl --racks 4 --machines-per-rack 5 < scenario.txt
//   echo "admit 1 homogeneous 10 200 120
//         show occupancy" | build/src/cli/svcctl
//
// Reads commands from stdin (or --script FILE), executes them against a
// fresh datacenter, exits nonzero if any command failed.  See
// cli/interpreter.h for the command language.
//
// With --connect SOCKET the same commands drive a running svcd instead of
// a local in-process manager: each line is sent over the daemon's NDJSON
// protocol and the response output is printed.  Exit codes: 2 when the
// connection fails (daemon not running), 1 when any command failed, 0
// otherwise.
#include <fstream>
#include <iostream>

#include "cli/daemon.h"
#include "cli/interpreter.h"
#include "obs/decision_log.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "topology/builders.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace svc;
  util::FlagSet flags("svcctl: scriptable SVC network manager");
  int64_t& racks = flags.Int("racks", 4, "racks");
  int64_t& machines = flags.Int("machines-per-rack", 5, "machines per rack");
  int64_t& slots = flags.Int("slots", 4, "VM slots per machine");
  double& oversub = flags.Double("oversub", 2.0, "oversubscription");
  double& epsilon = flags.Double("epsilon", 0.05, "risk factor");
  std::string& allocator =
      flags.String("allocator", "svc-dp",
                   "svc-dp | tivc-adapted | oktopus | hetero-exact | "
                   "hetero-heuristic | first-fit");
  std::string& script =
      flags.String("script", "", "command file (default: stdin)");
  std::string& connect = flags.String(
      "connect", "",
      "drive a running svcd over this UNIX socket instead of a local "
      "manager (fabric flags are then the daemon's, not ours)");
  std::string& flight_dir = flags.String(
      "flight-dir", "", "arm the flight recorder to dump bundles here");
  flags.Parse(argc, argv);

  if (!connect.empty()) {
    if (script.empty()) return cli::RunClient(connect, std::cin, std::cout);
    std::ifstream in(script);
    if (!in) {
      std::cerr << "cannot open script '" << script << "'\n";
      return 2;
    }
    return cli::RunClient(connect, in, std::cout);
  }

  // An interactive tool is never on a hot path, so collection is always on:
  // the `metrics`/`health`/`tail`/`explain` commands then reflect whatever
  // the session did.
  obs::SetMetricsEnabled(true);
  obs::SetDecisionsEnabled(true);
  obs::FlightRecorder::Global().Configure(flight_dir);

  topology::ThreeTierConfig config;
  config.racks = static_cast<int>(racks);
  config.machines_per_rack = static_cast<int>(machines);
  config.slots_per_machine = static_cast<int>(slots);
  config.racks_per_agg = std::max(1, static_cast<int>(racks) / 2);
  config.oversubscription = oversub;
  const topology::Topology topo = topology::BuildThreeTier(config);
  std::cout << "datacenter: " << topo.Describe() << ", epsilon " << epsilon
            << "\n";

  cli::Interpreter interpreter(topo, epsilon);
  if (!interpreter.SelectAllocator(allocator)) {
    std::cerr << "unknown allocator '" << allocator << "'\n";
    return 2;
  }

  int failures = 0;
  if (script.empty()) {
    failures = interpreter.Run(std::cin, std::cout);
  } else {
    std::ifstream in(script);
    if (!in) {
      std::cerr << "cannot open script '" << script << "'\n";
      return 2;
    }
    failures = interpreter.Run(in, std::cout);
  }
  if (failures > 0) {
    std::cout << failures << " command(s) failed\n";
    return 1;
  }
  return 0;
}
