// svcd — the SVC network manager as a persistent daemon.
//
//   build/src/cli/svcd --socket /tmp/svcd.sock &
//   build/src/cli/svcd --scenario fig7 --socket /tmp/svcd.sock
//       --checkpoint /var/tmp/svcd.ckpt &
//   echo "admit 1 homogeneous 10 200 120
//         health" | build/src/cli/svcctl --connect /tmp/svcd.sock
//
// The scenario (registry name via --scenario, or a JSON file via
// --scenario-file) defines the fabric, epsilon, and admission discipline;
// tenants then arrive over the socket instead of from a workload
// generator.  With --checkpoint set, the daemon persists its state after
// every --checkpoint-every mutating commands and resumes from the
// checkpoint on restart — kill -9 mid-soak, restart, and the admission
// state (and therefore every subsequent decision) is bit-identical.  See
// cli/daemon.h for the NDJSON protocol.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cli/daemon.h"
#include "obs/decision_log.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "util/flags.h"

namespace {

svc::cli::Daemon* g_daemon = nullptr;

void HandleSignal(int) {
  if (g_daemon != nullptr) g_daemon->Stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace svc;
  util::FlagSet flags("svcd: persistent SVC network manager daemon");
  std::string& scenario_name = flags.String(
      "scenario", "daemon_default",
      "registry scenario defining the fabric and admission discipline "
      "(bench/scenario_run --list)");
  std::string& scenario_file = flags.String(
      "scenario-file", "", "scenario JSON file (overrides --scenario)");
  std::string& socket_path =
      flags.String("socket", "svcd.sock", "UNIX-domain socket to bind");
  std::string& checkpoint = flags.String(
      "checkpoint", "", "checkpoint file; resume from it when it exists "
      "('' = checkpointing off)");
  int64_t& checkpoint_every = flags.Int(
      "checkpoint-every", 1, "mutating commands between checkpoints");
  std::string& flight_dir = flags.String(
      "flight-dir", "", "arm the flight recorder to dump bundles here");
  flags.Parse(argc, argv);

  // A control-plane service is never on a simulation hot path, so
  // collection is always on — health/metrics/tail/explain then reflect
  // everything the daemon did.
  obs::SetMetricsEnabled(true);
  obs::SetDecisionsEnabled(true);
  obs::FlightRecorder::Global().Configure(flight_dir);

  cli::DaemonConfig config;
  if (!scenario_file.empty()) {
    std::ifstream in(scenario_file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", scenario_file.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    util::Result<sim::Scenario> parsed = sim::ParseScenario(buffer.str());
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", scenario_file.c_str(),
                   parsed.status().ToText().c_str());
      return 2;
    }
    config.scenario = std::move(*parsed);
  } else {
    const sim::Scenario* s = sim::FindScenario(scenario_name);
    if (s == nullptr) {
      std::fprintf(stderr,
                   "unknown scenario '%s' (bench/scenario_run --list)\n",
                   scenario_name.c_str());
      return 2;
    }
    config.scenario = *s;
  }
  config.socket_path = socket_path;
  config.checkpoint_path = checkpoint;
  config.checkpoint_every = checkpoint_every;

  cli::Daemon daemon(std::move(config));
  g_daemon = &daemon;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("svcd: serving scenario '%s' on %s%s\n", scenario_name.c_str(),
              socket_path.c_str(),
              checkpoint.empty() ? ""
                                 : (" (checkpoint " + checkpoint + ")").c_str());
  std::fflush(stdout);
  const util::Status status = daemon.Serve();
  g_daemon = nullptr;
  if (!status.ok()) {
    std::fprintf(stderr, "svcd: %s\n", status.ToText().c_str());
    return 1;
  }
  std::printf("svcd: stopped after %lld request(s)\n",
              static_cast<long long>(daemon.requests_served()));
  return 0;
}
