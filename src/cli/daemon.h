// svcd — the SVC network manager as a long-running service.
//
// A Daemon loads one scenario (the fabric, epsilon, and admission
// discipline; the workload/sweep sections are ignored — tenants arrive
// over the wire), binds a UNIX-domain stream socket, and serves the
// interpreter command language (cli/interpreter.h: admit / release /
// fail / recover / drain / uncordon / health / explain / ...) over a
// newline-delimited JSON protocol:
//
//   request:   {"cmd": "admit 1 homogeneous 10 200 120"}        (+ opt "id")
//   response:  {"ok": true, "output": "admit 1: placed ...\n"}  (id echoed)
//
// An "id" must be an integer within ±(2^53 - 1) so it echoes exactly;
// any other id gets an error response.
//
// Two requests are handled by the daemon itself rather than the
// interpreter: "checkpoint" forces a checkpoint now, "shutdown" stops the
// serve loop after responding.  A malformed request line yields
// {"ok": false, "error": ...} and the connection keeps serving.
//
// Checkpointing: after every `checkpoint_every` successful state-mutating
// commands (and at shutdown), the daemon writes its full state to
// `checkpoint_path` — the scenario config hash, the selected allocator /
// recovery policy / survivability toggle, the failed and cordoned
// elements, and the tenant snapshot (svc/snapshot.h) — atomically
// (tmp + rename).  The daemon is single-threaded, so every checkpoint
// happens at a quiesced point by construction.  On startup, an existing
// checkpoint whose config hash matches the loaded scenario is restored:
// tenants are replayed through AdmitPlacement and the fault/cordon set is
// re-applied, so a killed daemon resumes with bit-identical admission
// state — the acceptance drill in tests/daemon_test.cc kills a daemon
// mid-soak and diffs the decisions of the resumed run against an
// uninterrupted one.  A hash mismatch is an error: serving a different
// scenario against restored state would corrupt silently.  So is a
// malformed checkpoint: restore reads it through a strict field table
// (util/json_fields.h), and an unknown key, a mistyped or out-of-range
// member, or "snapshot_ok": false stops the daemon from starting.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "sim/scenario.h"
#include "util/result.h"

namespace svc::cli {

struct DaemonConfig {
  sim::Scenario scenario;        // fabric + admission discipline to serve
  std::string socket_path;       // UNIX-domain socket to bind
  std::string checkpoint_path;   // empty = checkpointing off
  int64_t checkpoint_every = 1;  // mutating commands per checkpoint
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Validates the scenario, restores the checkpoint if one exists, binds
  // the socket, and serves connections until Stop() is called or a client
  // sends "shutdown".  Writes a final checkpoint (when configured) and
  // unlinks the socket on the way out.  Returns the first fatal error
  // (bad scenario, unusable socket path, corrupt checkpoint); per-request
  // errors are reported to the client and never end the loop.
  util::Status Serve();

  // Ends the serve loop from another thread (or a signal handler's
  // deferred context): the listener is shut down, so a blocked accept
  // returns and Serve() exits after its current connection.
  void Stop();

  // How many requests this instance has served (tests).
  int64_t requests_served() const { return requests_served_; }

 private:
  DaemonConfig config_;
  std::atomic<int> listen_fd_{-1};
  int64_t requests_served_ = 0;
  std::atomic<bool> stop_{false};
};

// Drives a running daemon: connects to `socket_path`, sends each line read
// from `in` as a {"cmd": ...} request, and prints every response's output
// to `out`.  Exit-code contract (svcctl --connect):
//   2  connection failure (daemon not running / bad socket)
//   1  at least one command failed
//   0  every command succeeded
int RunClient(const std::string& socket_path, std::istream& in,
              std::ostream& out);

}  // namespace svc::cli
