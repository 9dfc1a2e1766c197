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
// `checkpoint_path` as one JSON document — the scenario config hash, the
// selected allocator / recovery policy / survivability toggle, the failed
// and cordoned elements, and the live tenants as svc/snapshot.h records
// (moments, placement, backup group) — atomically (tmp + rename).  The
// daemon is single-threaded, so every checkpoint happens at a quiesced
// point by construction.  A checkpoint that cannot be written (a full
// disk, an unwritable path) leaves the previous file in place, is logged
// and counted under daemon/checkpoint_errors, and a failed shutdown
// checkpoint is Serve()'s result.
//
// On startup, an existing checkpoint whose config hash matches the loaded
// scenario is restored: tenants, placements and backup groups are replayed
// through AdmitPlacement, then the fault/cordon set is re-applied.  The
// per-link sums are added up again in id order, so after any release
// their low-order bits can differ from the live daemon's, and later
// decisions can diverge from an uninterrupted run's.  tests/daemon_test.cc
// resumes a daemon that admitted and never released, with and without
// survivability, and diffs its decisions against an uninterrupted one.  A
// hash mismatch is an error: serving a different scenario against
// restored state would corrupt silently.  So is a malformed checkpoint:
// restore reads and checks the whole document through a strict field
// table (util/json_fields.h) before it admits anything, and an unknown
// key, a mistyped or out-of-range member, or a tenant that does not fit
// stops the daemon from starting.
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
  // (bad scenario, unusable socket path, corrupt checkpoint, a final
  // checkpoint that could not be written); per-request errors are
  // reported to the client and never end the loop.
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
