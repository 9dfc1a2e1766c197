#include "cli/daemon.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "cli/interpreter.h"
#include "obs/metrics.h"
#include "svc/snapshot.h"
#include "topology/builders.h"
#include "util/json.h"
#include "util/json_fields.h"
#include "util/json_reader.h"
#include "util/logging.h"

namespace svc::cli {
namespace {

using util::ErrorCode;
using util::Status;

// Commands that change manager or session state and therefore advance the
// checkpoint clock.  Read-only commands (show/health/metrics/tail/explain/
// assert/faults) never trigger a checkpoint write.
bool IsMutating(const std::string& line) {
  std::istringstream in(line);
  std::string verb;
  in >> verb;
  return verb == "admit" || verb == "batch" || verb == "release" ||
         verb == "fail" || verb == "recover" || verb == "drain" ||
         verb == "uncordon" || verb == "policy" || verb == "survivable" ||
         verb == "allocator" || verb == "snapshot";
}

// Blocking line reader over a stream socket.  Returns false on EOF or a
// read error; the trailing '\n' is stripped.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  bool Next(std::string* line) {
    line->clear();
    for (;;) {
      const size_t newline = buffer_.find('\n', scanned_);
      if (newline != std::string::npos) {
        line->assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[4096];
      const ssize_t n = read(fd_, chunk, sizeof chunk);
      if (n <= 0) {
        // A non-empty unterminated tail still counts as a final line.
        if (!buffer_.empty()) {
          line->swap(buffer_);
          scanned_ = 0;
          return true;
        }
        return false;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  size_t scanned_ = 0;
};

bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

Status Errno(const std::string& what) {
  return {ErrorCode::kFailedPrecondition, what + ": " + std::strerror(errno)};
}

// Runs one interpreter line with output captured; wraps the daemon-level
// session state the checkpoint needs to reconstruct.
struct Session {
  Interpreter* interpreter = nullptr;
  std::string scenario_hash;
};

struct FailedElement {
  topology::VertexId vertex = 0;
  std::string kind;  // machine | link
};

// The checkpoint file: everything a restarted daemon needs beyond its
// scenario.
struct Checkpoint {
  std::string scenario_hash;
  std::string allocator;
  std::string policy;
  bool survivable = false;
  std::vector<FailedElement> failed;
  std::vector<topology::VertexId> cordoned;  // drained, not failed
  std::vector<core::TenantRecord> tenants;   // svc/snapshot.h records
};

const util::Fields<FailedElement>& FailedElementFields() {
  using C = FailedElement;
  static const auto* fields = new util::Fields<C>{
      util::Number("vertex", &C::vertex, util::Range::AtLeast(1)),
      util::Text("kind", &C::kind, {"machine", "link"}),
  };
  return *fields;
}

const util::Fields<Checkpoint>& CheckpointFields() {
  using C = Checkpoint;
  static const auto* fields = new util::Fields<C>{
      util::Text("scenario_hash", &C::scenario_hash),
      util::Text("allocator", &C::allocator),
      util::Text("policy", &C::policy, {"reallocate", "patch", "evict", "switchover"}),
      util::Flag("survivable", &C::survivable),
      util::Objects("failed", &C::failed, FailedElementFields()),
      util::List("cordoned", &C::cordoned, util::Range::AtLeast(1)),
      util::Objects("tenants", &C::tenants, core::TenantFields()),
  };
  return *fields;
}

util::Result<std::string> SerializeCheckpoint(const Session& session) {
  const core::NetworkManager& manager = session.interpreter->manager();
  util::Result<std::vector<core::TenantRecord>> tenants =
      core::CaptureTenants(manager, "checkpoint.tenants");
  if (!tenants) return tenants.status();
  Checkpoint checkpoint;
  checkpoint.tenants = std::move(*tenants);
  checkpoint.scenario_hash = session.scenario_hash;
  checkpoint.allocator = session.interpreter->allocator_name();
  checkpoint.policy = core::ToString(session.interpreter->recovery_policy());
  checkpoint.survivable = manager.admission_options().survivability;
  for (const auto& [vertex, kind] : manager.Faults()) {
    checkpoint.failed.push_back(
        {vertex, kind == core::FaultKind::kMachine ? "machine" : "link"});
  }
  for (topology::VertexId m : manager.topo().machines()) {
    if (!manager.slots().machine_up(m) && !manager.IsFailed(m)) {
      checkpoint.cordoned.push_back(m);
    }
  }
  util::JsonWriter w;
  util::WriteFields(CheckpointFields(), checkpoint, w);
  return w.str() + "\n";
}

Status WriteCheckpointFile(const Session& session, const std::string& path) {
  util::Result<std::string> text = SerializeCheckpoint(session);
  if (!text) return text.status();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Errno("cannot open " + tmp);
    out << *text;
    if (!out.flush()) return Errno("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("rename " + tmp + " -> " + path);
  }
  return Status::Ok();
}

// Writes the checkpoint atomically (tmp + rename).  A failure leaves the
// previous checkpoint in place; it is logged and counted, never silent.
Status WriteCheckpoint(const Session& session, const std::string& path) {
  Status status = WriteCheckpointFile(session, path);
  if (!status.ok()) {
    status = {ErrorCode::kFailedPrecondition,
              "checkpoint " + path + " not written: " + status.message()};
    SVC_LOG(Error) << status.message();
    SVC_METRIC_INC("daemon/checkpoint_errors");
    return status;
  }
  SVC_METRIC_INC("daemon/checkpoints");
  return Status::Ok();
}

Status RestoreCheckpoint(const Session& session, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Ok();  // no checkpoint — fresh start
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Checkpoint checkpoint;
  Status status = util::ParseFields(CheckpointFields(), buffer.str(),
                                    "checkpoint", &checkpoint);
  if (status.ok()) {
    status = util::CheckFields(CheckpointFields(), checkpoint, "checkpoint");
  }
  if (!status.ok()) {
    return {ErrorCode::kInvalidArgument,
            "corrupt checkpoint " + path + ": " + status.message()};
  }
  if (checkpoint.scenario_hash != session.scenario_hash) {
    return {ErrorCode::kFailedPrecondition,
            "checkpoint " + path + " was written for a different scenario "
            "config (hash " + checkpoint.scenario_hash + ", serving " +
                session.scenario_hash + ")"};
  }
  Interpreter& interp = *session.interpreter;
  std::ostringstream sink;
  if (!interp.SelectAllocator(checkpoint.allocator)) {
    return {ErrorCode::kInvalidArgument,
            "checkpoint allocator unknown: " + checkpoint.allocator};
  }
  interp.Execute("policy " + checkpoint.policy, sink);
  interp.Execute(
      std::string("survivable ") + (checkpoint.survivable ? "on" : "off"),
      sink);
  const Status restored = core::RestoreTenants(
      checkpoint.tenants, "checkpoint.tenants", interp.manager());
  if (!restored.ok()) {
    return {ErrorCode::kInvalidArgument,
            "checkpoint " + path + " does not restore: " + restored.message()};
  }
  // Re-apply the fault plane AFTER the tenant replay: at checkpoint time
  // no live tenant had a VM or a primary demand on a failed element, so
  // each HandleFault here affects zero tenants and only takes the capacity
  // down, exactly as it was.  A backup group or backup row may sit on a
  // failed element, as it did live: faults leave those in place.  Cordons
  // likewise re-drain empty machines.
  for (const FailedElement& element : checkpoint.failed) {
    auto outcome = interp.manager().HandleFault(
        element.kind == "machine" ? core::FaultKind::kMachine
                                  : core::FaultKind::kLink,
        element.vertex, interp.recovery_policy(), interp.allocator());
    if (!outcome) {
      return {ErrorCode::kInvalidArgument,
              "checkpoint fault replay failed: " + outcome.status().message()};
    }
  }
  for (const topology::VertexId machine : checkpoint.cordoned) {
    auto outcome = interp.manager().DrainMachine(machine, interp.allocator());
    if (!outcome) {
      return {ErrorCode::kInvalidArgument,
              "checkpoint cordon replay failed: " + outcome.status().message()};
    }
  }
  return Status::Ok();
}

// One NDJSON response line.
std::string Response(std::optional<int64_t> id, bool ok,
                     const std::string& output_key,
                     const std::string& output) {
  util::JsonWriter w;
  w.BeginObject();
  if (id) w.Member("id", *id);
  w.Member("ok", ok);
  w.Member(output_key, output);
  w.EndObject();
  return w.str() + "\n";
}

}  // namespace

Daemon::Daemon(DaemonConfig config) : config_(std::move(config)) {}

Daemon::~Daemon() {
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) close(fd);
}

void Daemon::Stop() {
  stop_.store(true);
  const int fd = listen_fd_.load();
  // Unblocks a pending accept(); the fd itself is closed by Serve()/dtor.
  if (fd >= 0) shutdown(fd, SHUT_RDWR);
}

util::Status Daemon::Serve() {
  const Status valid = sim::ValidateScenario(config_.scenario);
  if (!valid.ok()) return valid;
  if (config_.socket_path.empty()) {
    return {ErrorCode::kInvalidArgument, "socket path is empty"};
  }

  const topology::Topology topo =
      topology::BuildThreeTier(config_.scenario.topology);
  Interpreter interpreter(topo, config_.scenario.admission.epsilon);
  std::ostringstream sink;
  if (!interpreter.SelectAllocator(
          sim::ScenarioAllocatorName(config_.scenario))) {
    return {ErrorCode::kInvalidArgument,
            "scenario allocator unknown: " +
                sim::ScenarioAllocatorName(config_.scenario)};
  }
  interpreter.Execute("policy " + config_.scenario.faults.policy, sink);
  if (config_.scenario.admission.survivability) {
    interpreter.Execute("survivable on", sink);
  }

  Session session;
  session.interpreter = &interpreter;
  session.scenario_hash = sim::ScenarioConfigHash(config_.scenario);
  if (!config_.checkpoint_path.empty()) {
    const Status restored =
        RestoreCheckpoint(session, config_.checkpoint_path);
    if (!restored.ok()) return restored;
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof addr.sun_path) {
    return {ErrorCode::kInvalidArgument,
            "socket path too long: " + config_.socket_path};
  }
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  unlink(config_.socket_path.c_str());  // stale socket from a killed run
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const Status status = Errno("bind " + config_.socket_path);
    close(fd);
    return status;
  }
  if (listen(fd, 8) != 0) {
    const Status status = Errno("listen " + config_.socket_path);
    close(fd);
    return status;
  }
  listen_fd_.store(fd);

  int64_t mutations_since_checkpoint = 0;
  while (!stop_.load()) {
    const int conn = accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (stop_.load()) break;
      if (errno == EINTR) continue;
      break;  // listener shut down underneath us
    }
    SVC_METRIC_INC("daemon/connections");
    LineReader reader(conn);
    std::string line;
    while (!stop_.load() && reader.Next(&line)) {
      if (line.empty()) continue;
      ++requests_served_;
      SVC_METRIC_INC("daemon/requests");
      util::Result<util::JsonValue> request = util::ParseJson(line);
      const util::JsonValue* cmd =
          request ? request->Find("cmd") : nullptr;
      const util::JsonValue* id_value =
          request ? request->Find("id") : nullptr;
      const std::optional<int64_t> id =
          id_value != nullptr ? id_value->AsInteger() : std::nullopt;
      std::string error;
      if (!request) {
        error = request.status().message();
      } else if (cmd == nullptr || !cmd->is_string()) {
        error = "request needs a string \"cmd\" member";
      } else if (id_value != nullptr && !id) {
        error = "request \"id\" must be an integer in [-" +
                std::to_string(util::kMaxSafeInteger) + ", " +
                std::to_string(util::kMaxSafeInteger) + "]";
      }
      if (!error.empty()) {
        SVC_METRIC_INC("daemon/request_errors");
        WriteAll(conn, Response(std::nullopt, false, "error", error));
        continue;
      }
      if (cmd->AsString() == "shutdown") {
        WriteAll(conn, Response(id, true, "output", "shutting down\n"));
        stop_.store(true);
        break;
      }
      if (cmd->AsString() == "checkpoint") {
        if (config_.checkpoint_path.empty()) {
          WriteAll(conn, Response(id, false, "error",
                                  "checkpointing is not configured"));
          continue;
        }
        const Status written =
            WriteCheckpoint(session, config_.checkpoint_path);
        mutations_since_checkpoint = 0;
        WriteAll(conn,
                 written.ok()
                     ? Response(id, true, "output",
                                "checkpoint " + config_.checkpoint_path +
                                    "\n")
                     : Response(id, false, "error", written.message()));
        continue;
      }
      std::ostringstream output;
      const bool ok = interpreter.Execute(cmd->AsString(), output);
      if (!ok) SVC_METRIC_INC("daemon/request_errors");
      if (ok && !config_.checkpoint_path.empty() &&
          IsMutating(cmd->AsString())) {
        if (++mutations_since_checkpoint >= config_.checkpoint_every) {
          (void)WriteCheckpoint(session, config_.checkpoint_path);
          mutations_since_checkpoint = 0;
        }
      }
      if (!WriteAll(conn, Response(id, ok, "output", output.str()))) break;
    }
    close(conn);
  }

  Status final_checkpoint = Status::Ok();
  if (!config_.checkpoint_path.empty()) {
    final_checkpoint = WriteCheckpoint(session, config_.checkpoint_path);
  }
  const int closing = listen_fd_.exchange(-1);
  if (closing >= 0) close(closing);
  unlink(config_.socket_path.c_str());
  return final_checkpoint;
}

int RunClient(const std::string& socket_path, std::istream& in,
              std::ostream& out) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof addr.sun_path) {
    out << "error: bad socket path '" << socket_path << "'\n";
    return 2;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    out << "error: socket: " << std::strerror(errno) << "\n";
    return 2;
  }
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    out << "error: connect " << socket_path << ": " << std::strerror(errno)
        << "\n";
    close(fd);
    return 2;
  }
  LineReader reader(fd);
  int failures = 0;
  std::string line;
  while (std::getline(in, line)) {
    // Blank lines and comments never reach the daemon (same as the local
    // interpreter, which would ignore them anyway).
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    util::JsonWriter w;
    w.BeginObject();
    w.Member("cmd", line);
    w.EndObject();
    if (!WriteAll(fd, w.str() + "\n")) {
      out << "error: daemon closed the connection\n";
      close(fd);
      return 2;
    }
    std::string reply;
    if (!reader.Next(&reply)) {
      out << "error: daemon closed the connection\n";
      close(fd);
      return 2;
    }
    util::Result<util::JsonValue> response = util::ParseJson(reply);
    if (!response) {
      out << "error: bad response: " << response.status().message() << "\n";
      ++failures;
      continue;
    }
    const util::JsonValue* ok = response->Find("ok");
    const util::JsonValue* output = response->Find("output");
    const util::JsonValue* error = response->Find("error");
    if (output != nullptr && output->is_string()) out << output->AsString();
    if (error != nullptr && error->is_string()) {
      out << "error: " << error->AsString() << "\n";
    }
    if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) ++failures;
  }
  close(fd);
  return failures > 0 ? 1 : 0;
}

}  // namespace svc::cli
