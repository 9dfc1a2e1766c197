#include "cli/interpreter.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/decision_log.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "svc/admission_pipeline.h"
#include "svc/allocator_registry.h"
#include "svc/snapshot.h"
#include "util/json_reader.h"
#include "util/strings.h"

namespace svc::cli {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token[0] == '#') break;  // comment to end of line
    tokens.push_back(token);
  }
  return tokens;
}

bool ParseDouble(const std::string& text, double& value) {
  try {
    size_t used = 0;
    value = std::stod(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

// Every integer argument is parsed here: the whole token must be a decimal
// integer within [lo, hi], so no value wraps or narrows on its way to a VM
// count, a vertex id or a tenant count.
bool ParseIntIn(const std::string& text, int64_t lo, int64_t hi,
                int64_t& value) {
  int64_t parsed = 0;
  try {
    size_t used = 0;
    parsed = std::stoll(text, &used);
    if (used != text.size()) return false;
  } catch (const std::exception&) {
    return false;
  }
  if (parsed < lo || parsed > hi) return false;
  value = parsed;
  return true;
}

constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();

// Tenant ids stay within ±(2^53 - 1), like svcd's NDJSON "id": state
// documents (svc/snapshot.h) carry them as JSON numbers.
bool ParseId(const std::string& text, int64_t& id) {
  return ParseIntIn(text, -util::kMaxSafeInteger, util::kMaxSafeInteger, id);
}

// A request holds its VM count as an int.
bool ParseVmCount(const std::string& text, int& n, std::ostream& out) {
  constexpr int64_t kMaxVmCount = std::numeric_limits<int>::max();
  int64_t value = 0;
  if (!ParseIntIn(text, 1, kMaxVmCount, value)) {
    out << "error: VM counts are integers in [1, " << kMaxVmCount << "]\n";
    return false;
  }
  n = static_cast<int>(value);
  return true;
}

std::string IdRangeError() {
  return "error: tenant ids must be integers in [-" +
         std::to_string(util::kMaxSafeInteger) + ", " +
         std::to_string(util::kMaxSafeInteger) + "]\n";
}

}  // namespace

Interpreter::Interpreter(const topology::Topology& topo, double epsilon)
    : manager_(topo, epsilon) {
  SelectAllocator("svc-dp");
}

Interpreter::~Interpreter() = default;

bool Interpreter::ParseVertex(const std::string& text,
                              topology::VertexId& vertex,
                              std::ostream& out) const {
  const int64_t last = manager_.topo().num_vertices() - 1;
  int64_t value = 0;
  if (!ParseIntIn(text, 0, last, value)) {
    out << "error: vertex ids are integers in [0, " << last << "]\n";
    return false;
  }
  vertex = static_cast<topology::VertexId>(value);
  return true;
}

bool Interpreter::SelectAllocator(const std::string& name) {
  auto it = allocators_.find(name);
  if (it == allocators_.end()) {
    std::unique_ptr<core::Allocator> built = core::MakeAllocatorByName(name);
    if (built == nullptr) return false;
    it = allocators_.emplace(name, std::move(built)).first;
  }
  current_allocator_ = it->second.get();
  current_allocator_name_ = name;
  return true;
}

bool Interpreter::CmdAdmit(const std::vector<std::string>& args,
                           std::ostream& out) {
  // admit <id> homogeneous <n> <mu> <sigma>
  // admit <id> deterministic <n> <B>
  // admit <id> heterogeneous <mu:sigma>...
  if (args.size() < 3) {
    out << "error: admit needs <id> <kind> ...\n";
    return false;
  }
  int64_t id = 0;
  if (!ParseId(args[1], id)) {
    out << IdRangeError();
    return false;
  }
  const std::string& kind = args[2];
  std::unique_ptr<core::Request> request;
  if (kind == "homogeneous" && args.size() == 6) {
    int n = 0;
    double mu, sigma;
    if (!ParseDouble(args[4], mu) || !ParseDouble(args[5], sigma)) {
      out << "error: admit homogeneous <n> <mu> <sigma>\n";
      return false;
    }
    if (!ParseVmCount(args[3], n, out)) return false;
    request = std::make_unique<core::Request>(
        core::Request::Homogeneous(id, n, mu, sigma));
  } else if (kind == "deterministic" && args.size() == 5) {
    int n = 0;
    double bandwidth;
    if (!ParseDouble(args[4], bandwidth)) {
      out << "error: admit deterministic <n> <B>\n";
      return false;
    }
    if (!ParseVmCount(args[3], n, out)) return false;
    request = std::make_unique<core::Request>(
        core::Request::Deterministic(id, n, bandwidth));
  } else if (kind == "heterogeneous" && args.size() >= 4) {
    std::vector<stats::Normal> demands;
    for (size_t i = 3; i < args.size(); ++i) {
      const auto parts = util::Split(args[i], ':');
      double mu, sigma;
      if (parts.size() != 2 || !ParseDouble(parts[0], mu) ||
          !ParseDouble(parts[1], sigma)) {
        out << "error: bad demand '" << args[i] << "' (want mu:sigma)\n";
        return false;
      }
      demands.push_back({mu, sigma * sigma});
    }
    request = std::make_unique<core::Request>(
        core::Request::Heterogeneous(id, std::move(demands)));
  } else {
    out << "error: unknown admit form\n";
    return false;
  }

  auto placement = manager_.Admit(*request, *current_allocator_);
  if (!placement) {
    out << "admit " << id << ": REJECTED (" << placement.status().ToText()
        << ")\n";
    return false;
  }
  out << "admit " << id << ": placed " << placement->Describe()
      << " max-occupancy " << placement->max_occupancy << "\n";
  return true;
}

bool Interpreter::CmdBatch(const std::vector<std::string>& args,
                           std::ostream& out) {
  // batch <count> <first-id> homogeneous <n> <mu> <sigma>
  // batch <count> <first-id> deterministic <n> <B>
  constexpr const char* kUsage =
      "error: batch <count> <first-id> homogeneous <n> <mu> <sigma> | "
      "deterministic <n> <B>\n";
  if (args.size() < 4) {
    out << kUsage;
    return false;
  }
  // The cap is checked before anything is reserved.
  int64_t count = 0, first_id = 0;
  if (!ParseIntIn(args[1], 1, kMaxBatchCount, count)) {
    out << "error: batch takes 1.." << kMaxBatchCount << " tenants\n";
    return false;
  }
  if (!ParseId(args[2], first_id) ||
      count - 1 > util::kMaxSafeInteger - first_id) {
    out << IdRangeError();
    return false;
  }
  const std::string& kind = args[3];
  std::vector<core::Request> requests;
  requests.reserve(count);
  if (kind == "homogeneous" && args.size() == 7) {
    int n = 0;
    double mu, sigma;
    if (!ParseDouble(args[5], mu) || !ParseDouble(args[6], sigma)) {
      out << kUsage;
      return false;
    }
    if (!ParseVmCount(args[4], n, out)) return false;
    for (int64_t i = 0; i < count; ++i) {
      requests.push_back(
          core::Request::Homogeneous(first_id + i, n, mu, sigma));
    }
  } else if (kind == "deterministic" && args.size() == 6) {
    int n = 0;
    double bandwidth;
    if (!ParseDouble(args[5], bandwidth)) {
      out << kUsage;
      return false;
    }
    if (!ParseVmCount(args[4], n, out)) return false;
    for (int64_t i = 0; i < count; ++i) {
      requests.push_back(
          core::Request::Deterministic(first_id + i, n, bandwidth));
    }
  } else {
    out << kUsage;
    return false;
  }

  core::AdmissionPipeline pipeline(manager_);
  pipeline.AdmitBatch(requests, *current_allocator_);
  const core::PipelineStats& stats = pipeline.stats();
  out << "batch: " << stats.committed << " admitted, " << stats.rejected
      << " rejected\n";
  return true;
}

bool Interpreter::CmdRelease(const std::vector<std::string>& args,
                             std::ostream& out) {
  int64_t id = 0;
  if (args.size() != 2 || !ParseId(args[1], id)) {
    out << "error: release <id>\n";
    return false;
  }
  if (!manager_.IsLive(id)) {
    out << "release " << id << ": not live (no-op)\n";
    return true;
  }
  manager_.Release(id);
  out << "release " << id << ": done\n";
  return true;
}

bool Interpreter::CmdShow(const std::vector<std::string>& args,
                          std::ostream& out) {
  if (args.size() < 2) {
    out << "error: show slots|occupancy|placement|tenants\n";
    return false;
  }
  const std::string& what = args[1];
  if (what == "slots") {
    out << "slots: " << manager_.slots().total_free() << " free of "
        << manager_.topo().total_slots() << "\n";
    return true;
  }
  if (what == "occupancy") {
    int64_t k = 5;
    if (args.size() >= 3 && !ParseIntIn(args[2], 0, kMaxInt64, k)) {
      out << "error: show occupancy [k]\n";
      return false;
    }
    std::vector<std::pair<double, topology::VertexId>> ranked;
    const auto& topo = manager_.topo();
    for (topology::VertexId v = 1; v < topo.num_vertices(); ++v) {
      ranked.emplace_back(manager_.ledger().Occupancy(v), v);
    }
    std::sort(ranked.rbegin(), ranked.rend());
    out << "occupancy (top " << k << "):";
    for (int64_t i = 0; i < k && i < static_cast<int64_t>(ranked.size());
         ++i) {
      out << " link" << ranked[i].second << "=" << ranked[i].first;
    }
    out << "\n";
    return true;
  }
  if (what == "placement") {
    int64_t id = 0;
    if (args.size() != 3 || !ParseId(args[2], id)) {
      out << "error: show placement <id>\n";
      return false;
    }
    const core::Placement* placement = manager_.placement_of(id);
    if (placement == nullptr) {
      out << "placement " << id << ": not live\n";
      return false;
    }
    out << "placement " << id << ": " << placement->Describe() << "\n";
    return true;
  }
  if (what == "tenants") {
    out << "tenants: " << manager_.live_count() << " live\n";
    return true;
  }
  out << "error: unknown show target '" << what << "'\n";
  return false;
}

bool Interpreter::CmdAssert(const std::vector<std::string>& args,
                            std::ostream& out) {
  if (args.size() >= 2 && args[1] == "valid") {
    if (manager_.StateValid()) {
      out << "assert valid: ok\n";
      return true;
    }
    out << "assert valid: FAILED — condition (4) violated\n";
    return false;
  }
  if (args.size() == 3 && args[1] == "live") {
    int64_t id = 0;
    if (!ParseId(args[2], id)) {
      out << "error: assert live <id>\n";
      return false;
    }
    if (manager_.IsLive(id)) {
      out << "assert live " << id << ": ok\n";
      return true;
    }
    out << "assert live " << id << ": FAILED\n";
    return false;
  }
  out << "error: assert valid | assert live <id>\n";
  return false;
}

bool Interpreter::CmdSnapshot(const std::vector<std::string>& args,
                              std::ostream& out) {
  if (args.size() != 3 || (args[1] != "save" && args[1] != "load")) {
    out << "error: snapshot save|load <file>\n";
    return false;
  }
  if (args[1] == "save") {
    const util::Status status = core::SaveSnapshotToFile(manager_, args[2]);
    if (!status.ok()) {
      out << "snapshot save: " << status.ToText() << "\n";
      return false;
    }
    out << "snapshot save: " << manager_.live_count() << " tenant(s) -> "
        << args[2] << "\n";
    return true;
  }
  const util::Status status =
      core::RestoreSnapshotFromFile(args[2], manager_);
  if (!status.ok()) {
    out << "snapshot load: " << status.ToText() << "\n";
    return false;
  }
  out << "snapshot load: " << manager_.live_count() << " tenant(s) restored\n";
  return true;
}

bool Interpreter::CmdMetrics(const std::vector<std::string>& args,
                             std::ostream& out) {
  if (args.size() != 1) {
    out << "error: metrics takes no arguments\n";
    return false;
  }
  if (!obs::MetricsEnabled()) {
    out << "metrics: collection disabled (svcctl enables it at startup; "
           "library embedders call obs::SetMetricsEnabled)\n";
    return true;
  }
  const obs::MetricsSnapshot snapshot = obs::Registry::Global().Collect();
  if (snapshot.counters.empty() && snapshot.gauges.empty() &&
      snapshot.histograms.empty()) {
    out << "metrics: registry empty\n";
    return true;
  }
  for (const auto& c : snapshot.counters) {
    out << "counter " << c.name << " = " << c.value << "\n";
  }
  for (const auto& g : snapshot.gauges) {
    out << "gauge " << g.name << " = " << g.value << "\n";
  }
  for (const auto& h : snapshot.histograms) {
    out << "histogram " << h.name << ": count=" << h.count
        << " p50=" << h.p50 << " p90=" << h.p90 << " p99=" << h.p99
        << " max=" << h.max << "\n";
  }
  return true;
}

bool Interpreter::CmdFail(const std::vector<std::string>& args,
                          std::ostream& out) {
  if (args.size() != 3 || (args[1] != "machine" && args[1] != "link")) {
    out << "error: fail machine|link <vertex>\n";
    return false;
  }
  topology::VertexId vertex = 0;
  if (!ParseVertex(args[2], vertex, out)) return false;
  const core::FaultKind kind = args[1] == "machine"
                                   ? core::FaultKind::kMachine
                                   : core::FaultKind::kLink;
  auto outcome =
      manager_.HandleFault(kind, vertex, recovery_policy_, *current_allocator_);
  if (!outcome) {
    out << "fail " << args[1] << " " << vertex << ": "
        << outcome.status().ToText() << "\n";
    return false;
  }
  out << "fail " << args[1] << " " << vertex << ": "
      << outcome->tenants.size() << " affected, " << outcome->recovered()
      << " recovered, " << outcome->evicted() << " evicted (policy "
      << core::ToString(recovery_policy_) << ")";
  for (const core::TenantOutcome& tenant : outcome->tenants) {
    if (!tenant.recovered) {
      out << " evict:" << tenant.id << ":"
          << core::ToString(tenant.evict_reason);
    }
  }
  out << "\n";
  return true;
}

bool Interpreter::CmdDrill(const std::vector<std::string>& args,
                           std::ostream& out) {
  // drill rack <vertex>: correlated failure drill — fail every machine
  // under the ToR (ascending id, like a rack power event), report how the
  // current policy fared, then recover everything.
  if (args.size() != 3 || args[1] != "rack") {
    out << "error: drill rack <vertex>\n";
    return false;
  }
  topology::VertexId vertex = 0;
  if (!ParseVertex(args[2], vertex, out)) return false;
  const auto& topo = manager_.topo();
  if (vertex == topo.root() || topo.is_machine(vertex)) {
    out << "error: drill rack needs a non-root switch vertex\n";
    return false;
  }
  std::vector<topology::VertexId> machines = topo.MachinesUnder(vertex);
  std::sort(machines.begin(), machines.end());
  int64_t affected = 0, switched = 0, reactive = 0, evicted = 0;
  std::vector<topology::VertexId> downed;
  for (topology::VertexId machine : machines) {
    auto outcome = manager_.HandleFault(core::FaultKind::kMachine, machine,
                                        recovery_policy_,
                                        *current_allocator_);
    if (!outcome) {
      out << "drill: machine " << machine << " skipped ("
          << outcome.status().ToText() << ")\n";
      continue;
    }
    downed.push_back(machine);
    affected += static_cast<int64_t>(outcome->tenants.size());
    for (const core::TenantOutcome& tenant : outcome->tenants) {
      if (!tenant.recovered) {
        ++evicted;
      } else if (tenant.switched_over) {
        ++switched;
      } else {
        ++reactive;
      }
    }
  }
  for (topology::VertexId machine : downed) {
    const util::Status status = manager_.HandleRecovery(machine);
    if (!status.ok()) {
      out << "drill: recover " << machine << " failed ("
          << status.ToText() << ")\n";
    }
  }
  out << "drill rack " << vertex << ": " << downed.size() << " machine(s) "
      << "failed, " << affected << " tenant-fault(s), " << switched
      << " switchover, " << reactive << " reactive, " << evicted
      << " evicted (policy " << core::ToString(recovery_policy_)
      << "), state " << (manager_.StateValid() ? "valid" : "INVALID")
      << "\n";
  return manager_.StateValid();
}

bool Interpreter::CmdDrain(const std::vector<std::string>& args,
                           std::ostream& out) {
  // drain <machine>: outage-free planned drain — cordon the machine and
  // migrate its tenants off (backup switchover preferred).  The machine
  // stays cordoned; `uncordon` reopens it, `fail machine` takes it down.
  if (args.size() != 2) {
    out << "error: drain <machine>\n";
    return false;
  }
  topology::VertexId vertex = 0;
  if (!ParseVertex(args[1], vertex, out)) return false;
  auto outcome = manager_.DrainMachine(vertex, *current_allocator_);
  if (!outcome) {
    out << "drain " << vertex << ": " << outcome.status().ToText() << "\n";
    return false;
  }
  int64_t stranded = 0;
  for (const core::TenantOutcome& tenant : outcome->tenants) {
    if (!tenant.recovered) ++stranded;
  }
  out << "drain " << vertex << ": " << outcome->tenants.size()
      << " affected, " << outcome->recovered() << " migrated ("
      << outcome->switched() << " via backup), " << stranded
      << " stranded in place; machine cordoned\n";
  return stranded == 0;
}

bool Interpreter::CmdUncordon(const std::vector<std::string>& args,
                              std::ostream& out) {
  if (args.size() != 2) {
    out << "error: uncordon <machine>\n";
    return false;
  }
  topology::VertexId vertex = 0;
  if (!ParseVertex(args[1], vertex, out)) return false;
  const util::Status status = manager_.UncordonMachine(vertex);
  if (!status.ok()) {
    out << "uncordon " << vertex << ": " << status.ToText() << "\n";
    return false;
  }
  out << "uncordon " << vertex << ": open\n";
  return true;
}

bool Interpreter::CmdRecover(const std::vector<std::string>& args,
                             std::ostream& out) {
  if (args.size() != 2) {
    out << "error: recover <vertex>\n";
    return false;
  }
  topology::VertexId vertex = 0;
  if (!ParseVertex(args[1], vertex, out)) return false;
  const util::Status status = manager_.HandleRecovery(vertex);
  if (!status.ok()) {
    out << "recover " << vertex << ": " << status.ToText() << "\n";
    return false;
  }
  out << "recover " << vertex << ": done\n";
  return true;
}

bool Interpreter::CmdFaults(const std::vector<std::string>& args,
                            std::ostream& out) {
  if (args.size() != 1) {
    out << "error: faults takes no arguments\n";
    return false;
  }
  if (manager_.Faults().empty()) {
    out << "faults: none\n";
    return true;
  }
  out << "faults:";
  for (const auto& [vertex, kind] : manager_.Faults()) {
    out << " " << (kind == core::FaultKind::kMachine ? "machine" : "link")
        << ":" << vertex;
  }
  out << "\n";
  return true;
}

bool Interpreter::CmdHealth(const std::vector<std::string>& args,
                            std::ostream& out) {
  if (args.size() != 1) {
    out << "error: health takes no arguments\n";
    return false;
  }
  out << "health: " << manager_.live_count() << " tenant(s) live, "
      << manager_.slots().total_free() << "/" << manager_.topo().total_slots()
      << " slots free, max-occupancy " << manager_.MaxOccupancy()
      << ", faults " << manager_.Faults().size() << ", decisions "
      << obs::DecisionCount() << ", flight-bundles "
      << obs::FlightRecorder::Global().bundles_written() << ", state "
      << (manager_.StateValid() ? "valid" : "INVALID") << "\n";
  // Prometheus-style exposition of the metrics registry so far.
  if (obs::MetricsEnabled()) out << obs::ExportPrometheus();
  return manager_.StateValid();
}

bool Interpreter::CmdTail(const std::vector<std::string>& args,
                          std::ostream& out) {
  int64_t n = 10;
  if (args.size() > 2 ||
      (args.size() == 2 && !ParseIntIn(args[1], 1, kMaxInt64, n))) {
    out << "error: tail [n]\n";
    return false;
  }
  if (!obs::DecisionsEnabled()) {
    out << "tail: decision logging disabled (svcctl enables it at startup; "
           "library embedders call obs::SetDecisionsEnabled)\n";
    return true;
  }
  const std::vector<obs::DecisionRecord> decisions = obs::CollectDecisions();
  if (decisions.empty()) {
    out << "tail: no decisions recorded\n";
    return true;
  }
  const size_t start = decisions.size() > static_cast<size_t>(n)
                           ? decisions.size() - static_cast<size_t>(n)
                           : 0;
  for (size_t i = start; i < decisions.size(); ++i) {
    out << obs::FormatDecision(decisions[i]) << "\n";
  }
  return true;
}

bool Interpreter::CmdExplain(const std::vector<std::string>& args,
                             std::ostream& out) {
  int64_t id = 0;
  if (args.size() != 2 || !ParseId(args[1], id)) {
    out << "error: explain <tenant>\n";
    return false;
  }
  obs::DecisionRecord record;
  if (!obs::FindDecision(id, &record)) {
    out << "explain " << id << ": no decision recorded (ring may have "
        << "wrapped, or decision logging was off)\n";
    return false;
  }
  out << "explain " << obs::FormatDecision(record) << "\n";
  return true;
}

bool Interpreter::Execute(const std::string& line, std::ostream& out) {
  const std::vector<std::string> args = Tokenize(line);
  if (args.empty()) return true;  // blank / comment
  const std::string& command = args[0];
  if (command == "admit") return CmdAdmit(args, out);
  if (command == "batch") return CmdBatch(args, out);
  if (command == "release") return CmdRelease(args, out);
  if (command == "show") return CmdShow(args, out);
  if (command == "assert") return CmdAssert(args, out);
  if (command == "snapshot") return CmdSnapshot(args, out);
  if (command == "metrics") return CmdMetrics(args, out);
  if (command == "fail") return CmdFail(args, out);
  if (command == "recover") return CmdRecover(args, out);
  if (command == "drain") return CmdDrain(args, out);
  if (command == "uncordon") return CmdUncordon(args, out);
  if (command == "drill") return CmdDrill(args, out);
  if (command == "faults") return CmdFaults(args, out);
  if (command == "health") return CmdHealth(args, out);
  if (command == "tail") return CmdTail(args, out);
  if (command == "explain") return CmdExplain(args, out);
  if (command == "policy") {
    core::RecoveryPolicy policy;
    if (args.size() != 2 || !core::ParseRecoveryPolicy(args[1], &policy)) {
      out << "error: policy reallocate|patch|evict|switchover\n";
      return false;
    }
    recovery_policy_ = policy;
    out << "policy: " << args[1] << "\n";
    return true;
  }
  if (command == "survivable") {
    if (args.size() != 2 || (args[1] != "on" && args[1] != "off")) {
      out << "error: survivable on|off\n";
      return false;
    }
    core::AdmissionOptions options = manager_.admission_options();
    options.survivability = args[1] == "on";
    manager_.set_admission_options(options);
    out << "survivable: " << args[1] << "\n";
    return true;
  }
  if (command == "allocator") {
    if (args.size() != 2 || !SelectAllocator(args[1])) {
      out << "error: unknown allocator\n";
      return false;
    }
    out << "allocator: " << args[1] << "\n";
    return true;
  }
  out << "error: unknown command '" << command << "'\n";
  return false;
}

int Interpreter::Run(std::istream& in, std::ostream& out) {
  int failures = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!Execute(line, out)) ++failures;
  }
  return failures;
}

}  // namespace svc::cli
