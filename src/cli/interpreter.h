// Command interpreter behind the `svcctl` tool: a scriptable network
// manager.  Operators (or tests) drive admission control with a simple
// line-oriented language:
//
//   # comments and blank lines are ignored
//   admit 1 homogeneous 10 200 120      # <id> <N> <mu> <sigma>
//   admit 2 deterministic 6 150         # <id> <N> <B>
//   admit 3 heterogeneous 300:150 20:5  # <id> <mu:sigma>...
//   batch 50 10 homogeneous 8 200 120   # <count> <first-id> <kind args>:
//                                       #   admit `count` identical tenants
//                                       #   with ids first-id, first-id+1..
//                                       #   one after another
//   release 1
//   show slots                          # free/total VM slots
//   show occupancy [k]                  # k worst links (default 5)
//   show placement 2
//   show tenants
//   assert valid                        # fail unless condition (4) holds
//   assert live 2                       # fail unless tenant 2 is admitted
//   allocator svc-dp                    # switch placement algorithm
//   policy reallocate|patch|evict|switchover  # recovery policy for faults
//   survivable on|off                   # survivable admission (backups)
//   fail machine 7                      # failure drill: take machine down
//   fail link 3                         # drain the uplink of vertex 3
//   recover 7                           # bring a failed element back
//   drain 7                             # planned drain: cordon machine 7
//                                       #   and migrate its tenants off
//                                       #   (backup switchover preferred)
//   uncordon 7                          # reopen a drained machine
//   drill rack 2                        # correlated drill: fail every
//                                       #   machine under the ToR, report
//                                       #   switchover vs reactive vs
//                                       #   evicted, then recover all
//   faults                              # list currently-failed elements
//   metrics                             # dump the obs metrics registry
//   health                              # one-line summary + Prometheus
//                                       #   exposition of the registry
//   tail [n]                            # last n decision records (def. 10)
//   explain 2                           # newest decision record for the
//                                       #   tenant: outcome, commit path,
//                                       #   binding links with (4)-slack
//   snapshot save state.json            # live tenants, placements and
//                                       #   backup groups as JSON
//                                       #   (svc/snapshot.h)
//   snapshot load state.json            # replay into an empty manager
//
// Tenant ids are integers within ±(2^53 - 1), so a snapshot's JSON
// numbers carry them exactly; every command refuses any other id.  The
// other integer arguments are range-checked the same way before use: VM
// counts fit in an int, vertex ids lie within the fabric, and `batch` takes
// at most kMaxBatchCount tenants.  An out-of-range argument is an error
// that changes no state.
// Each command writes a one-line result to the output stream; errors are
// reported per line (the interpreter keeps going) and counted.  Exit
// status of `svcctl` is nonzero if any command failed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "svc/allocator.h"
#include "svc/manager.h"

namespace svc::cli {

class Interpreter {
 public:
  // `batch` cap, checked before anything is reserved.
  static constexpr int64_t kMaxBatchCount = 100'000;

  // Borrows the topology (must outlive the interpreter).
  Interpreter(const topology::Topology& topo, double epsilon);
  ~Interpreter();

  // Executes one command line; returns false if the command failed
  // (parse error or failed assertion/admission).  Output (including error
  // text) goes to `out`.
  bool Execute(const std::string& line, std::ostream& out);

  // Runs a whole script; returns the number of failed lines.
  int Run(std::istream& in, std::ostream& out);

  // Selects the allocator by name (core::MakeAllocatorByName — see
  // svc/allocator_registry.h for the known names); returns false for
  // unknown names.  Instances are built on first use and cached.
  bool SelectAllocator(const std::string& name);

  const core::NetworkManager& manager() const { return manager_; }
  core::NetworkManager& manager() { return manager_; }
  const std::string& allocator_name() const {
    return current_allocator_name_;
  }
  const core::Allocator& allocator() const { return *current_allocator_; }
  core::RecoveryPolicy recovery_policy() const { return recovery_policy_; }

 private:
  bool CmdAdmit(const std::vector<std::string>& args, std::ostream& out);
  bool CmdBatch(const std::vector<std::string>& args, std::ostream& out);
  bool CmdRelease(const std::vector<std::string>& args, std::ostream& out);
  bool CmdShow(const std::vector<std::string>& args, std::ostream& out);
  bool CmdAssert(const std::vector<std::string>& args, std::ostream& out);
  bool CmdSnapshot(const std::vector<std::string>& args, std::ostream& out);
  bool CmdMetrics(const std::vector<std::string>& args, std::ostream& out);
  bool CmdFail(const std::vector<std::string>& args, std::ostream& out);
  bool CmdRecover(const std::vector<std::string>& args, std::ostream& out);
  bool CmdDrain(const std::vector<std::string>& args, std::ostream& out);
  bool CmdUncordon(const std::vector<std::string>& args, std::ostream& out);
  bool CmdDrill(const std::vector<std::string>& args, std::ostream& out);
  bool CmdFaults(const std::vector<std::string>& args, std::ostream& out);
  bool CmdHealth(const std::vector<std::string>& args, std::ostream& out);
  bool CmdTail(const std::vector<std::string>& args, std::ostream& out);
  bool CmdExplain(const std::vector<std::string>& args, std::ostream& out);
  // Parses a vertex id within the fabric; writes the error otherwise.
  bool ParseVertex(const std::string& text, topology::VertexId& vertex,
                   std::ostream& out) const;

  core::NetworkManager manager_;
  std::map<std::string, std::unique_ptr<core::Allocator>> allocators_;
  core::Allocator* current_allocator_;  // points into allocators_
  std::string current_allocator_name_;
  core::RecoveryPolicy recovery_policy_ = core::RecoveryPolicy::kReallocate;
};

}  // namespace svc::cli
