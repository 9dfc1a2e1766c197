// A manager holding protected tenants of every request kind plus one
// unprotected tenant: the round trip in snapshot_test.cc and the seed
// document of the restore fuzz target in scenario_fuzz_test.cc.
#pragma once

#include "svc/hetero_heuristic.h"
#include "svc/homogeneous_search.h"
#include "svc/manager.h"
#include "topology/builders.h"

namespace svc::core {

// Eight 4-slot machines in two racks.
inline topology::Topology ProtectedTenantsTopo() {
  return topology::BuildTwoTier(2, 4, 4, 1000, 2.0);
}

// With survivability on, admits homogeneous tenant 1, heterogeneous
// tenant 2 and deterministic tenant 3; then, with it off, tenant 4.
// Leaves survivability off.  False if any admission fails.
inline bool AdmitProtectedTenants(NetworkManager& manager) {
  const HomogeneousDpAllocator dp;
  const HeteroHeuristicAllocator heuristic;
  AdmissionOptions options;
  options.survivability = true;
  manager.set_admission_options(options);
  const bool admitted =
      manager.Admit(Request::Homogeneous(1, 5, 100, 40), dp).ok() &&
      manager
          .Admit(Request::Heterogeneous(2, {{120, 900}, {60, 400}, {30, 25}}),
                 heuristic)
          .ok() &&
      manager.Admit(Request::Deterministic(3, 4, 80), dp).ok();
  manager.set_admission_options({});
  return admitted &&
         manager.Admit(Request::Homogeneous(4, 3, 60, 20), dp).ok();
}

}  // namespace svc::core
