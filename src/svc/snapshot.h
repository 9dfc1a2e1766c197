// Network-manager state snapshots.
//
// The paper's network manager maintains "the up-to-date status of the
// datacenter network"; a production deployment must survive restarts of
// that (logically centralized) component.  A snapshot is the minimal
// ground truth — each live tenant's demand moments, placement and backup
// group — from which every derived structure (slot map, per-link primary
// and shared-backup records, running sums) is rebuilt by replaying
// AdmitPlacement.  Restore therefore re-validates everything: a snapshot
// that does not fit the target topology, or that violates condition (4)
// under the target epsilon, is rejected.
//
// What comes back is the tenants, their placements and their backup
// groups.  The per-link sums are added up again in id order, so after any
// release their low-order bits can differ from the live manager's, and
// later decisions can diverge on those bits.
//
// The document is JSON, read, written and range-checked through one field
// table (util/json_fields.h), tenants in strictly increasing id:
//
//   {"tenants":[
//     {"id":7,"mean":[200],"variance":[14400],"place":[3,3,4,4],
//      "backup_machine":5,"backup_slots":2},
//     {"id":9,"mean":[300,20],"variance":[22500,25],"place":[3,4],
//      "backup_machine":-1,"backup_slots":0}]}
//
// `mean` and `variance` hold one entry for a homogeneous request and one
// per VM otherwise; the VM count is the length of `place`.  An unprotected
// tenant has backup_machine -1 and backup_slots 0.  svcd's checkpoint
// (cli/daemon.h) embeds the same records as its "tenants" member.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "svc/manager.h"
#include "util/json_fields.h"
#include "util/result.h"

namespace svc::core {

// One live tenant: its request moments, placement and backup group.
struct TenantRecord {
  int64_t id = 0;
  std::vector<double> mean;
  std::vector<double> variance;
  std::vector<topology::VertexId> place;  // machine of VM 0..n-1
  topology::VertexId backup_machine = topology::kNoVertex;
  int backup_slots = 0;
};

const util::Fields<TenantRecord>& TenantFields();

// The manager's live tenants in increasing id, checked as the reader
// checks them (so whatever this returns restores).  `path` names the list
// in error messages.
util::Result<std::vector<TenantRecord>> CaptureTenants(
    const NetworkManager& manager, const std::string& path);

// Checks all of `tenants` (read from `path`, e.g. "checkpoint.tenants")
// against the field table, each other and the target, then replays them
// into `manager`, which must have no live tenants.  No VM and no backup
// group may sit on a machine that is currently down.  On any error nothing
// is restored (the manager is rolled back to empty); the message names the
// JSON path.
util::Status RestoreTenants(const std::vector<TenantRecord>& tenants,
                            const std::string& path, NetworkManager& manager);

// The whole document ({"tenants": [...]}) on a stream; errors name paths
// under "snapshot".  Nothing is written on refusal.
util::Status SaveSnapshot(const NetworkManager& manager, std::ostream& out);
util::Status RestoreSnapshot(std::istream& in, NetworkManager& manager);

// File convenience wrappers.
util::Status SaveSnapshotToFile(const NetworkManager& manager,
                                const std::string& path);
util::Status RestoreSnapshotFromFile(const std::string& path,
                                     NetworkManager& manager);

}  // namespace svc::core
