// Survivable admission (docs/ROBUSTNESS.md "Survivability"): backup slot
// groups with shared backup bandwidth, after "Survivable and
// Bandwidth-Guaranteed Embedding of Virtual Clusters" (arxiv 1612.06507).
//
// A survivable placement reserves, besides its primary slots, a backup
// group of `backup_slots` slots on `backup_machine` sized to absorb the
// largest per-machine VM group.  For every primary machine f (a failure
// domain) the post-failure placement is "f's VMs moved onto the backup
// machine"; the bandwidth that placement needs BEYOND the primary
// reservation is recorded per link as a domain-tagged backup demand.  The
// ledger holds those per-domain and enforces condition (4) on the worst
// post-failure state of each link, so backups protecting disjoint domains
// share headroom instead of summing.
#pragma once

#include <vector>

#include "net/link_ledger.h"
#include "svc/manager.h"
#include "svc/placement.h"
#include "svc/request.h"
#include "svc/slot_map.h"
#include "topology/topology.h"
#include "util/result.h"

namespace svc::core {

// Per-link demands of `placement`: the primary rows (domain == kNoVertex,
// exactly what the non-survivable computation produces, in the same order)
// followed by, when the placement is survivable, one row per (link, domain)
// whose post-failure demand exceeds the primary reservation there.  Deltas
// are clamped at zero per moment — where a failure *reduces* a link's load
// the reservation simply stays at the primary level (conservative).
// Depends only on (topology, request, placement), never on ledger state.
std::vector<LinkDemand> ComputeSurvivableLinkDemands(
    const topology::Topology& topo, const Request& request,
    const Placement& placement);

// Condition (4) over a survivable demand set: each primary row must hold in
// every state of its link (the ledger's worst-case kernel), and each backup
// row must hold in its own domain's post-failure state combined with the
// primary row landing on the same link.
util::Status CheckSurvivableCapacity(const net::LinkLedger& ledger,
                                     const std::vector<LinkDemand>& demands);

// Chooses the backup group for an already-placed request: the non-primary
// up machine with enough free slots for the largest primary VM group that
// minimizes the worst post-failure occupancy over the induced demand links
// (lowest machine id breaks ties, so the choice is deterministic).  The
// search shares per-subtree score terms across candidates and stops early
// (docs/ROBUSTNESS.md "Survivability"), yet chooses exactly what scoring
// every candidate's rows would.  Returns the placement with
// backup_machine/backup_slots set, or kInfeasible when no machine can host
// a valid backup.  Reads only the given books — safe against snapshots
// from any thread.
util::Result<Placement> PlanBackup(const topology::Topology& topo,
                                   const Request& request, Placement placement,
                                   const net::LinkLedger& ledger,
                                   const SlotMap& slots);

}  // namespace svc::core
