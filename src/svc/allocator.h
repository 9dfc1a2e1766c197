// VM-allocator interface.
//
// An allocator maps a tenant request onto empty VM slots such that every
// physical link still satisfies the probabilistic guarantee (condition 4).
// Allocators are stateless with respect to the datacenter: they read the
// LinkLedger and SlotMap and return a Placement; committing the placement
// (slots + per-link demand records) is the NetworkManager's job, which keeps
// admission atomic and lets callers evaluate placements without mutating
// shared state.
#pragma once

#include <string_view>

#include "net/link_ledger.h"
#include "svc/placement.h"
#include "svc/request.h"
#include "svc/slot_map.h"
#include "util/result.h"

namespace svc::core {

class Allocator {
 public:
  virtual ~Allocator() = default;

  // Short stable identifier ("svc-dp", "tivc-adapted", ...), used in bench
  // output and logs.
  virtual std::string_view name() const = 0;

  // Finds a valid placement or an error:
  //   kInvalidArgument — request shape unsupported by this allocator
  //   kCapacity        — fewer free slots than requested VMs
  //   kInfeasible      — slots exist but no placement satisfies (4)
  virtual util::Result<Placement> Allocate(const Request& request,
                                           const net::LinkLedger& ledger,
                                           const SlotMap& slots) const = 0;

  // True when this allocator's rejections are monotone in datacenter load:
  // if Allocate rejects a request against some books, it also rejects it
  // against any superset of those books (same tenants plus more).  Complete
  // searches have this property for free — adding load only shrinks the
  // feasible set, so an empty feasible set stays empty.  Greedy heuristics
  // generally do NOT: a fuller fabric changes the greedy path, which can
  // (pathologically) rescue a request the emptier fabric rejected.
  //
  // No code under src/ reads this or monotone_placements(): admission is a
  // serial loop of Admit, so no decision is ever taken against stale books.
  // Both stay because perfbench/src/timed_allocator.h overrides them, and
  // the allocators that declare them keep the declarations true.
  virtual bool monotone_rejections() const { return false; }

  // True when this allocator's CHOSEN placement is stable under added load
  // outside the links it read for that choice: the selection is first-best
  // (ties keep the earliest candidate in a fixed scan order) over scores
  // that are monotone non-improving in datacenter load, so a candidate that
  // lost can only lose harder once more tenants commit.  When in doubt,
  // leave the default.
  virtual bool monotone_placements() const { return false; }
};

}  // namespace svc::core
