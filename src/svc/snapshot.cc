#include "svc/snapshot.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace svc::core {
namespace {

// The standalone snapshot document.
struct Snapshot {
  std::vector<TenantRecord> tenants;
};

const util::Fields<Snapshot>& SnapshotFields() {
  static const auto* fields = new util::Fields<Snapshot>{
      util::Objects("tenants", &Snapshot::tenants, TenantFields()),
  };
  return *fields;
}

std::string At(const std::string& path, size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

// The field table's checks plus those that relate fields: ids strictly
// increasing, moment lists of one entry or one per VM, and a backup
// machine exactly when there are backup slots.
util::Status CheckTenants(const std::vector<TenantRecord>& tenants,
                          const std::string& path) {
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantRecord& t = tenants[i];
    const std::string at = At(path, i);
    if (util::Status s = util::CheckFields(TenantFields(), t, at); !s.ok()) {
      return s;
    }
    if (i > 0 && t.id <= tenants[i - 1].id) {
      return util::FieldError(at + ".id",
                              "must exceed the previous tenant's id " +
                                  std::to_string(tenants[i - 1].id));
    }
    if (t.mean.size() != 1 && t.mean.size() != t.place.size()) {
      return util::FieldError(
          at + ".mean", "has " + std::to_string(t.mean.size()) +
                            " entries; want 1 or len(place) = " +
                            std::to_string(t.place.size()));
    }
    if (t.variance.size() != t.mean.size()) {
      return util::FieldError(
          at + ".variance", "has " + std::to_string(t.variance.size()) +
                                " entries; want len(mean) = " +
                                std::to_string(t.mean.size()));
    }
    if ((t.backup_machine == topology::kNoVertex) != (t.backup_slots == 0)) {
      return util::FieldError(
          at + ".backup_slots",
          "must be 0 exactly when backup_machine is -1 (no backup group)");
    }
  }
  return util::Status::Ok();
}

// A machine of `manager`'s topology that is up (neither failed nor
// cordoned).
util::Status CheckHost(const NetworkManager& manager, const TenantRecord& t,
                       topology::VertexId machine, const std::string& at) {
  const topology::Topology& topo = manager.topo();
  if (machine < 0 || machine >= topo.num_vertices() ||
      !topo.is_machine(machine)) {
    return util::FieldError(
        at, "tenant " + std::to_string(t.id) + " names vertex " +
                std::to_string(machine) +
                ", not a machine of the target topology");
  }
  // Restoring onto a down element would re-strand the tenant the moment
  // the datacenter resumes; AdmitPlacement would reject it too (0 free
  // slots), but with a generic capacity error.
  if (!manager.slots().machine_up(machine)) {
    return util::FieldError(at, "tenant " + std::to_string(t.id) +
                                    " lands on currently-failed or "
                                    "cordoned machine " +
                                    std::to_string(machine));
  }
  return util::Status::Ok();
}

}  // namespace

const util::Fields<TenantRecord>& TenantFields() {
  using T = TenantRecord;
  using util::Range;
  // Moments are finite and non-negative: JSON has no spelling for inf or
  // NaN.
  static const auto* fields = new util::Fields<T>{
      util::Number("id", &T::id),
      util::List("mean", &T::mean, Range::ClosedOpen(0, Range::kInf),
                 /*non_empty=*/true),
      util::List("variance", &T::variance, Range::ClosedOpen(0, Range::kInf),
                 /*non_empty=*/true),
      util::List("place", &T::place, Range::AtLeast(1), /*non_empty=*/true),
      util::Number("backup_machine", &T::backup_machine,
                   Range::AtLeast(topology::kNoVertex)),
      util::Number("backup_slots", &T::backup_slots, Range::AtLeast(0)),
  };
  return *fields;
}

util::Result<std::vector<TenantRecord>> CaptureTenants(
    const NetworkManager& manager, const std::string& path) {
  std::vector<TenantRecord> tenants;
  tenants.reserve(manager.live_count());
  manager.ForEachLive([&](const Request& request, const Placement& placement) {
    TenantRecord t;
    t.id = request.id();
    for (int i = 0; i < (request.homogeneous() ? 1 : request.n()); ++i) {
      t.mean.push_back(request.demand(i).mean);
      t.variance.push_back(request.demand(i).variance);
    }
    t.place = placement.vm_machine;
    t.backup_machine = placement.backup_machine;
    t.backup_slots = placement.backup_slots;
    tenants.push_back(std::move(t));
  });
  std::sort(tenants.begin(), tenants.end(),
            [](const TenantRecord& a, const TenantRecord& b) {
              return a.id < b.id;
            });
  if (util::Status s = CheckTenants(tenants, path); !s.ok()) return s;
  return tenants;
}

util::Status RestoreTenants(const std::vector<TenantRecord>& tenants,
                            const std::string& path,
                            NetworkManager& manager) {
  if (manager.live_count() != 0) {
    return {util::ErrorCode::kFailedPrecondition,
            "restore target must have no live tenants"};
  }
  // The whole document is checked before anything is admitted.
  if (util::Status s = CheckTenants(tenants, path); !s.ok()) return s;
  const int total_slots = manager.topo().total_slots();
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantRecord& t = tenants[i];
    const std::string at = At(path, i);
    // Also keeps the VM count within the int a Request holds.
    if (t.place.size() > static_cast<size_t>(total_slots)) {
      return util::FieldError(
          at + ".place", "tenant " + std::to_string(t.id) + " has " +
                             std::to_string(t.place.size()) +
                             " VMs but the datacenter has " +
                             std::to_string(total_slots) + " slots");
    }
    for (size_t vm = 0; vm < t.place.size(); ++vm) {
      if (util::Status s =
              CheckHost(manager, t, t.place[vm], At(at + ".place", vm));
          !s.ok()) {
        return s;
      }
    }
    if (t.backup_machine != topology::kNoVertex) {
      if (util::Status s = CheckHost(manager, t, t.backup_machine,
                                     at + ".backup_machine");
          !s.ok()) {
        return s;
      }
    }
  }

  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantRecord& t = tenants[i];
    std::vector<stats::Normal> demands;
    for (size_t k = 0; k < t.mean.size(); ++k) {
      demands.push_back({t.mean[k], t.variance[k]});
    }
    const Request request = Request::FromMoments(
        t.id, static_cast<int>(t.place.size()), std::move(demands));
    Placement placement;
    placement.vm_machine = t.place;
    placement.subtree_root = manager.topo().LowestCommonAncestor(t.place);
    placement.backup_machine = t.backup_machine;
    placement.backup_slots = t.backup_slots;
    util::Result<Placement> admitted =
        manager.AdmitPlacement(request, std::move(placement));
    if (!admitted) {
      // All or nothing: roll back every tenant restored so far.
      for (size_t k = 0; k < i; ++k) manager.Release(tenants[k].id);
      return util::FieldError(At(path, i),
                              "tenant " + std::to_string(t.id) +
                                  " does not fit the target datacenter: " +
                                  admitted.status().ToText());
    }
  }
  return util::Status::Ok();
}

util::Status SaveSnapshot(const NetworkManager& manager, std::ostream& out) {
  util::Result<std::vector<TenantRecord>> tenants =
      CaptureTenants(manager, "snapshot.tenants");
  if (!tenants) return tenants.status();
  const Snapshot snapshot{std::move(*tenants)};
  util::JsonWriter w;
  util::WriteFields(SnapshotFields(), snapshot, w);
  out << w.str() << "\n";
  return util::Status::Ok();
}

util::Status RestoreSnapshot(std::istream& in, NetworkManager& manager) {
  std::ostringstream text;
  text << in.rdbuf();
  Snapshot snapshot;
  if (util::Status s = util::ParseFields(SnapshotFields(), text.str(),
                                         "snapshot", &snapshot);
      !s.ok()) {
    return s;
  }
  return RestoreTenants(snapshot.tenants, "snapshot.tenants", manager);
}

util::Status SaveSnapshotToFile(const NetworkManager& manager,
                                const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return {util::ErrorCode::kInvalidArgument, "cannot open " + path};
  }
  if (util::Status saved = SaveSnapshot(manager, out); !saved.ok()) {
    return saved;
  }
  out.flush();
  if (!out) {
    return {util::ErrorCode::kInvalidArgument, "write failed: " + path};
  }
  return util::Status::Ok();
}

util::Status RestoreSnapshotFromFile(const std::string& path,
                                     NetworkManager& manager) {
  std::ifstream in(path);
  if (!in) {
    return {util::ErrorCode::kNotFound, "cannot open " + path};
  }
  return RestoreSnapshot(in, manager);
}

}  // namespace svc::core
