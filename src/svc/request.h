// Tenant request types: the Stochastic Virtual Cluster abstraction.
//
// An SVC request is <N, (mu_1, sigma_1), ..., (mu_N, sigma_N)>: N VMs hang
// off a virtual switch, VM i's bandwidth demand is N(mu_i, sigma_i^2).  The
// deterministic virtual cluster of Oktopus <N, B> is the special case
// sigma_i = 0 for all i, and (paper Section III-A) both kinds coexist in the
// same datacenter: deterministic requests are enforced by rate limiting and
// occupy the D_L share of every link, stochastic requests share the residual
// S_L statistically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/link_ledger.h"
#include "stats/normal.h"
#include "util/result.h"

namespace svc::core {

using net::RequestId;

class Request {
 public:
  // Homogeneous SVC <N, mu, sigma>: all VMs i.i.d. N(mu, sigma^2).
  static Request Homogeneous(RequestId id, int n, double mean, double stddev);

  // Deterministic VC <N, B> (Oktopus): rate-limited to B per VM.
  static Request Deterministic(RequestId id, int n, double bandwidth);

  // Heterogeneous SVC with per-VM distributions (size defines N).
  static Request Heterogeneous(RequestId id,
                               std::vector<stats::Normal> demands);

  // N = n VMs with the moments exactly as given: one entry in `demands`
  // for a homogeneous request, n otherwise (snapshot restore).
  static Request FromMoments(RequestId id, int n,
                             std::vector<stats::Normal> demands);

  RequestId id() const { return id_; }
  int n() const { return n_; }

  // True if all VMs share one distribution (demand(i) identical).
  bool homogeneous() const { return demands_.size() == 1; }

  // True if every VM's demand has zero variance; such requests are enforced
  // by rate limiting and reserve deterministic bandwidth.
  bool deterministic() const { return deterministic_; }

  // Distribution of VM i's bandwidth demand.
  const stats::Normal& demand(int i) const {
    return homogeneous() ? demands_[0] : demands_[i];
  }

  // Sum of all VMs' means / variances (used for split aggregates).
  double total_mean() const { return total_mean_; }
  double total_variance() const { return total_variance_; }

  // Validation for externally supplied requests (examples / workload files):
  // rejects non-positive N, negative moments.
  util::Status Validate() const;

  std::string Describe() const;

 private:
  Request(RequestId id, int n, std::vector<stats::Normal> demands);

  RequestId id_;
  int n_;
  std::vector<stats::Normal> demands_;  // size 1 (homogeneous) or n_
  double total_mean_ = 0;
  double total_variance_ = 0;
  bool deterministic_ = false;
};

}  // namespace svc::core
