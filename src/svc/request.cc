#include "svc/request.h"

#include <cassert>
#include <sstream>

namespace svc::core {

Request::Request(RequestId id, int n, std::vector<stats::Normal> demands)
    : id_(id), n_(n), demands_(std::move(demands)) {
  assert(n_ >= 1);
  assert(demands_.size() == 1 || static_cast<int>(demands_.size()) == n_);
  deterministic_ = true;
  for (const auto& d : demands_) {
    if (d.variance > 0) deterministic_ = false;
  }
  if (demands_.size() == 1) {
    total_mean_ = demands_[0].mean * n_;
    total_variance_ = demands_[0].variance * n_;
  } else {
    for (const auto& d : demands_) {
      total_mean_ += d.mean;
      total_variance_ += d.variance;
    }
  }
}

Request Request::Homogeneous(RequestId id, int n, double mean,
                             double stddev) {
  return Request(id, n, {stats::Normal{mean, stddev * stddev}});
}

Request Request::Deterministic(RequestId id, int n, double bandwidth) {
  return Request(id, n, {stats::Normal{bandwidth, 0.0}});
}

Request Request::Heterogeneous(RequestId id,
                               std::vector<stats::Normal> demands) {
  const int n = static_cast<int>(demands.size());
  return Request(id, n, std::move(demands));
}

Request Request::FromMoments(RequestId id, int n,
                             std::vector<stats::Normal> demands) {
  return Request(id, n, std::move(demands));
}

util::Status Request::Validate() const {
  if (n_ < 1) {
    return {util::ErrorCode::kInvalidArgument, "request needs at least 1 VM"};
  }
  for (const auto& d : demands_) {
    if (d.mean < 0 || d.variance < 0) {
      return {util::ErrorCode::kInvalidArgument,
              "bandwidth moments must be non-negative"};
    }
  }
  return util::Status::Ok();
}

std::string Request::Describe() const {
  std::ostringstream out;
  out << "request " << id_ << " <N=" << n_;
  if (homogeneous()) {
    out << ", mu=" << demands_[0].mean
        << ", sigma=" << demands_[0].stddev() << ">";
  } else {
    out << ", heterogeneous>";
  }
  if (deterministic_) out << " (deterministic)";
  return out.str();
}

}  // namespace svc::core
