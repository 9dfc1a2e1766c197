#include "sim/metrics.h"

namespace svc::sim {

namespace {
template <typename T>
double MeanOf(const std::vector<T>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const T& v : values) sum += v;
  return sum / static_cast<double>(values.size());
}
}  // namespace

double RunResult::MeanConcurrency() const {
  return MeanOf(concurrency_samples);
}

double RunResult::MeanRunningTime() const {
  if (jobs.empty()) return 0;
  double sum = 0;
  for (const JobRecord& job : jobs) sum += job.running_time();
  return sum / static_cast<double>(jobs.size());
}

double RunResult::MeanPlacementLevel() const {
  return MeanOf(placement_levels);
}

}  // namespace svc::sim
