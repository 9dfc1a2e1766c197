#include "svc/admission_pipeline.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace svc::core {

AdmissionPipeline::AdmissionPipeline(NetworkManager& manager,
                                     PipelineConfig config)
    : manager_(manager) {
  if (!config.deterministic) {
    std::fprintf(stderr,
                 "AdmissionPipeline: PipelineConfig::deterministic must be "
                 "true (request-order decisions are the only discipline)\n");
    std::abort();
  }
}

std::vector<util::Result<Placement>> AdmissionPipeline::AdmitBatch(
    const std::vector<Request>& requests, const Allocator& allocator,
    bool stop_on_failure, const DecisionFn& on_decision) {
  std::vector<util::Result<Placement>> results;
  results.reserve(requests.size());
  bool aborted = false;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (aborted) {
      results.emplace_back(util::ErrorCode::kFailedPrecondition,
                           "not attempted: earlier FIFO admission failed");
      continue;
    }
    ++stats_.proposed;
    util::Result<Placement> r = manager_.Admit(requests[i], allocator);
    ++(r.ok() ? stats_.committed : stats_.rejected);
    if (on_decision) on_decision(i, r);
    if (stop_on_failure && !r.ok()) aborted = true;
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace svc::core
