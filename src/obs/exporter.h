// Live introspection plane: Prometheus-style text exposition of the
// metrics registry, and a flight recorder that freezes the newest decision
// records + a metrics snapshot + the trace rings into a postmortem bundle
// when something goes wrong (a fault, a StateValid failure, or an
// admission inconsistency).
//
// Bundle format (docs/OBSERVABILITY.md "Flight recorder"):
//
//   <dir>/flight-<n>-<cause>.jsonl      one JSON object per line:
//     {"type":"flight","cause":...,"detail":...,...}   header, line 1
//     {"type":"decision",...}                          newest 512 records
//     {"type":"counter"|"gauge"|"histogram",...}       metrics snapshot
//   <dir>/flight-<n>-<cause>.trace.json  Chrome trace JSON
//
// Triggering reads rings owned by other threads, so it inherits the
// quiesced-threads contract of the trace/decision rings: the built-in
// trigger points (HandleFault, StateValid failures) run between
// admissions.  A caller inside an admission only *latches* a trigger
// (LatchTrigger); the dump happens at the caller's next
// MaybeTriggerPending() — a safe point by construction.
//
// This header intentionally depends on nothing outside the standard
// library so every layer can link it.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace svc::obs {

// Prometheus text-exposition (version 0.0.4) of a snapshot.  Metric names
// are sanitized (`manager/admit_latency_us` -> `svc_manager_admit_latency_us`);
// histograms export cumulative `_bucket{le=...}` series plus `_sum` and
// `_count`, counters/gauges export as-is.
std::string ExportPrometheus(const MetricsSnapshot& snapshot);

// Convenience: export the global registry.
std::string ExportPrometheus();

class FlightRecorder {
 public:
  // Decision records per bundle: the newest ones, oldest first.
  static constexpr size_t kBundleDecisions = 512;

  // Process-wide instance (never destroyed), like Registry::Global().
  static FlightRecorder& Global();

  // Arms the recorder to dump bundles into `dir` (created on the first
  // dump); an empty `dir` disarms it.
  void Configure(std::string dir);
  bool enabled() const;  // a non-empty dir is configured

  // Freezes and writes a bundle now (quiesced-threads contract above).
  // Returns the bundle path, or "" when disabled or the write failed.
  std::string Trigger(const char* cause, const char* detail);

  // Latches a trigger for the next MaybeTriggerPending() — the deferred
  // analogue of Trigger() for callers that are not at a quiesced point
  // (e.g. an admission inconsistency detected while the engine consumes a
  // decision).  First latch wins until dumped.
  void LatchTrigger(const char* cause, const char* detail);

  // Dumps a latched trigger, if any; call from a quiesced point (the
  // engine does, after each admission group settles).  Returns the bundle
  // path or "".
  std::string MaybeTriggerPending();

  int64_t bundles_written() const;

  // Disarms the recorder and clears the pending latch and the bundle
  // counters.
  void Reset();
};

}  // namespace svc::obs
