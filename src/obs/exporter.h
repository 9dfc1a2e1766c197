// Live introspection plane: Prometheus-style text exposition of the
// metrics registry, and a flight recorder that freezes the last N decision
// records + a metrics snapshot + the trace rings into a postmortem bundle
// when something goes wrong (a fault, a StateValid failure, or an
// admit-latency / rejection-rate SLO breach).
//
// Bundle format (docs/OBSERVABILITY.md "Flight recorder"):
//
//   <dir>/flight-<n>-<cause>.jsonl      one JSON object per line:
//     {"type":"flight","cause":...,"detail":...,...}   header, line 1
//     {"type":"decision",...}                          last N records
//     {"type":"counter"|"gauge"|"histogram",...}       metrics snapshot
//   <dir>/flight-<n>-<cause>.trace.json  Chrome trace JSON (when enabled)
//
// Triggering reads rings owned by other threads, so it inherits the
// quiesced-threads contract of the trace/decision layers: the built-in
// trigger points (HandleFault, StateValid failures, the engine's SLO
// check) all run between admissions.  SLO breaches detected inside an
// admission via ObserveAdmission() only *latch*; the dump happens at the
// caller's next MaybeTriggerPending() — a safe point by construction.
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

struct FlightRecorderConfig {
  std::string dir;       // bundle directory (must exist); empty = disabled
  size_t max_records = 512;  // decision records per bundle (newest first)
  bool include_trace = true; // also dump the trace rings alongside
  // SLO triggers, evaluated over sliding windows of `slo_window`
  // admissions fed through ObserveAdmission(); 0 disarms each.
  double admit_latency_slo_us = 0;  // breach: windowed mean latency above
  double rejection_rate_slo = 0;    // breach: windowed reject fraction above
  size_t slo_window = 64;
};

class FlightRecorder {
 public:
  // Process-wide instance (never destroyed), like Registry::Global().
  static FlightRecorder& Global();

  void Configure(FlightRecorderConfig config);
  bool enabled() const;  // a non-empty dir is configured

  // Freezes and writes a bundle now (quiesced-threads contract above).
  // Returns the bundle path, or "" when disabled or the write failed.
  std::string Trigger(const char* cause, const char* detail);

  // Feeds one admission decision into the SLO windows.  Cheap no-op when
  // disabled or no SLO is armed; on a breach it latches a pending trigger
  // (at most one per window) instead of dumping inline, because the caller
  // is inside an admission.
  void ObserveAdmission(bool admitted, double latency_us);

  // Latches an arbitrary trigger for the next MaybeTriggerPending() — the
  // deferred analogue of Trigger() for callers that are not at a quiesced
  // point (e.g. an admission-inconsistency detected while the engine
  // consumes a decision).  First latch wins until dumped.
  void LatchTrigger(const char* cause, const char* detail);

  // Dumps a latched SLO breach, if any; call from a quiesced point (the
  // engine does, after each admission group settles).  Returns the bundle
  // path or "".
  std::string MaybeTriggerPending();

  int64_t bundles_written() const;

  // Clears config, SLO windows, and pending state (tests).
  void Reset();
};

}  // namespace svc::obs
