// Optional structured event log for simulations.
//
// When attached via SimConfig.events, the engine records every scheduler
// decision with its timestamp, giving post-hoc analyses (queueing delay
// breakdowns, admission timelines) and fine-grained regression tests
// something better than aggregate metrics to look at.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace svc::sim {

enum class EventKind {
  kArrival,        // online: a request arrived
  kAdmit,          // placement succeeded; job starts
  kReject,         // online: admission failed at arrival
  kSkipUnallocatable,  // batch: head job can never fit; skipped
  kNetworkDone,    // the job's last flow finished
  kComplete,       // job released (max(Tc, Tn) reached)
  kFault,          // fault injected (job_id carries the failed vertex)
  kRecover,        // element recovered (job_id carries the vertex)
  kEvict,          // job evicted by fault handling
};

const char* ToString(EventKind kind);

struct Event {
  double time = 0;
  EventKind kind = EventKind::kArrival;
  int64_t job_id = 0;
};

// Single-owner container: an EventLog belongs to the one engine (and thus
// the one thread) it is attached to.  Record() is not synchronized — when
// sweeps run replica engines concurrently, each replica gets its own log
// (see sim/sweep_runner.h) rather than sharing one.  A debug-build assert
// pins the first recording thread and trips if another thread records.
class EventLog {
 public:
  void Record(double time, EventKind kind, int64_t job_id) {
    assert(CheckOwner() && "EventLog::Record called from a second thread");
    events_.push_back({time, kind, job_id});
  }

  const std::vector<Event>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  void Clear() {
    events_.clear();
    owner_ = -1;  // a cleared log may be re-adopted by a different thread
  }

  // Events of one kind, in order.
  std::vector<Event> Filter(EventKind kind) const;

  // "time,kind,job" CSV, one event per line, with header.
  std::string ToCsv() const;

  // One JSON object per line: {"t":..,"kind":"..","job":..}.  Appends
  // cleanly to the bench --metrics-out JSONL stream.
  std::string ToJsonl() const;

 private:
  // Adopts the calling thread on first use; true iff it still matches.
  bool CheckOwner() {
    const int self = obs::ThreadId();
    if (owner_ == -1) owner_ = self;
    return owner_ == self;
  }

  std::vector<Event> events_;
  int owner_ = -1;  // obs::ThreadId() of the recording thread
};

}  // namespace svc::sim
