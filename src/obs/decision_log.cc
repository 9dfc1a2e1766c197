#include "obs/decision_log.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/core.h"

namespace svc::obs {

namespace internal {
std::atomic<bool> g_decisions_enabled{false};
}  // namespace internal

void SetDecisionsEnabled(bool enabled) {
  internal::g_decisions_enabled.store(enabled, std::memory_order_relaxed);
}

const char* ToString(DecisionOutcome outcome) {
  switch (outcome) {
    case DecisionOutcome::kAdmit:
      return "admit";
    case DecisionOutcome::kReject:
      return "reject";
    case DecisionOutcome::kEvict:
      return "evict";
  }
  return "unknown";
}

const char* ToString(CommitPath path) {
  switch (path) {
    case CommitPath::kSerial:
      return "serial";
    case CommitPath::kFaultEvict:
      return "fault-evict";
  }
  return "unknown";
}

namespace {

void CopyBounded(char* dst, size_t cap, std::string_view src) {
  const size_t n = std::min(cap - 1, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

// Records kept per thread: 4K x ~160 B.  Wrapping keeps the most recent
// window — the postmortem regime the flight recorder dumps.
using DecisionRing = ThreadRing<DecisionRecord, 1u << 12>;

std::atomic<uint64_t> g_decision_seq{0};

}  // namespace

void DecisionRecord::set_allocator(std::string_view name) {
  CopyBounded(allocator, sizeof allocator, name);
}

void DecisionRecord::set_reason(std::string_view code) {
  CopyBounded(reason, sizeof reason, code);
}

void DecisionRecord::AddBindingLink(int32_t link, double slack) {
  const float s =
      static_cast<float>(std::max(-1.0, std::min(slack, 1e9)));
  int pos = num_links;
  if (pos == kMaxBindingLinks) {
    if (s >= links[kMaxBindingLinks - 1].slack) return;
    pos = kMaxBindingLinks - 1;
  } else {
    ++num_links;
  }
  while (pos > 0 && links[pos - 1].slack > s) {
    links[pos] = links[pos - 1];
    --pos;
  }
  links[pos] = BindingLink{link, s};
}

void RecordDecision(const DecisionRecord& record) {
  if (!DecisionsEnabled()) return;
  DecisionRing::Push([&record](DecisionRecord& slot) {
    slot = record;
    slot.seq = g_decision_seq.fetch_add(1, std::memory_order_relaxed);
    slot.ts_ns = NowNs();
    slot.worker_tid = ThreadId();
  });
}

uint64_t DecisionCount() {
  return g_decision_seq.load(std::memory_order_relaxed);
}

size_t DecisionRingCapacity() { return DecisionRing::capacity(); }

std::vector<DecisionRecord> CollectDecisions() {
  std::vector<DecisionRecord> records;
  DecisionRing::ForEach(
      [&records](const DecisionRecord& r) { records.push_back(r); });
  std::sort(records.begin(), records.end(),
            [](const DecisionRecord& a, const DecisionRecord& b) {
              return a.seq < b.seq;
            });
  return records;
}

bool FindDecision(int64_t tenant_id, DecisionRecord* out) {
  bool found = false;
  DecisionRing::ForEach([&](const DecisionRecord& r) {
    if (r.tenant_id == tenant_id && (!found || r.seq > out->seq)) {
      *out = r;
      found = true;
    }
  });
  return found;
}

void ClearDecisions() { DecisionRing::Clear(); }

void AppendDecisionJson(std::string& out, const DecisionRecord& r) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"decision\",\"seq\":%llu,\"tenant\":%lld,"
                "\"outcome\":\"%s\",\"path\":\"%s\",",
                static_cast<unsigned long long>(r.seq),
                static_cast<long long>(r.tenant_id), ToString(r.outcome),
                ToString(r.path));
  out += buf;
  out += "\"allocator\":";
  AppendJsonString(out, r.allocator);
  out += ",\"reason\":";
  AppendJsonString(out, r.reason);
  std::snprintf(buf, sizeof buf,
                ",\"worker\":%u,\"ts_ns\":%llu,\"links\":[",
                r.worker_tid,
                static_cast<unsigned long long>(r.ts_ns));
  out += buf;
  for (int i = 0; i < r.num_links; ++i) {
    std::snprintf(buf, sizeof buf, "%s{\"link\":%d,\"slack\":%.6g}",
                  i > 0 ? "," : "", r.links[i].link,
                  static_cast<double>(r.links[i].slack));
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "],\"stages_us\":{\"alloc\":%.3f,\"apply\":%.3f}}",
                static_cast<double>(r.stages.alloc_us),
                static_cast<double>(r.stages.apply_us));
  out += buf;
}

std::string FormatDecision(const DecisionRecord& r) {
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof buf, "tenant %lld %s via %s",
                static_cast<long long>(r.tenant_id), ToString(r.outcome),
                ToString(r.path));
  out += buf;
  std::snprintf(buf, sizeof buf,
                " alloc=%s reason=%s worker=t%u",
                r.allocator[0] ? r.allocator : "-",
                r.reason[0] ? r.reason : "-", r.worker_tid);
  out += buf;
  out += " binding=[";
  for (int i = 0; i < r.num_links; ++i) {
    std::snprintf(buf, sizeof buf, "%sL%d slack=%.3f", i > 0 ? ", " : "",
                  r.links[i].link, static_cast<double>(r.links[i].slack));
    out += buf;
  }
  out += "]";
  std::snprintf(buf, sizeof buf,
                " stages_us[alloc=%.1f apply=%.1f]",
                static_cast<double>(r.stages.alloc_us),
                static_cast<double>(r.stages.apply_us));
  out += buf;
  return out;
}

}  // namespace svc::obs
