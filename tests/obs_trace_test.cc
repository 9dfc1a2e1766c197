// Tests for the obs tracing layer: span balance per thread, Chrome
// trace-event JSON structure, ring wraparound accounting, and ring
// clearing.  Threads
// are always joined before CollectTraceEvents/SerializeChromeTrace per the
// quiesced-threads contract in obs/trace.h.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

namespace svc::obs {
namespace {

// Restores the runtime switch and empties the rings so tests compose.
class TraceOn {
 public:
  TraceOn() : was_(TraceEnabled()) {
    ClearTrace();
    SetTraceEnabled(true);
  }
  ~TraceOn() {
    SetTraceEnabled(was_);
    ClearTrace();
  }

 private:
  bool was_;
};

// Structural JSON check: balanced {} / [] outside string literals, with
// escape handling.  Not a full parser, but it rejects every truncation and
// quoting bug a serializer is likely to have.
bool StructurallyValidJson(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return stack.empty() && !in_string;
}

TEST(Trace, SpansBalancePerThread) {
  TraceOn on;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        SVC_TRACE_SPAN("test/outer");
        { SVC_TRACE_SPAN("test/inner"); }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::map<uint32_t, int> depth;  // per-tid open-span depth
  int begins = 0, ends = 0;
  for (const TraceEvent& e : CollectTraceEvents()) {
    if (e.phase == 'B') {
      ++begins;
      ++depth[e.tid];
    } else if (e.phase == 'E') {
      ++ends;
      ASSERT_GT(depth[e.tid], 0) << "E without matching B on tid " << e.tid;
      --depth[e.tid];
    }
  }
  EXPECT_EQ(begins, ends);
  EXPECT_GE(begins, kThreads * 200);
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
}

TEST(Trace, SpanClosedEvenWhenDisabledMidScope) {
  TraceOn on;
  {
    SVC_TRACE_SPAN("test/toggled");
    SetTraceEnabled(false);
  }
  SetTraceEnabled(true);
  int begins = 0, ends = 0;
  for (const TraceEvent& e : CollectTraceEvents()) {
    if (e.phase == 'B') ++begins;
    if (e.phase == 'E') ++ends;
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

TEST(Trace, SerializesStructurallyValidChromeJson) {
  TraceOn on;
  { SVC_TRACE_SPAN("test/solve \"quoted\\name\""); }
  std::thread worker([] { SVC_TRACE_SPAN("test/worker"); });
  worker.join();

  const std::string json = SerializeChromeTrace();
  EXPECT_TRUE(StructurallyValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  // Two distinct tids must appear (main + worker).
  const size_t first_tid = json.find("\"tid\":");
  ASSERT_NE(first_tid, std::string::npos);
  const std::string tid_text = json.substr(first_tid, 12);
  size_t pos = first_tid + 1;
  bool other_tid = false;
  while ((pos = json.find("\"tid\":", pos)) != std::string::npos) {
    if (json.compare(pos, tid_text.size(), tid_text) != 0) {
      other_tid = true;
      break;
    }
    ++pos;
  }
  EXPECT_TRUE(other_tid) << json;
}

TEST(Trace, EventsComeBackInTimestampOrder) {
  TraceOn on;
  for (int i = 0; i < 50; ++i) {
    SVC_TRACE_SPAN("test/ordered");
  }
  const std::vector<TraceEvent> events = CollectTraceEvents();
  ASSERT_GE(events.size(), 100u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
}

TEST(Trace, DisabledRecordsNothingAndClearDrops) {
  TraceOn on;
  SetTraceEnabled(false);
  { SVC_TRACE_SPAN("test/should_not_appear"); }
  EXPECT_TRUE(CollectTraceEvents().empty());

  SetTraceEnabled(true);
  { SVC_TRACE_SPAN("test/then_cleared"); }
  EXPECT_FALSE(CollectTraceEvents().empty());
  ClearTrace();
  EXPECT_TRUE(CollectTraceEvents().empty());
}

TEST(Trace, WraparoundIsCountedAndMarkedInSerialization) {
  TraceOn on;
  EXPECT_EQ(TraceDroppedTotal(), 0u);
  // Overrun this thread's 64K-event ring with spans (two events each); the
  // overwritten prefix must be accounted (so a truncated postmortem bundle
  // is detectable), and the Chrome serialization must carry the drop
  // marker.
  constexpr uint64_t kOverflow = 1000;
  constexpr uint64_t kTotal = (1u << 16) + kOverflow;
  for (uint64_t i = 0; i < kTotal / 2; ++i) {
    SVC_TRACE_SPAN("test/wrap_filler");
  }
  EXPECT_EQ(TraceDroppedTotal(), kOverflow);
  const std::string json = SerializeChromeTrace();
  EXPECT_TRUE(StructurallyValidJson(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("obs/trace_dropped"), std::string::npos);
  // ClearTrace resets the drop accounting with the rings.
  ClearTrace();
  EXPECT_EQ(TraceDroppedTotal(), 0u);
}

}  // namespace
}  // namespace svc::obs
