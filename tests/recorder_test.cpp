// trace::Recorder unit behaviour: bounded-buffer overflow policy, category
// masking, track/name interning, and the exporters (Chrome trace_event
// JSON, counters CSV, time-weighted counter means, path templating).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "trace/export.hpp"
#include "trace/recorder.hpp"

namespace pfsc::trace {
namespace {

// -- minimal JSON well-formedness check -------------------------------------
// Not a full parser: verifies balanced {}/[] outside strings and legal
// string escapes, which is what a truncated or mis-quoted export breaks.
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
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
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Recorder, OverflowDropsNewestAndCounts) {
  Recorder rec(/*capacity=*/4);
  const TrackId t = rec.track("t");
  for (int i = 0; i < 7; ++i) {
    rec.counter(Cat::sched, t, "queue", static_cast<Seconds>(i),
                static_cast<double>(i));
  }
  ASSERT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.dropped(), 3u);
  // Drop-newest keeps the oldest prefix, so values 0..3 survive in order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(rec.events()[i].value, static_cast<double>(i));
  }
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Recorder, CategoryMaskFiltersPush) {
  Recorder rec(/*capacity=*/16, cat_bit(Cat::sched));
  EXPECT_TRUE(rec.enabled(Cat::sched));
  EXPECT_FALSE(rec.enabled(Cat::link));
  const TrackId t = rec.track("t");
  rec.counter(Cat::link, t, "flows", 0.0, 1.0);    // masked out
  rec.counter(Cat::sched, t, "queue", 0.0, 2.0);   // recorded
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].cat, Cat::sched);
  // Masked events are not "dropped": they were never wanted.
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Recorder, TrackRegistryDedupesAndIsOrdered) {
  Recorder rec;
  const TrackId a = rec.track("fabric");
  const TrackId b = rec.track("ost0.disk");
  EXPECT_EQ(rec.track("fabric"), a);
  EXPECT_NE(a, b);
  ASSERT_EQ(rec.tracks().size(), 2u);
  EXPECT_EQ(rec.tracks()[a], "fabric");
  EXPECT_EQ(rec.tracks()[b], "ost0.disk");
}

TEST(Recorder, InternReturnsStablePointer) {
  Recorder rec;
  const char* a = rec.intern(std::string("job0_bytes"));
  const char* b = rec.intern(std::string("job0_bytes"));
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "job0_bytes");
  EXPECT_NE(rec.intern("job1_bytes"), a);
}

TEST(Recorder, TrackHandleReResolvesPerRecorder) {
  Recorder rec1;
  Recorder rec2;
  rec2.track("padding");  // shift ids so the two recorders disagree
  TrackHandle handle;
  const TrackId id1 = handle.get(rec1, "fabric");
  EXPECT_EQ(id1, rec1.track("fabric"));
  const TrackId id2 = handle.get(rec2, "fabric");
  EXPECT_EQ(id2, rec2.track("fabric"));
  EXPECT_NE(id1, id2);
  // Back to rec1: must re-resolve, not reuse rec2's id.
  EXPECT_EQ(handle.get(rec1, "fabric"), id1);
}

TEST(Recorder, NextIdIsNonzeroAndFresh) {
  Recorder rec;
  const auto a = rec.next_id();
  const auto b = rec.next_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(ChromeExport, WellFormedWithAllEventKinds) {
  Recorder rec;
  const TrackId t = rec.track("disk \"quoted\"");  // exercises escaping
  rec.begin(Cat::disk, t, "service", 0.5, 0, 7, 1024);
  rec.end(Cat::disk, t, "service", 1.0, 0, 7);
  rec.begin(Cat::link, t, "flow", 1.5, /*id=*/42, 2048);
  rec.end(Cat::link, t, "flow", 2.0, /*id=*/42);
  rec.instant(Cat::disk, t, "stream_open", 2.5, 7);
  rec.counter(Cat::sched, t, "queue", 3.0, 4.0);

  const std::string json = export_chrome_trace(rec);
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  // Async ids are renumbered by first appearance: recorded id 42 is the
  // trace's first async span, so it is exported as id 1.
  EXPECT_NE(json.find("\"ph\":\"b\",\"id\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\",\"id\":1,"), std::string::npos);
  EXPECT_EQ(json.find("\"id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // The quoted track name must be escaped in the thread_name metadata.
  EXPECT_NE(json.find("disk \\\"quoted\\\""), std::string::npos);
  // Counters are name-qualified by track to stay distinct in the viewer.
  EXPECT_NE(json.find("disk \\\"quoted\\\".queue"), std::string::npos);
}

TEST(ChromeExport, CanonicalTrackOrderAndEventOrder) {
  Recorder rec;
  const TrackId b = rec.track("b");  // named first, sorts second
  const TrackId a = rec.track("a");
  rec.instant(Cat::disk, b, "x", 1.0);
  rec.instant(Cat::disk, a, "y", 1.0);
  rec.begin(Cat::link, b, "flow", 2.0, /*id=*/9);
  rec.begin(Cat::link, a, "flow", 2.0, /*id=*/5);
  const std::string json = export_chrome_trace(rec);
  // Tracks are numbered by name, so "a" is thread row 0.
  EXPECT_NE(json.find("\"tid\":0,\"args\":{\"name\":\"a\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\":1,\"args\":{\"name\":\"b\"}"),
            std::string::npos);
  // Same-instant events come out in canonical track order; async ids are
  // renumbered in that order too.
  EXPECT_LT(json.find("\"name\":\"y\""), json.find("\"name\":\"x\""));
  const std::size_t first = json.find("\"ph\":\"b\",\"id\":1,");
  const std::size_t second = json.find("\"ph\":\"b\",\"id\":2,");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  // Id 1 belongs to track "a" (recorded id 5), not to the span recorded
  // first.
  EXPECT_NE(json.find("\"tid\":0,\"ts\":2000000.000,\"ph\":\"b\",\"id\":1,"),
            std::string::npos);
}

TEST(ChromeExport, AutoClosesDanglingSyncSpans) {
  Recorder rec;
  const TrackId t = rec.track("engine");
  rec.begin(Cat::engine, t, "dispatch", 1.0);  // never ended
  const std::string json = export_chrome_trace(rec);
  EXPECT_TRUE(json_balanced(json));
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"B\"", pos)) !=
                            std::string::npos;
       ++pos) {
    ++begins;
  }
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"E\"", pos)) !=
                            std::string::npos;
       ++pos) {
    ++ends;
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, 1u);
}

TEST(CountersCsv, EmitsOnlyCounters) {
  Recorder rec;
  const TrackId t = rec.track("sched");
  rec.counter(Cat::sched, t, "queue", 0.25, 3.0);
  rec.instant(Cat::sched, t, "complete", 0.5);
  const std::string csv = export_counters_csv(rec);
  EXPECT_EQ(csv, "time,track,name,value\n0.25,sched,queue,3\n");
}

TEST(MeanCounterSum, TimeWeightedAcrossTracks) {
  Recorder rec;
  const TrackId a = rec.track("oss0.sched");
  const TrackId b = rec.track("oss1.sched");
  // Track a holds 2 on [0,1), then 0 on [1,2); track b holds 4 on [1,2).
  rec.counter(Cat::sched, a, "queue", 0.0, 2.0);
  rec.counter(Cat::sched, a, "queue", 1.0, 0.0);
  rec.counter(Cat::sched, b, "queue", 1.0, 4.0);
  rec.counter(Cat::sched, b, "queue", 2.0, 4.0);
  // Sum is 2 on [0,1) and 4 on [1,2) -> mean 3 over [0,2].
  EXPECT_DOUBLE_EQ(mean_counter_sum(rec, Cat::sched, "queue"), 3.0);
  // Wrong category or name: nothing matches.
  EXPECT_DOUBLE_EQ(mean_counter_sum(rec, Cat::link, "queue"), 0.0);
  EXPECT_DOUBLE_EQ(mean_counter_sum(rec, Cat::sched, "inflight"), 0.0);
}

TEST(MeanCounterSum, SingleInstantReportsInstantaneousSum) {
  Recorder rec;
  rec.counter(Cat::sched, rec.track("s"), "queue", 1.0, 5.0);
  EXPECT_DOUBLE_EQ(mean_counter_sum(rec, Cat::sched, "queue"), 5.0);
}

TEST(TraceConfig, ModeNamesRoundTrip) {
  TraceMode mode = TraceMode::full;
  EXPECT_TRUE(parse_trace_mode("off", mode));
  EXPECT_EQ(mode, TraceMode::off);
  EXPECT_TRUE(parse_trace_mode("summary", mode));
  EXPECT_EQ(mode, TraceMode::summary);
  EXPECT_TRUE(parse_trace_mode("full", mode));
  EXPECT_EQ(mode, TraceMode::full);
  EXPECT_FALSE(parse_trace_mode("verbose", mode));
  EXPECT_FALSE(parse_trace_mode("", mode));
  EXPECT_STREQ(trace_mode_name(TraceMode::summary), "summary");
  EXPECT_EQ(trace_categories(TraceMode::off), 0u);
  EXPECT_EQ(trace_categories(TraceMode::full), kAllCats);
  EXPECT_EQ(trace_categories(TraceMode::summary), kSummaryCats);
}

TEST(TracePath, SeedPlaceholderExpands) {
  EXPECT_EQ(resolve_trace_path("run.json", 7), "run.json");
  EXPECT_EQ(resolve_trace_path("run.{seed}.json", 7), "run.7.json");
  EXPECT_EQ(resolve_trace_path("{seed}/{seed}.json", 12), "12/12.json");
}

TEST(RunSummaryFormat, ReportsJobsAndDrops) {
  RunSummary s;
  s.job_bytes[0] = 64_MiB;
  s.job_bytes[1] = 192_MiB;
  s.ost_bytes = {0, 128_MiB, 0, 128_MiB};
  s.jain = 0.8;
  s.mean_queue_depth = 1.5;
  s.recorded_events = 100;
  s.dropped_events = 2;
  const std::string text = s.format();
  EXPECT_NE(text.find("75.0"), std::string::npos);     // job 1 share
  EXPECT_NE(text.find("0.8000"), std::string::npos);   // jain
  EXPECT_NE(text.find("2 of 4"), std::string::npos);   // osts touched
  EXPECT_NE(text.find("dropped 2"), std::string::npos);
}

}  // namespace
}  // namespace pfsc::trace
