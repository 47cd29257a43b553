// trace_test.cpp — the tracing subsystem: recording, rings, merge
// ordering, spans and Chrome JSON shape.

#include <gtest/gtest.h>

#include <string>

#include "monotonic/support/trace.hpp"
#include "monotonic/threads/structured.hpp"

namespace monotonic {
namespace {

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.record(TraceEventKind::kInstant, "x", 1);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TracerTest, RecordsEventsWhenEnabled) {
  Tracer tracer;
  tracer.enable();
  tracer.record(TraceEventKind::kInstant, "alpha", 7);
  tracer.record(TraceEventKind::kIncrement, "beta", 3);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "alpha");
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(events[1].kind, TraceEventKind::kIncrement);
}

TEST(TracerTest, EventsAreTimestampSorted) {
  Tracer tracer;
  tracer.enable();
  multithreaded_for(0, 4, 1, [&](int i) {
    for (int k = 0; k < 20; ++k) {
      tracer.record(TraceEventKind::kInstant, "tick",
                    static_cast<std::uint64_t>(i));
    }
  });
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 80u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].timestamp_ns, events[i].timestamp_ns);
  }
}

TEST(TracerTest, PerThreadRingsGetDistinctIds) {
  Tracer tracer;
  tracer.enable();
  multithreaded_block(
      [&] { tracer.record(TraceEventKind::kInstant, "a", 0); },
      [&] { tracer.record(TraceEventKind::kInstant, "b", 0); });
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].thread, events[1].thread);
}

TEST(TracerTest, RingOverwritesOldest) {
  Tracer tracer(/*ring_capacity=*/8);
  tracer.enable();
  for (std::uint64_t i = 0; i < 20; ++i) {
    tracer.record(TraceEventKind::kInstant, "x", i);
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().arg, 12u);  // oldest retained
  EXPECT_EQ(events.back().arg, 19u);
}

TEST(TracerTest, ClearDropsEverything) {
  Tracer tracer;
  tracer.enable();
  tracer.record(TraceEventKind::kInstant, "x", 0);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TracerTest, SpanEmitsBeginEnd) {
  Tracer tracer;
  tracer.enable();
  {
    Tracer::Span span(tracer, "phase-1");
    tracer.record(TraceEventKind::kInstant, "inside", 0);
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kSpanBegin);
  EXPECT_EQ(events[2].kind, TraceEventKind::kSpanEnd);
}

TEST(TracerTest, ChromeJsonShape) {
  Tracer tracer;
  tracer.enable();
  {
    Tracer::Span span(tracer, "work");
    tracer.record(TraceEventKind::kInstant, "mark", 5);
  }
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace monotonic
