// FairSharePipe semantics: processor sharing with a virtual-time clock.
// Every expected instant below is derived by hand from the PS invariant
// (n in-flight flows each progress at rate * min(1, channels/n)).
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/link.hpp"
#include "sim/task.hpp"

namespace pfsc::sim {
namespace {

Task flow_at(Engine& eng, LinkModel& link, Seconds start, Bytes bytes,
             std::vector<Seconds>& done) {
  if (start > 0.0) co_await eng.delay(start);
  co_await link.transfer(bytes);
  done.push_back(eng.now());
}

TEST(FairSharePipe, SingleFlowTakesBytesOverRate) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0);  // 100 B/s
  std::vector<Seconds> done;
  eng.spawn(flow_at(eng, pipe, 0.0, 250, done));
  eng.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 2.5, 1e-9);
  EXPECT_EQ(pipe.bytes_moved(), 250u);
  EXPECT_EQ(pipe.transfers(), 1u);
}

TEST(FairSharePipe, ConcurrentFlowsShareSimultaneously) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0);
  std::vector<Seconds> done;
  // Two 100 B flows from t=0: each sees 50 B/s, both finish at 2.0 —
  // unlike FIFO, which would finish them at 1.0 and 2.0.
  eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST(FairSharePipe, StaggeredArrivalRecostsInFlightFlow) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0);
  std::vector<Seconds> done;
  // A: 200 B at t=0. Alone until t=0.5 (50 B moved). B: 100 B at t=0.5;
  // both then run at 50 B/s, so B finishes at 0.5 + 2.0 = 2.5. A has 50 B
  // left and the link to itself: done at 3.0.
  eng.spawn(flow_at(eng, pipe, 0.0, 200, done));
  eng.spawn(flow_at(eng, pipe, 0.5, 100, done));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.5, 1e-9);
  EXPECT_NEAR(done[1], 3.0, 1e-9);
}

TEST(FairSharePipe, ChannelsRaiseTheSharingThreshold) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0, 0.0, 2);
  std::vector<Seconds> done;
  // Two flows fit the two channels: both at full rate, done at 1.0. Four
  // flows: each at 100 * 2/4 = 50 B/s, done at 2.0.
  eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 1.0, 1e-9);

  done.clear();
  for (int i = 0; i < 4; ++i) eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.run();
  ASSERT_EQ(done.size(), 4u);
  for (const Seconds t : done) EXPECT_NEAR(t - 1.0, 2.0, 1e-9);
}

TEST(FairSharePipe, PerMessageLatencyAddsBeforeService) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0, /*per_message_latency=*/0.5);
  std::vector<Seconds> done;
  eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 1.5, 1e-9);
}

TEST(FairSharePipe, ProbesReportInstantaneousSharing) {
  Engine eng;
  FairSharePipe pipe(eng, 120.0);
  std::vector<Seconds> done;
  for (int i = 0; i < 3; ++i) eng.spawn(flow_at(eng, pipe, 0.0, 120, done));
  EXPECT_EQ(pipe.active_flows(), 0u);
  EXPECT_DOUBLE_EQ(pipe.flow_rate(), 0.0);
  // Each flow sees 40 B/s; all complete at t=3. Park the clock mid-flight.
  EXPECT_FALSE(eng.run_until(1.5));
  EXPECT_EQ(pipe.active_flows(), 3u);
  EXPECT_DOUBLE_EQ(pipe.flow_rate(), 40.0);
  EXPECT_NEAR(pipe.utilisation(), 1.0, 1e-9);  // saturated so far
  eng.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(pipe.active_flows(), 0u);
  // Busy 3 s of 3 s total.
  EXPECT_NEAR(pipe.utilisation(), 1.0, 1e-9);
}

TEST(FairSharePipe, UtilisationCountsIdleTime) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0);
  std::vector<Seconds> done;
  eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.spawn([](Engine& e) -> Task { co_await e.delay(4.0); }(eng));
  eng.run();
  EXPECT_NEAR(pipe.utilisation(), 0.25, 1e-9);  // busy 1 s of 4 s
}

TEST(MakeLink, FactorySelectsPolicy) {
  Engine eng;
  auto fifo = make_link(eng, LinkPolicy::fifo, 100.0);
  auto fair = make_link(eng, LinkPolicy::fair_share, 100.0);
  EXPECT_EQ(fifo->policy(), LinkPolicy::fifo);
  EXPECT_EQ(fair->policy(), LinkPolicy::fair_share);
  EXPECT_STREQ(link_policy_name(fifo->policy()), "fifo");
  EXPECT_STREQ(link_policy_name(fair->policy()), "fair_share");
}

TEST(FairSharePipe, ManyFlowsConserveWork) {
  // 10,000 staggered flows through one saturated link: processor sharing
  // is work-conserving, so the last completion lands exactly at
  // total_bytes / rate (all arrivals are inside the busy period).
  Engine eng;
  FairSharePipe pipe(eng, 1.0e6);
  std::vector<Seconds> done;
  constexpr int kFlows = 10000;
  Bytes total = 0;
  for (int i = 0; i < kFlows; ++i) {
    const Bytes bytes = 1000 + static_cast<Bytes>(i % 7) * 100;
    total += bytes;
    // Arrivals spread over the first second; the full drain takes >10 s.
    eng.spawn(flow_at(eng, pipe, 1e-4 * static_cast<double>(i), bytes, done));
  }
  eng.run();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(kFlows));
  EXPECT_EQ(pipe.bytes_moved(), total);
  EXPECT_EQ(pipe.transfers(), static_cast<std::uint64_t>(kFlows));
  const Seconds expect_end = static_cast<double>(total) / 1.0e6;
  EXPECT_NEAR(done.back(), expect_end, 1e-6);
}


// -- hand-off order ----------------------------------------------------------
// These cases pin the exact dispatch sequence of flows through both link
// models: who resumes, at what instant, and after how many engine events.
// A slot released to a queued flow starts that flow's service in its own
// event at the release instant, so the flow's completion is ordered after
// every wakeup scheduled for the same instant before that event ran.

struct Mark {
  std::string who;
  Seconds t = 0.0;
  std::uint64_t events = 0;  // engine events dispatched so far
  bool operator==(const Mark&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Mark& m) {
  return os << "{" << m.who << ", t=" << m.t << ", events=" << m.events << "}";
}

void mark(Engine& eng, std::vector<Mark>& log, std::string who) {
  log.push_back(Mark{std::move(who), eng.now(), eng.executed_events()});
}

Task logged_flow(Engine& eng, LinkModel& link, Seconds start, Bytes bytes,
                 std::string who, std::vector<Mark>& log) {
  if (start > 0.0) co_await eng.delay(start);
  co_await link.transfer(bytes);
  mark(eng, log, std::move(who));
}

/// Sleeps `first`, marks, sleeps `second`, marks again.
Task bystander(Engine& eng, Seconds first, Seconds second,
               std::vector<Mark>& log) {
  co_await eng.delay(first);
  mark(eng, log, "by1");
  co_await eng.delay(second);
  mark(eng, log, "by2");
}

TEST(LinkHandOff, FifoThreeSameInstantFlowsServeInArrivalOrder) {
  Engine eng;
  FifoPipe pipe(eng, 100.0);  // 100 B/s: a 100 B flow takes 1 s
  std::vector<Mark> log;
  for (const char* who : {"a", "b", "c"}) {
    eng.spawn(logged_flow(eng, pipe, 0.0, 100, who, log));
  }
  EXPECT_FALSE(eng.run_until(0.5));
  EXPECT_EQ(pipe.active_flows(), 3u);
  EXPECT_DOUBLE_EQ(pipe.flow_rate(), 100.0);
  eng.run();
  // Events: 3 root starts; a's completion (4); b's grant (5) and
  // completion (6); c's grant (7) and completion (8).
  const std::vector<Mark> expect{{"a", 1.0, 4}, {"b", 2.0, 6}, {"c", 3.0, 8}};
  EXPECT_EQ(log, expect);
  EXPECT_EQ(eng.executed_events(), 8u);
  EXPECT_EQ(pipe.active_flows(), 0u);
  EXPECT_EQ(pipe.transfers(), 3u);
  EXPECT_EQ(pipe.bytes_moved(), 300u);
  EXPECT_DOUBLE_EQ(pipe.utilisation(), 1.0);
}

TEST(LinkHandOff, FifoBystanderDelayEndingAtACompletionRunsFirst) {
  Engine eng;
  FifoPipe pipe(eng, 100.0);
  std::vector<Mark> log;
  eng.spawn(logged_flow(eng, pipe, 0.0, 100, "a", log));
  eng.spawn(logged_flow(eng, pipe, 0.0, 100, "b", log));
  // Wakes at t=1 just after a's release, then sleeps until t=2: exactly
  // b's completion. b's service starts in the grant event that a's release
  // scheduled, which dispatches after the bystander's t=1 wakeup, so the
  // bystander's t=2 wakeup is ordered before b's completion.
  eng.spawn(bystander(eng, 1.0, 1.0, log));
  eng.run();
  const std::vector<Mark> expect{
      {"a", 1.0, 4}, {"by1", 1.0, 5}, {"by2", 2.0, 7}, {"b", 2.0, 8}};
  EXPECT_EQ(log, expect);
  EXPECT_EQ(eng.executed_events(), 8u);
}

TEST(LinkHandOff, FifoZeroLengthFlowCompletesInItsGrantEvent) {
  Engine eng;
  FifoPipe pipe(eng, 100.0);
  std::vector<Mark> log;
  // b moves no bytes but still queues behind a; it completes inside the
  // grant event that a's release schedules, with no service event.
  eng.spawn(logged_flow(eng, pipe, 0.0, 100, "a", log));
  eng.spawn(logged_flow(eng, pipe, 0.0, 0, "b", log));
  eng.spawn(logged_flow(eng, pipe, 0.0, 100, "c", log));
  eng.run();
  const std::vector<Mark> expect{{"a", 1.0, 4}, {"b", 1.0, 5}, {"c", 2.0, 7}};
  EXPECT_EQ(log, expect);
  EXPECT_EQ(eng.executed_events(), 7u);
  EXPECT_EQ(pipe.active_flows(), 0u);
  EXPECT_EQ(pipe.transfers(), 3u);
}

TEST(LinkHandOff, FairShareLatencyHopPrecedesSharing) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0, /*per_message_latency=*/0.5);
  std::vector<Mark> log;
  // a and b arrive at t=0 and join at t=0.5, then run at 50 B/s: 25 B
  // each by t=1, when c (arrived at 0.5) joins. Three flows at 100/3 B/s
  // leave a and b done at 1 + 75 / (100/3) = 3.25 and c, alone for its last
  // 25 B, at 3.5. The bystander wakes at 0.5, after both joins, and again
  // at 3.25, ahead of the completion timer that c's join re-armed later.
  eng.spawn(logged_flow(eng, pipe, 0.0, 100, "a", log));
  eng.spawn(logged_flow(eng, pipe, 0.0, 100, "b", log));
  eng.spawn(logged_flow(eng, pipe, 0.5, 100, "c", log));
  eng.spawn(bystander(eng, 0.5, 2.75, log));
  EXPECT_FALSE(eng.run_until(0.75));
  EXPECT_EQ(pipe.active_flows(), 2u);
  EXPECT_DOUBLE_EQ(pipe.flow_rate(), 50.0);
  eng.run();
  ASSERT_EQ(log.size(), 5u);
  const std::vector<std::string> order{"by1", "by2", "a", "b", "c"};
  const std::vector<Seconds> times{0.5, 3.25, 3.25, 3.25, 3.5};
  // Events: 5 root starts (the pipe's timer first); a, b, c's start delay
  // and by1 at 0.5 (6-9); c's join at 1 (10); by2 (11); the timer (12)
  // resumes a and b (13, 14); the re-armed timer (15) resumes c (16).
  const std::vector<std::uint64_t> events{9, 11, 13, 14, 16};
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].who, order[i]) << i;
    EXPECT_DOUBLE_EQ(log[i].t, times[i]) << i;
    EXPECT_EQ(log[i].events, events[i]) << i;
  }
  EXPECT_EQ(pipe.transfers(), 3u);
}

}  // namespace
}  // namespace pfsc::sim
