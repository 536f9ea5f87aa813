// Unit tests for the pluggable pending-event queues (sim/event_queue.hpp),
// the token-based cancellation API, and the coroutine-frame arena.

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/arena.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "support/rng.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define PFSC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PFSC_TEST_ASAN 1
#endif
#endif

namespace pfsc::sim {
namespace {

// A dummy resumable frame so queue entries carry a real handle. The queue
// never resumes anything in these tests; it only stores and orders.
std::coroutine_handle<> dummy_handle() {
  return std::noop_coroutine();
}

std::vector<ScheduledEvent> drain(EventQueue& q) {
  std::vector<ScheduledEvent> out;
  while (!q.empty()) out.push_back(q.pop());
  return out;
}

bool ordered(const std::vector<ScheduledEvent>& evs) {
  for (std::size_t i = 1; i < evs.size(); ++i) {
    if (evs[i - 1].t > evs[i].t) return false;
    if (evs[i - 1].t == evs[i].t && evs[i - 1].seq > evs[i].seq) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Queue-level ordering
// ---------------------------------------------------------------------------

class EveryQueue : public ::testing::TestWithParam<EventQueuePolicy> {};

INSTANTIATE_TEST_SUITE_P(Policies, EveryQueue,
                         ::testing::Values(EventQueuePolicy::binary_heap,
                                           EventQueuePolicy::radix),
                         [](const auto& info) {
                           return event_queue_policy_name(info.param);
                         });

TEST_P(EveryQueue, PopsInTimeThenSeqOrder) {
  auto q = make_event_queue(GetParam());
  Rng rng(0xE001);
  std::uint64_t seq = 1;
  for (int i = 0; i < 1000; ++i) {
    q->push({rng.uniform_double(0.0, 50.0), seq++, dummy_handle()});
  }
  EXPECT_EQ(q->size(), 1000u);
  auto evs = drain(*q);
  ASSERT_EQ(evs.size(), 1000u);
  EXPECT_TRUE(ordered(evs));
}

TEST_P(EveryQueue, SameTimestampIsFifoBySeq) {
  auto q = make_event_queue(GetParam());
  // All at the same instant: pop order must be schedule order, exactly.
  for (std::uint64_t seq = 1; seq <= 256; ++seq) {
    q->push({3.25, seq, dummy_handle()});
  }
  auto evs = drain(*q);
  ASSERT_EQ(evs.size(), 256u);
  for (std::uint64_t i = 0; i < 256; ++i) EXPECT_EQ(evs[i].seq, i + 1);
}

TEST_P(EveryQueue, PeekMatchesPopAndInterleavesWithPush) {
  auto q = make_event_queue(GetParam());
  Rng rng(0xE002);
  std::uint64_t seq = 1;
  double now = 0.0;
  std::vector<ScheduledEvent> popped;
  for (int round = 0; round < 2000; ++round) {
    if (q->empty() || rng.uniform(3) != 0) {
      // Engine invariant: never schedule before the current time.
      q->push({now + rng.uniform_double(0.0, 10.0), seq++, dummy_handle()});
    } else {
      const ScheduledEvent* top = q->peek();
      ASSERT_NE(top, nullptr);
      const ScheduledEvent peeked = *top;  // pop() invalidates the pointer
      const ScheduledEvent ev = q->pop();
      EXPECT_EQ(ev.t, peeked.t);
      EXPECT_EQ(ev.seq, peeked.seq);
      now = ev.t;
      popped.push_back(ev);
    }
  }
  auto rest = drain(*q);
  popped.insert(popped.end(), rest.begin(), rest.end());
  EXPECT_TRUE(ordered(popped));
  EXPECT_EQ(q->peek(), nullptr);
}

TEST_P(EveryQueue, ExtremeTimesOrderAndZeroSignsShareAnInstant) {
  auto q = make_event_queue(GetParam());
  const double inf = std::numeric_limits<double>::infinity();
  q->push({inf, 1, dummy_handle()});
  q->push({0.0, 2, dummy_handle()});
  q->push({1.0e300, 3, dummy_handle()});
  q->push({-0.0, 4, dummy_handle()});  // -0.0 == +0.0: FIFO by seq
  q->push({1.0, 5, dummy_handle()});
  q->push({0.0, 6, dummy_handle()});
  q->push({inf, 7, dummy_handle()});
  const auto evs = drain(*q);
  std::vector<std::uint64_t> seqs;
  for (const ScheduledEvent& ev : evs) seqs.push_back(ev.seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{2, 4, 6, 5, 3, 1, 7}));
}

TEST_P(EveryQueue, FarFutureTailStaysOrdered) {
  // A sparse tail (job arrivals, sampler ticks) pending under a dense
  // stream of ~10 us service events, as in a fleet run.
  auto q = make_event_queue(GetParam());
  std::uint64_t seq = 1;
  for (const double t : {1.0e-6, 5.0, 60.0, 9000.0, 9.0e7}) {
    q->push({t, seq++, dummy_handle()});
  }
  Rng rng(0xE004);
  double now = 0.0;
  std::vector<ScheduledEvent> popped;
  for (int i = 0; i < 5000; ++i) {
    q->push({now + rng.uniform_double(5.0e-6, 1.5e-5), seq++,
             dummy_handle()});
    const ScheduledEvent ev = q->pop();
    now = ev.t;
    popped.push_back(ev);
  }
  const auto rest = drain(*q);
  popped.insert(popped.end(), rest.begin(), rest.end());
  ASSERT_EQ(popped.size(), 5005u);
  EXPECT_TRUE(ordered(popped));
  EXPECT_EQ(popped.back().t, 9.0e7);
}

TEST_P(EveryQueue, ReusableAfterFullDrain) {
  // Each wave is timed before the last: a drained queue accepts any time.
  auto q = make_event_queue(GetParam());
  std::uint64_t seq = 1;
  for (int wave = 0; wave < 3; ++wave) {
    const double base = (2 - wave) * 1000.0;
    for (int i = 0; i < 100; ++i) {
      q->push({base + static_cast<double>(i % 7), seq++, dummy_handle()});
    }
    auto evs = drain(*q);
    ASSERT_EQ(evs.size(), 100u);
    EXPECT_TRUE(ordered(evs));
    EXPECT_TRUE(q->empty());
    EXPECT_EQ(q->peek(), nullptr);
  }
}

TEST(RadixQueue, SameInstantFifoSurvivesRefillsFromSeveralBuckets) {
  // Events due at T = 4 are pushed while the base sits at different
  // instants, so they enter different buckets; refills then carry them
  // down bucket by bucket, interleaved with direct pushes. The instant
  // must still pop in schedule order.
  RadixQueue q;
  constexpr double kT = 4.0;
  std::uint64_t seq = 1;
  std::vector<std::uint64_t> at_t;
  double now = 0.0;
  Rng rng(0xE005);
  for (int round = 0; round < 200; ++round) {
    at_t.push_back(seq);
    q.push({kT, seq++, dummy_handle()});
    q.push({now + rng.uniform_double(0.0, kT - now) * 0.5, seq++,
            dummy_handle()});
    if (rng.uniform(2) == 0) {
      q.push({kT + rng.uniform_double(0.0, 1.0), seq++, dummy_handle()});
    }
    const ScheduledEvent ev = q.pop();
    ASSERT_LT(ev.t, kT);
    now = ev.t;
  }
  std::vector<ScheduledEvent> rest = drain(q);
  EXPECT_TRUE(ordered(rest));
  std::vector<std::uint64_t> popped_at_t;
  for (const ScheduledEvent& ev : rest) {
    if (ev.t == kT) popped_at_t.push_back(ev.seq);
  }
  EXPECT_EQ(popped_at_t, at_t);
}

TEST(RadixQueue, PeekDoesNotRebase) {
  // After a peek at a bucketed minimum, a push between the last pop and
  // the peeked event is still legal and pops first.
  RadixQueue q;
  q.push({1.0, 1, dummy_handle()});
  q.push({5.0, 2, dummy_handle()});
  EXPECT_EQ(q.pop().seq, 1u);  // base moves to t = 1
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek()->seq, 2u);
  q.push({3.0, 3, dummy_handle()});
  EXPECT_EQ(q.peek()->seq, 3u);
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_EQ(q.pop().seq, 2u);
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Token-based cancellation through the Engine
// ---------------------------------------------------------------------------

struct CaptureHandle {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { *slot = h; }
  void await_resume() const noexcept {}
};

Task suspend_once_then_count(std::coroutine_handle<>* slot, int* fired) {
  co_await CaptureHandle{slot};
  ++*fired;
}

class EveryEngine : public ::testing::TestWithParam<EventQueuePolicy> {};

INSTANTIATE_TEST_SUITE_P(Policies, EveryEngine,
                         ::testing::Values(EventQueuePolicy::binary_heap,
                                           EventQueuePolicy::radix),
                         [](const auto& info) {
                           return event_queue_policy_name(info.param);
                         });

TEST_P(EveryEngine, CancelThenRescheduleStillFires) {
  // Regression for the address-keyed cancellation bug: cancelling one
  // wakeup of a frame and then legitimately re-scheduling the same frame
  // must not swallow the new wakeup. The address-keyed implementation
  // matched the tombstone against the *frame*, so the reschedule was
  // skipped and `fired` stayed 0.
  Engine eng(GetParam());
  std::coroutine_handle<> h;
  int fired = 0;
  eng.spawn(suspend_once_then_count(&h, &fired));
  EXPECT_TRUE(eng.run_until(0.5));  // runs the task up to its suspend
  ASSERT_TRUE(h);

  const WakeToken cancelled = eng.schedule_after(h, 1.0);
  eng.cancel_scheduled(cancelled);
  eng.schedule_after(h, 2.0);
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 2.0);  // the cancelled 1 s wakeup never advanced time
}

TEST_P(EveryEngine, CancelledWakeupNeitherAdvancesTimeNorCounts) {
  Engine eng(GetParam());
  std::coroutine_handle<> h;
  int fired = 0;
  eng.spawn(suspend_once_then_count(&h, &fired));
  (void)eng.run_until(0.0);
  ASSERT_TRUE(h);
  const std::uint64_t executed_before = eng.executed_events();

  const WakeToken tok = eng.schedule_after(h, 4.0);
  eng.cancel_scheduled(tok);
  EXPECT_TRUE(eng.run_until(10.0));  // only a tombstone: drains
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.executed_events(), executed_before);
  EXPECT_EQ(eng.pending_events(), 0u);  // tombstone erased, not retained
  EXPECT_EQ(eng.now(), 0.0);            // never fast-forwarded to 10

  // The frame is still live: a real wakeup works afterwards.
  eng.schedule_after(h, 1.0);
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST_P(EveryEngine, RunUntilDrainsLeadingTombstonesBeforeDeciding) {
  // A cancelled wakeup behind a live one: run_until must pop the live
  // event, then treat the remaining tombstone as empty.
  Engine eng(GetParam());
  std::coroutine_handle<> h;
  int fired = 0;
  eng.spawn(suspend_once_then_count(&h, &fired));
  (void)eng.run_until(0.0);
  ASSERT_TRUE(h);

  const WakeToken late = eng.schedule_after(h, 5.0);
  eng.cancel_scheduled(late);
  eng.schedule_after(h, 1.0);
  EXPECT_TRUE(eng.run_until(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 1.0);
}

Task log_when_resumed(std::coroutine_handle<>* slot, int id,
                      std::vector<int>* log) {
  co_await CaptureHandle{slot};
  log->push_back(id);
}

TEST_P(EveryEngine, ScheduleBelowAPeekedEventAfterRunUntilDispatchesFirst) {
  // run_until peeks the next event (t = 5), stops at its horizon (t = 2)
  // and leaves the clock there; a wakeup scheduled in between (t = 3)
  // must still dispatch before the peeked one.
  Engine eng(GetParam());
  std::coroutine_handle<> first;
  std::coroutine_handle<> early;
  std::coroutine_handle<> late;
  std::vector<int> log;
  eng.spawn(log_when_resumed(&first, 1, &log));
  eng.spawn(log_when_resumed(&early, 2, &log));
  eng.spawn(log_when_resumed(&late, 3, &log));
  EXPECT_TRUE(eng.run_until(0.0));
  eng.schedule(first, 1.0);
  EXPECT_TRUE(eng.run_until(1.0));  // the queue's base moves to t = 1
  ASSERT_EQ(log, (std::vector<int>{1}));
  eng.schedule(late, 5.0);
  EXPECT_FALSE(eng.run_until(2.0));
  EXPECT_EQ(eng.now(), 2.0);
  eng.schedule(early, 3.0);
  eng.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 5.0);
}

TEST_P(EveryEngine, TombstoneBeyondTheHorizonDoesNotMoveTheFloor) {
  // run_until finds a cancelled wakeup (t = 5) ahead of the next live one
  // (t = 6), stops at t = 2, and a wakeup at t = 3 follows.
  Engine eng(GetParam());
  std::coroutine_handle<> a;
  std::coroutine_handle<> b;
  std::vector<int> log;
  eng.spawn(log_when_resumed(&a, 1, &log));
  eng.spawn(log_when_resumed(&b, 2, &log));
  EXPECT_TRUE(eng.run_until(0.0));
  eng.cancel_scheduled(eng.schedule(a, 5.0));
  eng.schedule(b, 6.0);
  EXPECT_FALSE(eng.run_until(2.0));
  EXPECT_EQ(eng.now(), 2.0);
  eng.schedule(a, 3.0);
  eng.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now(), 6.0);
}

TEST_P(EveryEngine, RunEndingOnATombstoneAcceptsEarlierWakeups) {
  // run() pops a cancelled wakeup (t = 5) last and leaves the clock at
  // t = 0; a wakeup at t = 1 must still be accepted and fire.
  Engine eng(GetParam());
  std::coroutine_handle<> h;
  int fired = 0;
  eng.spawn(suspend_once_then_count(&h, &fired));
  (void)eng.run_until(0.0);
  ASSERT_TRUE(h);
  eng.cancel_scheduled(eng.schedule(h, 5.0));
  eng.run();
  EXPECT_EQ(eng.now(), 0.0);
  eng.schedule(h, 1.0);
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 1.0);
}

TEST(EngineCancel, NullTokenIsIgnored) {
  Engine eng;
  eng.cancel_scheduled(WakeToken{});  // must be a no-op
  std::coroutine_handle<> h;
  int fired = 0;
  eng.spawn(suspend_once_then_count(&h, &fired));
  (void)eng.run_until(0.0);
  eng.schedule_after(h, 1.0);
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(EnginePolicy, ReportsItsQueuePolicy) {
  Engine heap(EventQueuePolicy::binary_heap);
  EXPECT_EQ(heap.event_queue_policy(), EventQueuePolicy::binary_heap);
  Engine radix;
  EXPECT_EQ(radix.event_queue_policy(), EventQueuePolicy::radix);
}

// ---------------------------------------------------------------------------
// Frame arena
// ---------------------------------------------------------------------------

Task tick_task(Engine& eng, int* done) {
  co_await eng.delay(1.0e-3);
  ++*done;
}

Co<int> child_value(Engine& eng) {
  co_await eng.delay(1.0e-4);
  co_return 7;
}

Task parent_task(Engine& eng, int* sum) {
  *sum += co_await child_value(eng);
}

TEST(FrameArenaTest, RecyclesFramesAcrossWaves) {
  Engine eng;
  int done = 0;
  for (int wave = 0; wave < 8; ++wave) {
    for (int i = 0; i < 32; ++i) eng.spawn(tick_task(eng, &done));
    eng.run();
  }
  EXPECT_EQ(done, 8 * 32);
  const FrameArena& arena = eng.frame_arena();
  // First wave pays fresh allocations; later waves ride the free lists.
  EXPECT_GT(arena.fresh_allocations(), 0u);
  EXPECT_GT(arena.reused_allocations(), arena.fresh_allocations());
  EXPECT_EQ(arena.outstanding(), 0u);
}

TEST(FrameArenaTest, ChildFramesPoolToo) {
  Engine eng;
  int sum = 0;
  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 16; ++i) eng.spawn(parent_task(eng, &sum));
    eng.run();
  }
  EXPECT_EQ(sum, 4 * 16 * 7);
  EXPECT_GT(eng.frame_arena().reused_allocations(), 0u);
  EXPECT_EQ(eng.frame_arena().outstanding(), 0u);
}

Task suspend_forever(std::coroutine_handle<>* slot) {
  co_await CaptureHandle{slot};
}

TEST(FrameArenaTest, TeardownReclaimsUnfinishedRoots) {
  // An engine destroyed with parked coroutines must free their frames back
  // through the arena (ASan in CI watches this test closely).
  std::coroutine_handle<> h;
  {
    Engine eng;
    eng.spawn(suspend_forever(&h));
    (void)eng.run_until(0.0);
    ASSERT_TRUE(h);
    EXPECT_EQ(eng.frame_arena().outstanding(), 1u);
  }  // ~Engine destroys the parked root; ~FrameArena asserts outstanding==0
}

TEST(FrameArenaTest, FramesWithoutAnEngineUseTheGlobalAllocator) {
  // No engine alive: the thread has no current arena, so frame new/delete
  // must fall back to ::operator new/delete and still pair up correctly.
  ASSERT_EQ(FrameArena::current(), nullptr);
  std::coroutine_handle<> h;
  int fired = 0;
  {
    Task t = suspend_once_then_count(&h, &fired);
    EXPECT_TRUE(t.valid());
  }  // destroyed unspawned: frame freed via the fallback path
  EXPECT_EQ(fired, 0);
}

TEST(FrameArenaTest, FreshFramesComeBackToBackFromSlabs) {
  Engine eng;
  const FrameArena& arena = eng.frame_arena();
  // 3,000 frames of one size class span several 64 KiB slabs; each is a
  // distinct fresh frame, and a freed one is the next frame handed out.
  std::vector<char*> frames;
  for (int i = 0; i < 3000; ++i) {
    frames.push_back(static_cast<char*>(FrameArena::allocate_frame(100)));
  }
  EXPECT_EQ(arena.fresh_allocations(), 3000u);
  EXPECT_EQ(arena.outstanding(), 3000u);
  EXPECT_EQ(frames[1] - frames[0], 128);  // 16-byte header + 100 -> 128
  std::vector<char*> sorted = frames;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  FrameArena::deallocate_frame(frames[7]);
  EXPECT_EQ(FrameArena::allocate_frame(100), frames[7]);
  EXPECT_EQ(arena.reused_allocations(), 1u);
  for (char* f : frames) FrameArena::deallocate_frame(f);
  EXPECT_EQ(arena.outstanding(), 0u);
}

#ifdef PFSC_TEST_ASAN
// Pooled frames never reach the sanitizer's allocator, so the arena
// poisons what it holds itself; these pin that a stale frame access is
// still reported.
TEST(FrameArenaAsanTest, ResumingAFinishedTaskIsReported) {
  Engine eng;
  int done = 0;
  std::coroutine_handle<> stale;
  {
    Task t = tick_task(eng, &done);
    stale = t.handle();
    eng.spawn(t);
    eng.run();
  }  // last reference dropped: the frame goes back on a free list
  EXPECT_EQ(done, 1);
  EXPECT_DEATH(stale.resume(), "use-after-poison");
}

TEST(FrameArenaAsanTest, UncarvedSlabTailIsPoisoned) {
  Engine eng;
  auto* frame = static_cast<volatile char*>(FrameArena::allocate_frame(100));
  frame[100 - 1] = 1;  // the frame itself is addressable
  EXPECT_DEATH(frame[200] = 1, "use-after-poison");
  FrameArena::deallocate_frame(const_cast<char*>(frame));
}
#endif

TEST(FrameArenaTest, EnginesNestAndRestoreTheCurrentArena) {
  Engine outer;
  const FrameArena* outer_arena = &outer.frame_arena();
  EXPECT_EQ(FrameArena::current(), outer_arena);
  {
    Engine inner;
    EXPECT_EQ(FrameArena::current(), &inner.frame_arena());
  }
  EXPECT_EQ(FrameArena::current(), outer_arena);
}

}  // namespace
}  // namespace pfsc::sim
