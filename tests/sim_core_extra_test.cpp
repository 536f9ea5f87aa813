// Additional simulation-core coverage: Co<T> payload semantics, zero-delay
// ordering, degenerate synchronisation shapes, and engine statistics.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/link.hpp"
#include "sim/resources.hpp"
#include "sim/task.hpp"

namespace pfsc::sim {
namespace {

Co<std::unique_ptr<int>> make_unique_answer(Engine& eng) {
  co_await eng.delay(0.25);
  co_return std::make_unique<int>(99);
}

TEST(CoPayload, MoveOnlyValuePropagates) {
  Engine eng;
  std::unique_ptr<int> out;
  eng.spawn([](Engine& e, std::unique_ptr<int>& out) -> Task {
    out = co_await make_unique_answer(e);
  }(eng, out));
  eng.run();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 99);
}

Co<std::vector<int>> make_vector(Engine& eng, int n) {
  co_await eng.delay(0.1);
  std::vector<int> v;
  for (int i = 0; i < n; ++i) v.push_back(i);
  co_return v;
}

TEST(CoPayload, ContainerValuePropagates) {
  Engine eng;
  std::vector<int> out;
  eng.spawn([](Engine& e, std::vector<int>& out) -> Task {
    out = co_await make_vector(e, 5);
  }(eng, out));
  eng.run();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(CoPayload, NestedCoChain) {
  Engine eng;
  int depth_reached = 0;
  // A chain of Co frames 100 deep: symmetric transfer must not overflow
  // the stack or lose the value.
  struct Chain {
    static Co<int> descend(Engine& eng, int depth) {
      if (depth == 0) {
        co_await eng.delay(0.001);
        co_return 0;
      }
      const int below = co_await descend(eng, depth - 1);
      co_return below + 1;
    }
  };
  eng.spawn([](Engine& e, int& out) -> Task {
    out = co_await Chain::descend(e, 100);
  }(eng, depth_reached));
  eng.run();
  EXPECT_EQ(depth_reached, 100);
}

TEST(ZeroDelay, DoesNotSuspend) {
  Engine eng;
  bool ran = false;
  eng.spawn([](Engine& e, bool& ran) -> Task {
    co_await e.delay(0.0);
    EXPECT_DOUBLE_EQ(e.now(), 0.0);
    ran = true;
  }(eng, ran));
  eng.run();
  EXPECT_TRUE(ran);
}

TEST(Degenerate, SinglePartyBarrierPassesThrough) {
  Engine eng;
  Barrier bar(eng, 1);
  int rounds = 0;
  eng.spawn([](Barrier& b, int& rounds) -> Task {
    for (int i = 0; i < 3; ++i) {
      co_await b.arrive();
      ++rounds;
    }
  }(bar, rounds));
  eng.run();
  EXPECT_EQ(rounds, 3);
}

TEST(Degenerate, EventDoubleTriggerIsNoop) {
  Engine eng;
  Event evt(eng);
  evt.trigger();
  evt.trigger();
  EXPECT_TRUE(evt.fired());
  evt.reset();
  EXPECT_FALSE(evt.fired());
}

TEST(Degenerate, JoinAllOfNothing) {
  Engine eng;
  bool done = false;
  eng.spawn([](bool& done) -> Task {
    co_await join_all({});
    done = true;
  }(done));
  eng.run();
  EXPECT_TRUE(done);
}

TEST(Degenerate, JoinAllJoinsEveryTaskBeforeRethrowing) {
  // The first task fails at t=1; join_all still waits for the second (t=2)
  // before rethrowing, so no task outlives the awaiter's frame.
  Engine eng;
  bool late_done = false;
  Seconds caught_at = -1.0;
  Task failing = [](Engine& e) -> Task {
    co_await e.delay(1.0);
    throw SimulationError("rpc failed");
  }(eng);
  Task late = [](Engine& e, bool& flag) -> Task {
    co_await e.delay(2.0);
    flag = true;
  }(eng, late_done);
  eng.spawn(failing);
  eng.spawn(late);
  eng.spawn([](Engine& e, std::vector<Task> tasks, Seconds& at) -> Task {
    try {
      co_await join_all(std::move(tasks));
    } catch (const SimulationError&) {
      at = e.now();
    }
  }(eng, {failing, late}, caught_at));
  eng.run();
  EXPECT_TRUE(late_done);
  EXPECT_DOUBLE_EQ(caught_at, 2.0);
}

TEST(WaiterRingTest, StaysFifoAcrossWrapAndGrowth) {
  const auto handle = [](std::uintptr_t i) {
    return std::coroutine_handle<>::from_address(reinterpret_cast<void*>(i));
  };
  WaiterRing ring;
  std::uintptr_t next_in = 1;
  std::uintptr_t next_out = 1;
  // Interleave pushes and pops so the ring wraps before each growth.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 5 + 7 * round; ++i) ring.push_back(handle(next_in++));
    for (int i = 0; i < 3 + 4 * round; ++i) {
      ASSERT_EQ(ring.pop_front().address(), handle(next_out++).address());
    }
  }
  EXPECT_EQ(ring.size(), next_in - next_out);
  while (!ring.empty()) {
    ASSERT_EQ(ring.pop_front().address(), handle(next_out++).address());
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(EngineStats, CountsAndClockAdvance) {
  Engine eng;
  EXPECT_EQ(eng.executed_events(), 0u);
  eng.spawn([](Engine& e) -> Task {
    co_await e.delay(1.0);
    co_await e.delay(2.0);
  }(eng));
  eng.run();
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
  EXPECT_EQ(eng.executed_events(), 3u);  // spawn resume + 2 delay resumes
}

TEST(EngineStats, RunUntilThenRunContinues) {
  Engine eng;
  std::vector<double> marks;
  eng.spawn([](Engine& e, std::vector<double>& marks) -> Task {
    for (int i = 0; i < 5; ++i) {
      co_await e.delay(1.0);
      marks.push_back(e.now());
    }
  }(eng, marks));
  EXPECT_FALSE(eng.run_until(2.5));
  EXPECT_EQ(marks.size(), 2u);
  EXPECT_DOUBLE_EQ(eng.now(), 2.5);  // clock parked at the horizon
  eng.run();
  EXPECT_EQ(marks.size(), 5u);
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
}

TEST(PipeLatency, PerMessageLatencyAdds) {
  Engine eng;
  FifoPipe pipe(eng, 100.0, /*per_message_latency=*/0.5);
  Seconds done_at = 0.0;
  eng.spawn([](FifoPipe& p, Engine& e, Seconds& out) -> Task {
    co_await p.transfer(100);
    out = e.now();
  }(pipe, eng, done_at));
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 1.5);  // 0.5 latency + 1.0 transfer
}

}  // namespace
}  // namespace pfsc::sim
