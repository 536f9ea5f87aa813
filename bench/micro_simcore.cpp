// Google-benchmark microbenchmarks for the simulator's hot paths: event
// dispatch, coroutine spawn/join, disk service, the contention metrics and
// the two-phase planner. These guard the simulator's own performance (a
// 4,096-rank PLFS experiment executes tens of millions of events).
#include <benchmark/benchmark.h>

#include <coroutine>

#include "core/metrics.hpp"
#include "harness/runner.hpp"
#include "hw/disk.hpp"
#include "lustre/extent_map.hpp"
#include "mpiio/two_phase.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/resources.hpp"
#include "sim/task.hpp"
#include "support/rng.hpp"

namespace {

using namespace pfsc;

sim::Task delay_loop(sim::Engine& eng, int hops) {
  for (int i = 0; i < hops; ++i) co_await eng.delay(1.0);
}

void BM_EngineEventDispatch(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn(delay_loop(eng, hops));
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_EngineEventDispatch)->Arg(1000)->Arg(100000);

// -- scheduler throughput ----------------------------------------------------
// The classic DES "hold model": a steady-state population of N pending
// events; each step pops the minimum and schedules a replacement a random
// increment into the future. This isolates the queue from coroutine cost
// and is the ≥1.5x events/sec gate in .github/bench-baseline.json (the
// heap pays O(log n) comparisons per operation, the radix queue O(1)).
void BM_EventQueueHold(benchmark::State& state, sim::EventQueuePolicy policy) {
  const int population = static_cast<int>(state.range(0));
  auto q = sim::make_event_queue(policy);
  Rng rng(0xB0DE);
  std::uint64_t seq = 1;
  for (int i = 0; i < population; ++i) {
    q->push({rng.uniform_double(0.0, 1.0), seq++, std::noop_coroutine()});
  }
  for (auto _ : state) {
    const sim::ScheduledEvent ev = q->pop();
    q->push({ev.t + rng.uniform_double(0.0, 1.0), seq++,
             std::noop_coroutine()});
    benchmark::DoNotOptimize(seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_EventQueueHold, binary_heap,
                  sim::EventQueuePolicy::binary_heap)
    ->Arg(1024)
    ->Arg(65536);
BENCHMARK_CAPTURE(BM_EventQueueHold, radix, sim::EventQueuePolicy::radix)
    ->Arg(1024)
    ->Arg(65536);

// End-to-end engine dispatch with a large concurrent timer population —
// the queue-bound regime a 4,096-rank run puts the engine in.
void BM_EngineManyTimers(benchmark::State& state,
                         sim::EventQueuePolicy policy) {
  const int tasks = static_cast<int>(state.range(0));
  constexpr int kHops = 64;
  for (auto _ : state) {
    sim::Engine eng(policy);
    for (int i = 0; i < tasks; ++i) {
      eng.spawn(delay_loop(eng, kHops));
    }
    eng.run();
    benchmark::DoNotOptimize(eng.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * tasks * kHops);
}
BENCHMARK_CAPTURE(BM_EngineManyTimers, binary_heap,
                  sim::EventQueuePolicy::binary_heap)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_EngineManyTimers, radix, sim::EventQueuePolicy::radix)
    ->Arg(4096);

// -- coroutine frame churn ---------------------------------------------------

sim::Co<int> churn_child(sim::Engine& eng) {
  co_await eng.delay(1.0e-6);
  co_return 1;
}

sim::Task churn_rpc(sim::Engine& eng, std::uint64_t* acc) {
  *acc += static_cast<std::uint64_t>(co_await churn_child(eng));
}

// Steady-state RPC-like frame churn on ONE engine: every batch allocates
// and frees a Task + Co frame pair per item, so after the first batch the
// arena serves every frame from its free lists (frame_arena().reused_
// allocations() confirms). This is the benchmark the frame-pooling half of
// the hot-path work is judged by.
void BM_FrameChurn(benchmark::State& state) {
  constexpr int kBatch = 256;
  sim::Engine eng;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) eng.spawn(churn_rpc(eng, &acc));
    eng.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["frame_reuse_ratio"] = static_cast<double>(
      eng.frame_arena().reused_allocations()) /
      static_cast<double>(eng.frame_arena().reused_allocations() +
                          eng.frame_arena().fresh_allocations());
}
BENCHMARK(BM_FrameChurn);

// -- Figure 3 wall clock -----------------------------------------------------
// One full Fig. 3 four-job contention run (4 x 1,024 processes, tuned
// 160 x 128 MiB layout) per iteration: the end-to-end number the ISSUE's
// "measurable Fig. 3 wall-clock improvement" criterion refers to. One
// iteration is seconds of work, so the perf job runs exactly one per
// policy.
void BM_Fig3FourJobs(benchmark::State& state, sim::EventQueuePolicy policy) {
  harness::Scenario s = harness::Scenario::multi(4, 1024);
  s.ior.hints.driver = mpiio::Driver::ad_lustre;
  s.ior.hints.striping_factor = 160;
  s.ior.hints.striping_unit = 128_MiB;
  s.platform.event_queue = policy;
  for (auto _ : state) {
    const auto obs = harness::run_scenario(s, 0xF3F3);
    benchmark::DoNotOptimize(obs.total_mbps);
  }
  // One item = one full Fig. 3 run, so items_per_second is 1/wall-clock and
  // the radix/heap ratio in bench-baseline.json reads as the end-to-end
  // speedup.
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_Fig3FourJobs, binary_heap,
                  sim::EventQueuePolicy::binary_heap)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK_CAPTURE(BM_Fig3FourJobs, radix, sim::EventQueuePolicy::radix)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// The same Fig. 3 quartet with the adaptive controller dialled in. The
// ctrl_off capture is the exact BM_Fig3FourJobs/radix scenario spelled
// through the ctrl config (mode off constructs no controller and adds no
// engine events), so its ratio against BM_Fig3FourJobs/radix in
// bench-baseline.json is the "a disabled control plane costs nothing"
// gate. The ctrl_pfl capture prices the active controller: a 10 ms tick
// loop plus the layout retunes it decides on.
void BM_AdaptiveQuartet(benchmark::State& state, ctrl::CtrlMode mode) {
  harness::Scenario s = harness::Scenario::multi(4, 1024);
  s.ior.hints.driver = mpiio::Driver::ad_lustre;
  s.ior.hints.striping_factor = 160;
  s.ior.hints.striping_unit = 128_MiB;
  s.platform.event_queue = sim::EventQueuePolicy::radix;
  s.ctrl.mode = mode;
  s.ctrl.interval = 0.01;
  s.ctrl.cooldown = 0.02;
  for (auto _ : state) {
    const auto obs = harness::run_scenario(s, 0xF3F3);
    benchmark::DoNotOptimize(obs.total_mbps);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_AdaptiveQuartet, ctrl_off, ctrl::CtrlMode::off)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK_CAPTURE(BM_AdaptiveQuartet, ctrl_pfl, ctrl::CtrlMode::pfl)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Capability run: one 4,096-rank job striped wide over the full lscratchc
// system (480 OSTs / 32 OSS), the paper's largest single-job scale.
void BM_Lscratchc4096(benchmark::State& state) {
  harness::Scenario s;
  s.nprocs = 4096;
  s.procs_per_node = 16;
  s.ior.segment_count = 2;
  s.ior.hints.driver = mpiio::Driver::ad_lustre;
  s.ior.hints.striping_factor = 160;
  s.ior.hints.striping_unit = 64_MiB;
  for (auto _ : state) {
    const auto obs = harness::run_scenario(s, 0x4096);
    benchmark::DoNotOptimize(obs.total_mbps);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Lscratchc4096)->Unit(benchmark::kMillisecond)->Iterations(1);

sim::Task spawn_fanout(sim::Engine& eng, int width) {
  std::vector<sim::Task> children;
  children.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    sim::Task t = delay_loop(eng, 1);
    eng.spawn(t);
    children.push_back(std::move(t));
  }
  co_await sim::join_all(std::move(children));
}

void BM_TaskSpawnJoin(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn(spawn_fanout(eng, width));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_TaskSpawnJoin)->Arg(100)->Arg(4096);

sim::Task disk_client(hw::DiskModel& disk, int stream, int requests) {
  for (int i = 0; i < requests; ++i) {
    co_await disk.submit(static_cast<hw::DiskModel::StreamId>(stream),
                         static_cast<Bytes>(i) * 1_MiB, 1_MiB, true);
  }
}

void BM_DiskServiceInterleaved(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  constexpr int kRequests = 256;
  for (auto _ : state) {
    sim::Engine eng;
    hw::DiskModel disk(eng, hw::DiskParams{});
    for (int s = 0; s < streams; ++s) {
      eng.spawn(disk_client(disk, s, kRequests / streams));
    }
    eng.run();
    benchmark::DoNotOptimize(disk.bytes_serviced());
  }
  state.SetItemsProcessed(state.iterations() * kRequests);
}
BENCHMARK(BM_DiskServiceInterleaved)->Arg(1)->Arg(16);

sim::Task fair_share_flow(sim::Engine& eng, sim::FairSharePipe& pipe,
                          Seconds start, Bytes bytes) {
  if (start > 0.0) co_await eng.delay(start);
  co_await pipe.transfer(bytes);
}

// Guards the O(log n) per-arrival/departure claim of the processor-sharing
// link: doubling the in-flight flow count must not blow past the heap's
// logarithmic growth (a linear rescan per event would show up as ~10x
// per-item cost between 1,000 and 10,000 flows).
void BM_FairSharePipeFlows(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    sim::FairSharePipe pipe(eng, mb_per_sec(1000.0));
    // Staggered arrivals so the flow set churns while thousands are in
    // flight (each arrival re-costs the heap; each departure re-arms).
    for (int i = 0; i < flows; ++i) {
      eng.spawn(fair_share_flow(eng, pipe, 1.0e-6 * static_cast<double>(i),
                                1_MiB));
    }
    eng.run();
    benchmark::DoNotOptimize(pipe.bytes_moved());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FairSharePipeFlows)->Arg(1000)->Arg(10000);

void BM_MetricsContentionTable(benchmark::State& state) {
  for (auto _ : state) {
    auto rows = core::contention_table(160.0, 64, 480.0);
    benchmark::DoNotOptimize(rows.data());
  }
}
BENCHMARK(BM_MetricsContentionTable);

void BM_MetricsOccupancy(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto e = core::occupancy_expectation(480, n, 2);
    benchmark::DoNotOptimize(e.data());
  }
}
BENCHMARK(BM_MetricsOccupancy)->Arg(512)->Arg(4096);

void BM_ExtentMapInsert(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    lustre::ExtentMap map;
    for (int i = 0; i < 1000; ++i) {
      map.insert(rng.uniform(1u << 20), 1 + rng.uniform(4096));
    }
    benchmark::DoNotOptimize(map.total_bytes());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ExtentMapInsert);

void BM_TwoPhasePlanCyclic(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  std::vector<mpiio::IoRequest> reqs;
  for (int r = 0; r < ranks; ++r) {
    reqs.push_back({r, static_cast<Bytes>(r) * 4_MiB, 1_MiB});
  }
  std::vector<int> aggs;
  for (int a = 0; a < ranks; a += 16) aggs.push_back(a);
  for (auto _ : state) {
    auto plans = mpiio::plan_two_phase_cyclic(reqs, aggs, 16_MiB, 128_MiB);
    benchmark::DoNotOptimize(plans.data());
  }
  state.SetItemsProcessed(state.iterations() * ranks);
}
BENCHMARK(BM_TwoPhasePlanCyclic)->Arg(1024)->Arg(4096);

void BM_RngSampleWithoutReplacement(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    auto sample = rng.sample_without_replacement(480, 160);
    benchmark::DoNotOptimize(sample.data());
  }
}
BENCHMARK(BM_RngSampleWithoutReplacement);

}  // namespace

BENCHMARK_MAIN();
