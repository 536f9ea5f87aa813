// API-misuse tests: every PFSC_REQUIRE guard a downstream user can trip
// must throw UsageError rather than corrupt simulation state.
#include <gtest/gtest.h>

#include "harness/run_plan.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "ior/probe.hpp"
#include "mpi/runtime.hpp"
#include "trace/telemetry.hpp"

namespace pfsc {
namespace {

TEST(Misuse, CommunicatorBadRanks) {
  sim::Engine eng;
  mpi::Communicator comm(eng, 4);
  EXPECT_THROW(
      {
        eng.spawn([](mpi::Communicator& c) -> sim::Task {
          co_await c.allreduce(7, 1.0, mpi::Communicator::ReduceOp::sum);
        }(comm));
        eng.run();
      },
      UsageError);
  EXPECT_THROW(
      {
        eng.spawn([](mpi::Communicator& c) -> sim::Task {
          co_await c.bcast(0, 9, 1.0);  // bad root
        }(comm));
        eng.run();
      },
      UsageError);
  EXPECT_THROW(mpi::Communicator(eng, 0), UsageError);
}

TEST(Misuse, RuntimeBadConfigs) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 1);
  EXPECT_THROW(mpi::Runtime(fs, 0, 4), UsageError);
  EXPECT_THROW(mpi::Runtime(fs, 4, 0), UsageError);
  mpi::Runtime rt(fs, 4, 4);
  EXPECT_THROW(rt.client(-1), UsageError);
  EXPECT_THROW(rt.client(4), UsageError);
}

TEST(Misuse, EngineSpawnGuards) {
  sim::Engine eng;
  EXPECT_THROW(eng.spawn(sim::Task{}), UsageError);
  // Double spawn of the same task is rejected.
  auto coro = [](sim::Engine& e) -> sim::Task { co_await e.delay(1.0); };
  sim::Task t = coro(eng);
  eng.spawn(t);
  EXPECT_THROW(eng.spawn(t), UsageError);
  eng.run();
}

TEST(Misuse, ResourceAndPipeGuards) {
  sim::Engine eng;
  EXPECT_THROW(sim::Resource(eng, 0), UsageError);
  EXPECT_THROW(sim::Barrier(eng, 0), UsageError);
  EXPECT_THROW(sim::FifoPipe(eng, 0.0), UsageError);
  EXPECT_THROW(sim::FairSharePipe(eng, 0.0), UsageError);
}

TEST(Misuse, FileSystemGuards) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 1);
  EXPECT_THROW(fs.inode(0), UsageError);
  EXPECT_THROW(fs.inode(999), UsageError);
  EXPECT_THROW(fs.ost_disk(999), UsageError);
  EXPECT_THROW(fs.fail_ost(999), UsageError);
  EXPECT_THROW(fs.degrade_ost(0, 0.0), UsageError);
  auto bad_params = hw::tiny_test_platform();
  bad_params.ost_count = 0;
  EXPECT_THROW(lustre::FileSystem(eng, bad_params, 1), UsageError);
}

TEST(Misuse, ProbeRequiresMatchingRuntime) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 1);
  mpi::Runtime rt(fs, 4, 4);
  ior::ProbeConfig cfg;
  cfg.num_writers = 8;  // != runtime size
  EXPECT_THROW(ior::run_probe(rt, cfg), UsageError);
}

TEST(Misuse, SamplerGuards) {
  sim::Engine eng;
  EXPECT_THROW(trace::Sampler(eng, 0.0), UsageError);
  EXPECT_THROW(trace::Sampler(eng, 1.0, 0), UsageError);
  trace::Sampler sampler(eng, 1.0, 1);
  EXPECT_THROW(sampler.add_probe("x", nullptr), UsageError);
  EXPECT_THROW(sampler.series(0), UsageError);
}

TEST(Misuse, ScenarioGuards) {
  harness::Scenario bad;
  bad.workload = harness::Workload::multi;
  bad.jobs = 0;
  EXPECT_THROW(bad.validate(), UsageError);

  harness::Scenario plfs_spec;  // plfs workload needs the ad_plfs driver
  plfs_spec.workload = harness::Workload::plfs;
  EXPECT_THROW(plfs_spec.validate(), UsageError);

  harness::Scenario probe_sampler;  // probe needs a writer...
  probe_sampler.workload = harness::Workload::probe;
  probe_sampler.writers = 0;
  EXPECT_THROW(probe_sampler.validate(), UsageError);
  probe_sampler.writers = 4;  // ...but may host a sampler and a controller:
  probe_sampler.trace.mode = trace::TraceMode::summary;  // both move it to
  probe_sampler.trace.interval = 1.0;                   // the fleet route
  probe_sampler.ctrl.mode = ctrl::CtrlMode::full;
  EXPECT_NO_THROW(probe_sampler.validate());

  harness::Scenario no_procs;
  no_procs.nprocs = 0;
  EXPECT_THROW(no_procs.validate(), UsageError);
}

TEST(Misuse, RunPlanGuards) {
  harness::RunPlan plan;
  EXPECT_THROW(plan.repetitions(0), UsageError);
  plan.sweep_nprocs({16, 32});
  // Sweeping the same axis twice would silently overwrite one assignment
  // per point; it must be rejected up front.
  EXPECT_THROW(plan.sweep_nprocs({64}), UsageError);
  EXPECT_THROW(plan.sweep("nprocs", {64.0}, [](harness::Scenario&, double) {}),
               UsageError);
  EXPECT_THROW(plan.sweep("", {1.0}, [](harness::Scenario&, double) {}),
               UsageError);
  EXPECT_THROW(plan.sweep("empty", {}, [](harness::Scenario&, double) {}),
               UsageError);
}

}  // namespace
}  // namespace pfsc
