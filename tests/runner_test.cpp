// ParallelRunner / RunPlan behaviour: the thread count must be invisible in
// the results (bit-identical CSV), seeds must be derived in plan order, and
// plan misuse must throw before any simulation starts.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "harness/run_plan.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"

namespace pfsc {
namespace {

harness::Scenario tiny_ior_scenario() {
  harness::Scenario s;
  s.platform = hw::tiny_test_platform();
  s.nprocs = 4;
  s.procs_per_node = 4;
  s.ior.block_size = 1_MiB;
  s.ior.transfer_size = 256_KiB;
  s.ior.segment_count = 2;
  s.ior.hints.striping_factor = 4;
  s.ior.hints.striping_unit = 1_MiB;
  return s;
}

TEST(Runner, ThreadCountDoesNotChangeResults) {
  const harness::Scenario base = tiny_ior_scenario();
  harness::RunPlan plan;
  plan.sweep_striping_factor({1, 2, 4})
      .sweep_striping_unit({static_cast<double>(256_KiB),
                            static_cast<double>(1_MiB)})
      .repetitions(2)
      .base_seed(0xD0);

  const auto serial = harness::ParallelRunner(1).run(base, plan);
  const auto parallel = harness::ParallelRunner(8).run(base, plan);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  // Beyond the headline metric: the full observations must agree too.
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    const auto& a = serial.point(p);
    const auto& b = parallel.point(p);
    ASSERT_EQ(a.reps.size(), b.reps.size());
    for (std::size_t r = 0; r < a.reps.size(); ++r) {
      EXPECT_EQ(a.reps[r].seed, b.reps[r].seed);
      EXPECT_DOUBLE_EQ(a.reps[r].ior.write_mbps, b.reps[r].ior.write_mbps);
      EXPECT_DOUBLE_EQ(a.reps[r].ior.write_time, b.reps[r].ior.write_time);
    }
  }
}

TEST(Runner, GridExpansionLastAxisFastest) {
  harness::RunPlan plan;
  plan.sweep_striping_factor({1, 2}).sweep_nprocs({4, 8});
  const auto points = plan.expand(tiny_ior_scenario());
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].coords, (std::vector<double>{1, 4}));
  EXPECT_EQ(points[1].coords, (std::vector<double>{1, 8}));
  EXPECT_EQ(points[2].coords, (std::vector<double>{2, 4}));
  EXPECT_EQ(points[3].coords, (std::vector<double>{2, 8}));
  EXPECT_EQ(points[3].scenario.ior.hints.striping_factor, 2u);
  EXPECT_EQ(points[3].scenario.nprocs, 8);
}

TEST(Runner, SeedsDependOnPlanNotExecution) {
  harness::RunPlan plan;
  plan.sweep_striping_factor({1, 2}).repetitions(3).base_seed(42);
  const auto a = plan.expand(tiny_ior_scenario());
  const auto b = plan.expand(tiny_ior_scenario());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) EXPECT_EQ(a[p].seeds, b[p].seeds);
  // Independent seeds per (point, rep) in the default mode.
  EXPECT_NE(a[0].seeds, a[1].seeds);
}

TEST(Runner, PerRepSeedModeSharesSeedsAcrossPoints) {
  harness::RunPlan plan;
  plan.sweep_striping_factor({1, 2, 4})
      .repetitions(3)
      .base_seed(7)
      .seed_mode(harness::RunPlan::SeedMode::per_rep);
  const auto points = plan.expand(tiny_ior_scenario());
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].seeds, points[1].seeds);
  EXPECT_EQ(points[1].seeds, points[2].seeds);
  EXPECT_EQ(points[0].seeds.size(), 3u);
}

TEST(Runner, CsvHasHeaderAndOneRowPerRep) {
  const harness::Scenario base = tiny_ior_scenario();
  harness::RunPlan plan;
  plan.sweep_striping_factor({1, 2}).repetitions(2).base_seed(5);
  const auto set = harness::ParallelRunner(1).run(base, plan);
  const std::string csv = set.to_csv();
  EXPECT_EQ(csv.rfind("striping_factor,rep,seed,value\n", 0), 0u);
  std::size_t rows = 0;
  for (char c : csv) rows += c == '\n';
  EXPECT_EQ(rows, 1u + 2u * 2u);  // header + points x reps
}

TEST(Runner, InvalidScenarioThrowsBeforeRunning) {
  harness::Scenario bad = tiny_ior_scenario();
  bad.workload = harness::Workload::plfs;  // driver is still ad_lustre
  harness::RunPlan plan;
  EXPECT_THROW(harness::ParallelRunner(2).run(bad, plan), UsageError);
}

TEST(Runner, WorkerExceptionPropagates) {
  // An axis can configure a scenario that only fails at run time (validate
  // passes, the IOR config guard fires inside the engine). The runner must
  // surface that error, not deadlock or drop it.
  harness::Scenario base = tiny_ior_scenario();
  harness::RunPlan plan;
  plan.sweep("transfer_size", {300000.0}, [](harness::Scenario& s, double v) {
    s.ior.transfer_size = static_cast<Bytes>(v);  // does not divide block
  });
  EXPECT_THROW(harness::ParallelRunner(2).run(base, plan), UsageError);
}

TEST(Runner, ZeroThreadsMeansHardwareConcurrency) {
  EXPECT_GE(harness::ParallelRunner(0).threads(), 1u);
  EXPECT_EQ(harness::ParallelRunner(0).threads(),
            std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(harness::ParallelRunner(3).threads(), 3u);
}

TEST(Runner, ProvenanceRecordsEffectiveThreads) {
  const harness::Scenario base = tiny_ior_scenario();
  harness::RunPlan plan;
  plan.sweep_striping_factor({1, 2}).repetitions(2).base_seed(5);
  const auto set = harness::ParallelRunner(2).run(base, plan);
  EXPECT_EQ(set.provenance().rep_threads, 2u);
  EXPECT_EQ(set.provenance().hardware_threads,
            std::max(1u, std::thread::hardware_concurrency()));
  // Provenance lives in a comment header, opt-in, above the normal header.
  const std::string csv = set.to_csv(/*with_provenance=*/true);
  EXPECT_EQ(csv.rfind("# rep_threads=2 hardware_threads=", 0), 0u);
  EXPECT_NE(csv.find("\nstriping_factor,rep,seed,value\n"), std::string::npos);
  // Default serialisation is untouched by provenance.
  EXPECT_EQ(set.to_csv(), set.to_csv(false));
  EXPECT_EQ(set.to_csv().rfind("striping_factor,rep,seed,value\n", 0), 0u);
}

}  // namespace
}  // namespace pfsc
