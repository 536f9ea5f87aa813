// Golden-number regression tests for the default (FIFO) link policy.
//
// These pin exact simulator outputs — captured from the tree immediately
// before the BandwidthPipe -> LinkModel refactor — for scaled-down versions
// of the paper's three headline experiments: the Figure 1 stripe sweep (and
// its optimum), the Figure 2 single-OST contention curve, and the Figure 3
// multi-job bandwidth split. The refactored FifoPipe must reproduce every
// digit: the refactor is behavior-preserving when the fair-share model is
// off. Any intentional change to the FIFO data path must update these
// numbers in the same commit, with an explanation.
//
// Set PFSC_GOLDEN_PRINT=1 to print freshly measured values in source form
// (used to regenerate the tables).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness/scenario.hpp"

namespace pfsc {
namespace {

bool print_mode() {
  const char* env = std::getenv("PFSC_GOLDEN_PRINT");
  return env != nullptr && *env != '\0';
}

void check(const char* what, double measured, double golden) {
  if (print_mode()) {
    std::printf("GOLDEN %s = %.17g\n", what, measured);
    return;
  }
  EXPECT_DOUBLE_EQ(measured, golden) << what;
}

// -- Figure 1 (scaled): stripe sweep optimum --------------------------------
// 256 ranks over 32 nodes, ad_lustre, 10 segments; sweep stripe count x
// stripe size. Scaled so the stripe sweep matters: enough aggregator
// bandwidth that the OST count is the binding resource, as in the paper.

harness::Scenario fig1_base() {
  harness::Scenario s;
  s.nprocs = 256;
  s.procs_per_node = 8;
  s.ior.segment_count = 10;
  s.ior.hints.driver = mpiio::Driver::ad_lustre;
  return s;
}

TEST(GoldenFifo, Fig1StripeSweep) {
  const std::vector<std::uint32_t> counts{8, 32, 64};
  const std::vector<Bytes> sizes{4_MiB, 16_MiB};
  // golden[c][s]: write MB/s at counts[c] x sizes[s], seed 0xF1D0.
  const double golden[3][2] = {
      {2097.3359374367478, 2097.3359374367478},
      {4772.3575949592951, 4772.3575949592951},
      {7454.4042488345267, 7387.8130309291346},
  };
  double best = 0.0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      harness::Scenario scen = fig1_base();
      scen.ior.hints.striping_factor = counts[c];
      scen.ior.hints.striping_unit = sizes[s];
      const auto obs = harness::run_scenario(scen, 0xF1D0);
      ASSERT_EQ(obs.ior.err, lustre::Errno::ok);
      ASSERT_TRUE(obs.ior.verified);
      char what[64];
      std::snprintf(what, sizeof(what), "fig1[%zu][%zu]", c, s);
      check(what, obs.ior.write_mbps, golden[c][s]);
      best = std::max(best, obs.ior.write_mbps);
    }
  }
  // The optimum sits at the largest stripe count, as in the paper.
  if (!print_mode()) {
    EXPECT_DOUBLE_EQ(best, golden[2][0]);
  }
}

// -- Figure 2 (scaled): single-OST contention curve -------------------------
// 1..8 writers, 16 MiB each, all pinned to one OST; quiet system.

TEST(GoldenFifo, Fig2ContentionCurve) {
  const std::vector<std::uint32_t> writers{1, 2, 4, 8};
  const double golden[4] = {
      224.10966133453957,
      117.56743078885808,
      55.34982178421108,
      21.318108696473729,
  };
  for (std::size_t i = 0; i < writers.size(); ++i) {
    harness::Scenario s;
    s.workload = harness::Workload::probe;
    s.writers = writers[i];
    s.bytes_per_writer = 16_MiB;
    const auto obs = harness::run_scenario(s, 0xF2D0);
    char what[64];
    std::snprintf(what, sizeof(what), "fig2[%zu]", i);
    check(what, obs.probe.mean_mbps, golden[i]);
  }
}

// -- Figure 3 (scaled): per-job bandwidth under multi-job contention --------
// Two tuned 32-rank jobs running simultaneously.

TEST(GoldenFifo, Fig3PerJobBandwidth) {
  harness::Scenario s;
  s.workload = harness::Workload::multi;
  s.jobs = 2;
  s.nprocs = 32;
  s.procs_per_node = 16;
  s.ior.segment_count = 10;
  s.ior.hints.driver = mpiio::Driver::ad_lustre;
  s.ior.hints.striping_factor = 16;
  s.ior.hints.striping_unit = 4_MiB;
  const double golden_jobs[2] = {
      834.95268617543184,
      827.73487650397442,
  };
  const auto obs = harness::run_scenario(s, 0xF3D0);
  ASSERT_EQ(obs.per_job.size(), 2u);
  for (std::size_t j = 0; j < obs.per_job.size(); ++j) {
    ASSERT_EQ(obs.per_job[j].err, lustre::Errno::ok);
    char what[64];
    std::snprintf(what, sizeof(what), "fig3.job%zu", j);
    check(what, obs.per_job[j].write_mbps, golden_jobs[j]);
  }
}

// -- OSS scheduler layer: explicit fifo is bit-for-bit the old data path ----
// The request scheduler sits between every bulk RPC and the OSS link/disk
// service. With oss_sched_policy=fifo (set EXPLICITLY here, independent of
// the default) every admit grants synchronously without adding a single
// engine event, so one representative number from each figure must
// reproduce the pre-scheduler goldens above to the last digit.

TEST(GoldenFifo, SchedFifoPreservesEveryFigure) {
  {
    harness::Scenario scen = fig1_base();
    scen.platform.oss_sched_policy = lustre::sched::SchedPolicy::fifo;
    scen.ior.hints.striping_factor = 64;
    scen.ior.hints.striping_unit = 4_MiB;
    const auto obs = harness::run_scenario(scen, 0xF1D0);
    ASSERT_EQ(obs.ior.err, lustre::Errno::ok);
    check("sched_fifo.fig1[2][0]", obs.ior.write_mbps, 7454.4042488345267);
  }
  {
    harness::Scenario s;
    s.workload = harness::Workload::probe;
    s.platform.oss_sched_policy = lustre::sched::SchedPolicy::fifo;
    s.writers = 8;
    s.bytes_per_writer = 16_MiB;
    const auto obs = harness::run_scenario(s, 0xF2D0);
    check("sched_fifo.fig2[3]", obs.probe.mean_mbps, 21.318108696473729);
  }
  {
    harness::Scenario s;
    s.workload = harness::Workload::multi;
    s.platform.oss_sched_policy = lustre::sched::SchedPolicy::fifo;
    s.jobs = 2;
    s.nprocs = 32;
    s.procs_per_node = 16;
    s.ior.segment_count = 10;
    s.ior.hints.driver = mpiio::Driver::ad_lustre;
    s.ior.hints.striping_factor = 16;
    s.ior.hints.striping_unit = 4_MiB;
    const auto obs = harness::run_scenario(s, 0xF3D0);
    ASSERT_EQ(obs.per_job.size(), 2u);
    check("sched_fifo.fig3.job0", obs.per_job[0].write_mbps,
          834.95268617543184);
    check("sched_fifo.fig3.job1", obs.per_job[1].write_mbps,
          827.73487650397442);
  }
}

}  // namespace
}  // namespace pfsc
