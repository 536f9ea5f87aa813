// End-to-end behaviour of the event-driven trace subsystem: every
// instrumented layer emits spans into an attached Recorder, the harness
// wires --trace through Scenario, tracing off is bit-for-bit invisible,
// and traced runs stay deterministic across ParallelRunner thread counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "lustre/client.hpp"
#include "lustre/fs.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"
#include "trace/telemetry.hpp"

namespace pfsc {
namespace {

using harness::Observation;
using harness::RunPlan;
using harness::Scenario;
using harness::Workload;

std::size_t spans_in(const trace::Recorder& rec, trace::Cat cat) {
  std::size_t n = 0;
  for (const trace::Event& e : rec.events()) {
    if (e.cat == cat && (e.kind == trace::EventKind::span_begin ||
                         e.kind == trace::EventKind::span_end)) {
      ++n;
    }
  }
  return n;
}

TEST(TraceIntegration, EveryLayerEmitsSpans) {
  sim::Engine eng;
  // Small engine batch so dispatch spans show up in a short run.
  trace::Recorder rec(std::size_t{1} << 20, trace::kAllCats,
                      /*engine_sample_every=*/4);
  eng.set_recorder(&rec);
  lustre::FileSystem fs(eng, hw::cab_lscratchc(), /*seed=*/1);
  lustre::Client client(fs, "c0");

  eng.spawn([](lustre::FileSystem&, lustre::Client& c) -> sim::Task {
    lustre::StripeSettings settings;
    settings.stripe_count = 4;
    settings.stripe_size = 1_MiB;
    auto file = co_await c.create("/traced", settings);
    PFSC_ASSERT(file.ok());
    const auto e = co_await c.write(file.value, 0, 8_MiB);
    PFSC_ASSERT(e == lustre::Errno::ok);
  }(fs, client));
  eng.run();

  EXPECT_GE(spans_in(rec, trace::Cat::engine), 2u);
  EXPECT_GE(spans_in(rec, trace::Cat::link), 2u);
  EXPECT_GE(spans_in(rec, trace::Cat::disk), 2u);
  EXPECT_GE(spans_in(rec, trace::Cat::client), 2u);
  EXPECT_GE(spans_in(rec, trace::Cat::sched), 2u);

  // Events arrive in dispatch order, so per-track times are monotonic.
  std::vector<Seconds> last(rec.tracks().size(), -1.0);
  for (const trace::Event& e : rec.events()) {
    EXPECT_GE(e.t, last[e.track]);
    last[e.track] = e.t;
  }
  EXPECT_EQ(rec.dropped(), 0u);
}

Scenario small_multi() {
  Scenario s;
  s.workload = Workload::multi;
  s.jobs = 2;
  s.nprocs = 4;
  s.procs_per_node = 2;
  s.ior.block_size = 2_MiB;
  s.ior.transfer_size = 1_MiB;
  s.ior.segment_count = 2;
  s.ior.hints.striping_factor = 4;
  return s;
}

TEST(TraceIntegration, ScenarioFullTraceCoversAllLayers) {
  Scenario s = small_multi();
  s.trace.mode = trace::TraceMode::full;
  s.trace.interval = 0.5;
  const Observation obs = run_scenario(s, /*seed=*/3);
  EXPECT_TRUE(obs.traced);
  ASSERT_FALSE(obs.trace_json.empty());
  for (const char* cat : {"\"cat\":\"engine\"", "\"cat\":\"link\"",
                          "\"cat\":\"disk\"", "\"cat\":\"client\"",
                          "\"cat\":\"sched\"", "\"cat\":\"sampler\""}) {
    EXPECT_NE(obs.trace_json.find(cat), std::string::npos) << cat;
  }
  EXPECT_NE(obs.trace_json.find("write_rpc"), std::string::npos);
  EXPECT_EQ(obs.trace_summary.dropped_events, 0u);
}

TEST(TraceIntegration, PlfsWorkloadEmitsPlfsSpans) {
  Scenario s;
  s.workload = Workload::plfs;
  s.ior.hints.driver = mpiio::Driver::ad_plfs;
  s.nprocs = 4;
  s.procs_per_node = 2;
  s.ior.block_size = 1_MiB;
  s.ior.transfer_size = 1_MiB;
  s.ior.segment_count = 2;
  s.trace.mode = trace::TraceMode::full;
  const Observation obs = run_scenario(s, /*seed=*/3);
  EXPECT_TRUE(obs.traced);
  EXPECT_NE(obs.trace_json.find("\"cat\":\"plfs\""), std::string::npos);
}

TEST(TraceIntegration, SummaryMatchesSchedulerAccounting) {
  Scenario s = small_multi();
  s.trace.mode = trace::TraceMode::summary;
  const Observation obs = run_scenario(s, /*seed=*/5);
  EXPECT_TRUE(obs.traced);
  // Summary mode records no full-trace JSON.
  EXPECT_TRUE(obs.trace_json.empty());
  // Each job pushed nprocs * block_size * segment_count bytes through the
  // OSS schedulers; the summary reads FileSystem::sched_* directly.
  const Bytes expected = static_cast<Bytes>(s.nprocs) * s.ior.block_size *
                         s.ior.segment_count;
  ASSERT_EQ(obs.trace_summary.job_bytes.size(), 2u);
  for (const auto& [job, bytes] : obs.trace_summary.job_bytes) {
    EXPECT_EQ(bytes, expected) << "job " << job;
  }
  EXPECT_NEAR(obs.trace_summary.jain, 1.0, 1e-12);
  EXPECT_EQ(obs.trace_summary.ost_bytes.size(),
            s.platform.ost_count);
  Bytes on_disks = 0;
  for (const Bytes b : obs.trace_summary.ost_bytes) on_disks += b;
  EXPECT_EQ(on_disks, 2 * expected);
}

TEST(TraceIntegration, TracingOffIsInvisible) {
  const Scenario off = small_multi();
  Scenario full = small_multi();
  full.trace.mode = trace::TraceMode::full;
  full.trace.interval = 0.5;

  const Observation obs_off = run_scenario(off, /*seed=*/7);
  const Observation obs_full = run_scenario(full, /*seed=*/7);

  EXPECT_FALSE(obs_off.traced);
  EXPECT_TRUE(obs_off.trace_json.empty());
  // Bit-for-bit: identical timings and metrics with and without tracing.
  EXPECT_EQ(obs_off.metric, obs_full.metric);
  EXPECT_EQ(obs_off.total_mbps, obs_full.total_mbps);
  ASSERT_EQ(obs_off.per_job.size(), obs_full.per_job.size());
  for (std::size_t j = 0; j < obs_off.per_job.size(); ++j) {
    EXPECT_EQ(obs_off.per_job[j].write_time, obs_full.per_job[j].write_time);
    EXPECT_EQ(obs_off.per_job[j].write_mbps, obs_full.per_job[j].write_mbps);
  }
}

TEST(TraceIntegration, BandwidthIsTheTraceSamplersTotalBytesTimeline) {
  // `--trace summary --trace_interval X` attaches the run's one sampler;
  // Observation::bandwidth differentiates its total-bytes series, which
  // the counters CSV records on the "sampler" track.
  Scenario s = small_multi();
  harness::RunPlan plan;
  unsigned threads = 0;
  const std::string csv = ::testing::TempDir() + "pfsc_bandwidth.csv";
  std::vector<std::string> args = {"prog",          "--trace",
                                   "summary",       "--trace_interval",
                                   "0.0078125",     "--trace_out",
                                   csv};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  harness::cli::scenario_flags(s, plan, threads)
      .parse(static_cast<int>(argv.size()), argv.data(), 1);
  const Observation obs = run_scenario(s, /*seed=*/9);

  trace::Series total;
  std::ifstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string t, track, name, value;
    std::getline(row, t, ',');
    std::getline(row, track, ',');
    std::getline(row, name, ',');
    std::getline(row, value, ',');
    if (track != "sampler" || name != "total_bytes") continue;
    total.at.push_back(std::stod(t));
    total.value.push_back(std::stod(value));
  }
  std::remove(csv.c_str());
  ASSERT_GE(total.size(), 3u);
  const trace::Series expected = trace::Sampler::bandwidth_timeline(total);
  ASSERT_FALSE(expected.at.empty());
  EXPECT_EQ(obs.bandwidth.at, expected.at);
  EXPECT_EQ(obs.bandwidth.value, expected.value);
}

TEST(TraceIntegration, TraceIdenticalAcrossRunnerThreadCounts) {
  Scenario s = small_multi();
  s.trace.mode = trace::TraceMode::full;
  RunPlan plan;
  plan.repetitions(4);
  const auto one = harness::ParallelRunner(1).run(s, plan);
  const auto eight = harness::ParallelRunner(8).run(s, plan);
  ASSERT_EQ(one.point(0).reps.size(), 4u);
  ASSERT_EQ(eight.point(0).reps.size(), 4u);
  for (std::size_t rep = 0; rep < 4; ++rep) {
    const Observation& a = one.point(0).reps[rep];
    const Observation& b = eight.point(0).reps[rep];
    ASSERT_FALSE(a.trace_json.empty());
    // Byte-identical trace output regardless of worker-thread count.
    EXPECT_EQ(a.trace_json, b.trace_json) << "rep " << rep;
    EXPECT_EQ(a.metric, b.metric);
  }
}

TEST(TraceIntegration, ValidateRejectsInconsistentTraceConfig) {
  Scenario s = small_multi();
  s.trace.out = "trace.json";  // out without a mode
  EXPECT_THROW(s.validate(), UsageError);

  Scenario neg = small_multi();
  neg.trace.mode = trace::TraceMode::full;
  neg.trace.interval = -1.0;
  EXPECT_THROW(neg.validate(), UsageError);
}

TEST(TraceIntegration, ProbeWithASamplerRunsOnTheFleetRoute) {
  // --trace summary --trace_interval 1 on the probe workload: the sampler
  // moves the run off the legacy probe route, and every writer still
  // writes its whole payload.
  Scenario s = Scenario::probe(4);
  s.trace.mode = trace::TraceMode::summary;
  s.trace.interval = 1.0;
  const Observation obs = run_scenario(s, /*seed=*/2);
  EXPECT_TRUE(obs.traced);
  ASSERT_EQ(obs.trace_summary.job_bytes.size(), 4u);
  for (const auto& [job, bytes] : obs.trace_summary.job_bytes) {
    EXPECT_EQ(bytes, s.bytes_per_writer) << "writer " << job;
  }
  ASSERT_EQ(obs.per_job.size(), 4u);
  EXPECT_GT(obs.bandwidth.size(), 0u);
}

TEST(TraceIntegration, EnvironmentOverrideEnablesTracing) {
  ::setenv("PFSC_TRACE", "summary", 1);
  const Observation obs = run_scenario(small_multi(), /*seed=*/11);
  ::unsetenv("PFSC_TRACE");
  EXPECT_TRUE(obs.traced);
  EXPECT_TRUE(obs.trace_json.empty());  // summary: no JSON
  EXPECT_FALSE(obs.trace_summary.job_bytes.empty());

  ::setenv("PFSC_TRACE", "nonsense", 1);
  EXPECT_THROW(run_scenario(small_multi(), 11), UsageError);
  ::unsetenv("PFSC_TRACE");
}

TEST(SamplerStop, CancelsPendingWakeup) {
  sim::Engine eng;
  trace::Sampler sampler(eng, /*interval=*/1.0);
  sampler.add_probe("one", [] { return 1.0; });
  sampler.start();
  eng.spawn([](sim::Engine& e, trace::Sampler& s) -> sim::Task {
    co_await e.delay(2.5);
    s.stop();
  }(eng, sampler));
  eng.run();
  // Ticks at t=0,1,2 happened; the t=3 wakeup was cancelled, so the
  // engine drains at the stop time instead of one interval later.
  EXPECT_EQ(sampler.series(0).size(), 3u);
  EXPECT_DOUBLE_EQ(eng.now(), 2.5);
}

TEST(ProbeLifetime, LivenessTokenExpiresWithFileSystem) {
  sim::Engine eng;
  std::weak_ptr<const void> token;
  {
    lustre::FileSystem fs(eng, hw::cab_lscratchc(), /*seed=*/1);
    token = fs.liveness();
    EXPECT_FALSE(token.expired());
  }
  EXPECT_TRUE(token.expired());
}

}  // namespace
}  // namespace pfsc
