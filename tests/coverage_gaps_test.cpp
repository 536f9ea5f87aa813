// Remaining coverage: nested comm splits, large-offset layout math, PLFS
// hashdir spreading, table formatting misuse, engine/run_until with the
// telemetry sampler, advisor boundary conditions, and the placement /
// admission edge paths the property and golden tests never reach
// (infeasible node_affine bands, non-detunable jobs under detune, the
// min_stripes floor fallback, traced admission spans).
#include <gtest/gtest.h>

#include <set>

#include "core/metrics.hpp"
#include "harness/admission.hpp"
#include "harness/scenario.hpp"
#include "lustre/layout.hpp"
#include "lustre/placement.hpp"
#include "mpi/runtime.hpp"
#include "plfs/plfs.hpp"
#include "support/table.hpp"
#include "trace/telemetry.hpp"

namespace pfsc {
namespace {

TEST(NestedSplit, SplitOfSplitFormsQuarters) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 3);
  mpi::Runtime rt(fs, 8, 4);
  std::vector<int> leaf_size(8, 0);
  std::vector<double> leaf_sum(8, 0.0);
  rt.run_to_completion([&](int rank) -> sim::Task {
    auto half = co_await rt.world().split(rank, rank / 4, rank);
    auto quarter = co_await half.comm->split(half.rank, half.rank / 2, half.rank);
    leaf_size[static_cast<std::size_t>(rank)] = quarter.comm->size();
    leaf_sum[static_cast<std::size_t>(rank)] = co_await quarter.comm->allreduce(
        quarter.rank, static_cast<double>(rank), mpi::Communicator::ReduceOp::sum);
  });
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(leaf_size[static_cast<std::size_t>(r)], 2);
  }
  // Quarters are {0,1},{2,3},{4,5},{6,7}: sums 1,5,9,13.
  EXPECT_DOUBLE_EQ(leaf_sum[0], 1.0);
  EXPECT_DOUBLE_EQ(leaf_sum[2], 5.0);
  EXPECT_DOUBLE_EQ(leaf_sum[5], 9.0);
  EXPECT_DOUBLE_EQ(leaf_sum[7], 13.0);
}

TEST(LayoutLargeOffsets, NoOverflowAtTerabyteScale) {
  lustre::StripeLayout layout;
  layout.stripe_size = 128_MiB;
  for (std::uint32_t i = 0; i < 160; ++i) {
    layout.osts.push_back(i);
    layout.objects.push_back(i + 1);
  }
  const Bytes tb = 1024ull * 1_GiB;
  const auto seg = lustre::locate(layout, 4 * tb + 12345);
  const Bytes stripe_idx = (4 * tb + 12345) / 128_MiB;
  EXPECT_EQ(seg.layout_index, stripe_idx % 160);
  EXPECT_EQ(seg.object_offset, (stripe_idx / 160) * 128_MiB + 12345 % 128_MiB);
  // Segment decomposition at the same magnitude conserves bytes.
  Bytes total = 0;
  std::vector<lustre::LayoutSegment> pieces;
  lustre::segments(layout, 4 * tb, 3u * 128_MiB + 7, pieces);
  for (const auto& piece : pieces) {
    total += piece.length;
  }
  EXPECT_EQ(total, 3u * 128_MiB + 7);
}

TEST(PlfsHashdirs, RanksSpreadAcrossDirectories) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 8);
  lustre::Client client(fs, "c");
  plfs::PlfsParams params;
  params.num_hash_dirs = 4;
  plfs::Plfs plfs(fs, params);
  eng.spawn([](lustre::Client& c, plfs::Plfs& p) -> sim::Task {
    for (int rank = 0; rank < 8; ++rank) {
      auto h = co_await p.open_write(c, "/ckpt", rank);
      PFSC_ASSERT(h.ok());
      PFSC_ASSERT(co_await p.close_write(c, h.value) == lustre::Errno::ok);
    }
  }(client, plfs));
  eng.run();
  // 8 ranks over 4 hash dirs: each dir holds exactly 2 ranks' files.
  std::set<std::string> dirs;
  for (int d = 0; d < 4; ++d) {
    const std::string dir = "/ckpt/hostdir." + std::to_string(d);
    ASSERT_TRUE(fs.exists(dir)) << dir;
    EXPECT_EQ(fs.files_under(dir).size(), 4u) << dir;  // 2 data + 2 index
  }
}

TEST(TableMisuse, PendingRowMismatchThrows) {
  TextTable t({"a", "b"});
  t.cell("only-one");
  EXPECT_THROW(t.end_row(), UsageError);
  FigureSeries fig("x", {"y"});
  EXPECT_THROW(fig.add_point(1.0, {1.0, 2.0}), UsageError);
  EXPECT_THROW(FigureSeries("x", {}), UsageError);
}

TEST(SamplerWithRunUntil, PartialWindowObserved) {
  sim::Engine eng;
  trace::Sampler sampler(eng, 1.0, 1000);
  sampler.add_probe("t", [&] { return eng.now(); });
  sampler.start();
  EXPECT_FALSE(eng.run_until(5.5));  // sampler still armed
  EXPECT_EQ(sampler.series(0).size(), 6u);  // t = 0..5
  sampler.stop();
  eng.run();  // drains the final armed tick
}

TEST(AdvisorBoundary, BudgetExactlyOneNeedsNoOverlap) {
  // With budget 1.0 the advisor can only recommend stripe counts whose
  // expected overlap is ~zero; for n=1 any count qualifies.
  const auto solo = core::advise_stripe_count(480.0, 1, 1.0, 160);
  EXPECT_EQ(solo.recommended_stripes, 160u);
  const auto multi = core::advise_stripe_count(480.0, 4, 1.0, 160);
  EXPECT_EQ(multi.recommended_stripes, 0u);  // any overlap breaks load 1.0
  EXPECT_THROW(core::advise_stripe_count(480.0, 4, 0.5, 160), UsageError);
}

TEST(ContentionTable, MatchesPointwiseEvaluation) {
  const auto rows = core::contention_table(64.0, 6, 480.0);
  ASSERT_EQ(rows.size(), 6u);
  for (const auto& row : rows) {
    EXPECT_DOUBLE_EQ(row.d_inuse, core::d_inuse_uniform(64, row.jobs, 480));
    EXPECT_DOUBLE_EQ(row.d_req, core::d_req(64, row.jobs));
    EXPECT_NEAR(row.d_load, core::d_load(64, row.jobs, 480), 1e-12);
  }
}

TEST(PoolNameHygiene, EmbeddedInSettingsConstructor) {
  const lustre::StripeSettings s(4, 1_MiB, -1, "flash");
  EXPECT_EQ(s.pool.view(), "flash");
  const lustre::StripeSettings plain(4, 1_MiB);
  EXPECT_TRUE(plain.pool.empty());
  EXPECT_EQ(plain.stripe_offset, -1);
}

TEST(PlacementEdge, NodeAffineInfeasibleBandReturnsEmpty) {
  // Two healthy OSTs can never host a 3-wide band; the policy reports the
  // infeasibility (empty set) instead of wrapping or shrinking.
  std::vector<bool> failed = {false, true, true, false};
  std::vector<std::uint64_t> demand(4, 0);
  Rng rng(1);
  const lustre::PlacementView view{4, &failed, &demand};
  const auto policy =
      lustre::make_placement(lustre::PlacementKind::node_affine);
  EXPECT_TRUE(policy->choose(3, view, rng).empty());
  // The feasible width still works: {0, 3} is contiguous in healthy order.
  const auto band = policy->choose(2, view, rng);
  ASSERT_EQ(band.size(), 2u);
  EXPECT_EQ(band[0], 0u);
  EXPECT_EQ(band[1], 3u);
}

TEST(PlacementEdge, KindNamesMatchCliSpelling) {
  using lustre::PlacementKind;
  using lustre::placement_kind_name;
  EXPECT_STREQ(placement_kind_name(PlacementKind::uniform_random),
               "uniform_random");
  EXPECT_STREQ(placement_kind_name(PlacementKind::round_robin), "round_robin");
  EXPECT_STREQ(placement_kind_name(PlacementKind::load_aware), "load_aware");
  EXPECT_STREQ(placement_kind_name(PlacementKind::node_affine), "node_affine");
}

TEST(PlacementEdge, FactoryRoundTripsKindAndRejectsUnknown) {
  using lustre::PlacementKind;
  for (const PlacementKind kind :
       {PlacementKind::uniform_random, PlacementKind::round_robin,
        PlacementKind::load_aware, PlacementKind::node_affine}) {
    EXPECT_EQ(lustre::make_placement(kind)->kind(), kind);
  }
  // A corrupted kind (e.g. an unvalidated config byte) must fail loudly,
  // not fall through to some policy.
  const auto bogus = static_cast<PlacementKind>(0xEE);
  EXPECT_THROW((void)lustre::make_placement(bogus), UsageError);
  EXPECT_STREQ(lustre::placement_kind_name(bogus), "?");
}

namespace admission_edges {

sim::Task admit_job(sim::Engine& eng, harness::AdmissionController& ac,
                    const harness::JobSpec& spec, double service) {
  if (spec.arrival > 0.0) co_await eng.delay(spec.arrival);
  (void)co_await ac.admit(spec);
  co_await eng.delay(service);
  ac.finished(spec);
}

harness::JobSpec plfs_job(std::uint32_t id, Seconds arrival, int nprocs) {
  harness::JobSpec spec;
  spec.kind = harness::JobKind::plfs;
  spec.job_id = id;
  spec.nprocs = nprocs;
  spec.arrival = arrival;
  spec.ior.hints.driver = mpiio::Driver::ad_plfs;
  return spec;
}

harness::JobSpec ior_job(std::uint32_t id, Seconds arrival,
                         std::uint32_t factor) {
  harness::JobSpec spec;
  spec.kind = harness::JobKind::ior;
  spec.job_id = id;
  spec.nprocs = 8;
  spec.arrival = arrival;
  spec.ior.hints.driver = mpiio::Driver::ad_lustre;
  spec.ior.hints.striping_factor = factor;
  return spec;
}

}  // namespace admission_edges

TEST(AdmissionEdge, PolicyAndActionNamesMatchCliSpelling) {
  using harness::AdmissionAction;
  using harness::AdmissionPolicy;
  EXPECT_STREQ(harness::admission_policy_name(AdmissionPolicy::always),
               "always");
  EXPECT_STREQ(harness::admission_policy_name(AdmissionPolicy::threshold),
               "threshold");
  EXPECT_STREQ(harness::admission_policy_name(AdmissionPolicy::detune),
               "detune");
  EXPECT_STREQ(harness::admission_policy_name(
                   static_cast<AdmissionPolicy>(0xEE)),
               "?");
  EXPECT_STREQ(harness::admission_action_name(AdmissionAction::admitted),
               "admitted");
  EXPECT_STREQ(harness::admission_action_name(AdmissionAction::delayed),
               "delayed");
  EXPECT_STREQ(harness::admission_action_name(AdmissionAction::detuned),
               "detuned");
  EXPECT_STREQ(harness::admission_action_name(
                   static_cast<AdmissionAction>(0xEE)),
               "?");
}

TEST(AdmissionEdge, JobRequestsOfUnknownKindAreEmpty) {
  harness::JobSpec spec;
  spec.kind = static_cast<harness::JobKind>(0xEE);
  EXPECT_TRUE(harness::AdmissionController::job_requests(
                  spec, hw::tiny_test_platform())
                  .empty());
}

TEST(AdmissionEdge, ConstructorRejectsBadConfig) {
  sim::Engine eng;
  harness::AdmissionConfig bad_limit;
  bad_limit.max_dload = 0.0;
  EXPECT_THROW(harness::AdmissionController(eng, bad_limit,
                                            hw::tiny_test_platform()),
               UsageError);
  harness::AdmissionConfig bad_floor;
  bad_floor.min_stripes = 0;
  EXPECT_THROW(harness::AdmissionController(eng, bad_floor,
                                            hw::tiny_test_platform()),
               UsageError);
}

TEST(AdmissionEdge, FinishedUnknownJobIsIdempotent) {
  sim::Engine eng;
  harness::AdmissionController ac(eng, {}, hw::tiny_test_platform());
  harness::JobSpec spec;
  spec.job_id = 42;
  ac.finished(spec);  // never admitted: must be a no-op, not a crash
  EXPECT_EQ(ac.running_jobs(), 0u);
  EXPECT_EQ(ac.predicted_dload(), 0.0);
  // The candidate overload predicts the would-be load of an empty system
  // plus one default-layout job: exactly 1.0x (no sharing).
  EXPECT_DOUBLE_EQ(ac.predicted_dload(&spec), 1.0);
}

TEST(AdmissionEdge, DetuneReleasesNonDetunableJobsUnchanged) {
  using admission_edges::admit_job;
  using admission_edges::plfs_job;
  sim::Engine eng;
  harness::AdmissionConfig cfg;
  cfg.policy = harness::AdmissionPolicy::detune;
  cfg.max_dload = 1.0;  // everything overlapping is "over limit"
  harness::AdmissionController ac(eng, cfg, hw::tiny_test_platform());
  const harness::JobSpec a = plfs_job(0, 0.0, 16);
  const harness::JobSpec b = plfs_job(1, 0.1, 16);
  eng.spawn(admit_job(eng, ac, a, 1.0));
  eng.spawn(admit_job(eng, ac, b, 1.0));
  eng.run();
  // plfs layouts are fixed (2 stripes per rank): detune can neither shrink
  // nor delay them, so the overlapping job is admitted untouched.
  ASSERT_EQ(ac.records().size(), 2u);
  const harness::AdmissionRecord& rec = ac.records()[1];
  EXPECT_EQ(rec.action, harness::AdmissionAction::admitted);
  EXPECT_EQ(rec.wait(), 0.0);
  EXPECT_EQ(rec.stripes_before, rec.stripes_after);
}

TEST(AdmissionEdge, DetuneFallsBackToMinStripesFloor) {
  using admission_edges::admit_job;
  using admission_edges::ior_job;
  using admission_edges::plfs_job;
  sim::Engine eng;
  harness::AdmissionConfig cfg;
  cfg.policy = harness::AdmissionPolicy::detune;
  cfg.max_dload = 1.05;
  cfg.min_stripes = 4;
  harness::AdmissionController ac(eng, cfg, hw::tiny_test_platform());
  // 16 plfs ranks saturate all 8 OSTs (D_load 4.0x), so no stripe count in
  // [4, 8] fits under 1.05: the detune scan must bottom out at the floor.
  // admit_job holds its spec by reference, so the specs outlive the run.
  const harness::JobSpec first = plfs_job(0, 0.0, 16);
  const harness::JobSpec second = ior_job(1, 0.1, 8);
  eng.spawn(admit_job(eng, ac, first, 2.0));
  eng.spawn(admit_job(eng, ac, second, 0.5));
  eng.run();
  ASSERT_EQ(ac.records().size(), 2u);
  const harness::AdmissionRecord& rec = ac.records()[1];
  EXPECT_EQ(rec.action, harness::AdmissionAction::detuned);
  EXPECT_EQ(rec.stripes_before, 8u);
  EXPECT_EQ(rec.stripes_after, 4u);
  EXPECT_EQ(rec.wait(), 0.0);
  EXPECT_GT(rec.predicted_dload, cfg.max_dload);  // floor still over limit
}

TEST(AdmissionEdge, TracedDelayEmitsWaitSpanAndCounters) {
  using admission_edges::admit_job;
  using admission_edges::ior_job;
  sim::Engine eng;
  trace::Recorder rec(4096, trace::cat_bit(trace::Cat::sched));
  harness::AdmissionConfig cfg;
  cfg.policy = harness::AdmissionPolicy::threshold;
  cfg.max_dload = 1.05;
  harness::AdmissionController ac(eng, cfg, hw::tiny_test_platform(), &rec);
  // admit_job holds its spec by reference, so the specs outlive the run.
  const harness::JobSpec first = ior_job(0, 0.0, 8);
  const harness::JobSpec second = ior_job(1, 0.1, 8);
  eng.spawn(admit_job(eng, ac, first, 1.0));
  eng.spawn(admit_job(eng, ac, second, 0.5));
  eng.run();
  ASSERT_EQ(ac.records().size(), 2u);
  EXPECT_EQ(ac.records()[1].action, harness::AdmissionAction::delayed);
  EXPECT_GT(ac.records()[1].wait(), 0.0);
  // The wait shows up as a begin/end span pair plus per-decision instants
  // and predicted_dload counter updates on the admission track.
  unsigned waits = 0, counters = 0, instants = 0;
  for (const trace::Event& e : rec.events()) {
    if (std::string_view(e.name) == "admit_wait") ++waits;
    if (std::string_view(e.name) == "predicted_dload") ++counters;
    if (e.kind == trace::EventKind::instant) ++instants;
  }
  EXPECT_EQ(waits, 2u);       // one begin + one end
  EXPECT_GE(counters, 4u);    // one per release + one per completion
  EXPECT_GE(instants, 2u);    // one decision instant per job
}

}  // namespace
}  // namespace pfsc
