// Allocation budget of the bulk-RPC data path.
//
// This executable replaces the global operator new/delete with counting
// versions (which is why it is a binary of its own) and runs one small
// Scenario::multi at two IOR segment counts. The extra segments add bulk
// RPCs and nothing else, so (extra allocations) / (extra RPCs) is the
// marginal heap cost of one RPC on its way through client io -> rpc ->
// links -> OSS scheduler -> disk -> reply. That path allocates nothing in
// steady state; the budget of one allocation per RPC leaves room for a
// write that starts a new extent and for amortised container growth, and
// fails on any allocation made once per RPC. Allocation counts are
// deterministic, so the check is exact, not timed.
//
// The ranks write independently (no two-phase collective buffering): the
// MPI-IO planner allocates per rank per collective call, about one
// allocation per rank, which would measure that layer instead of the RPC
// path. Each 1 MiB transfer is one bulk RPC, the Fig. 3 RPC shape.
//
// The same binary holds the path's coroutine-frame budget: frames come
// from the engine's arena, not the heap, so they are counted through
// Engine::frame_arena() on a bare FileSystem and Client instead.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "harness/scenario.hpp"
#include "lustre/client.hpp"
#include "trace/recorder.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes != 0 ? bytes : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t bytes, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (bytes + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(bytes);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t bytes, const std::nothrow_t& tag) noexcept {
  return operator new(bytes, tag);
}
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_alloc(bytes, align);
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return counted_alloc(bytes, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pfsc::harness {
namespace {

constexpr std::uint64_t kSeed = 7;

/// Two ad_lustre jobs of 32 ranks over 16 OSTs; 1 MiB stripes put every
/// OST to work in the first segment, so later segments add RPCs only.
Scenario small_multi(std::uint32_t segments) {
  ior::Config cfg;
  cfg.hints.driver = mpiio::Driver::ad_lustre;
  cfg.hints.striping_factor = 16;
  cfg.hints.striping_unit = 1_MiB;
  cfg.use_collective = false;
  cfg.segment_count = segments;
  return Scenario::multi(2, 32, cfg);
}

void expect_verified(const Observation& obs) {
  ASSERT_EQ(obs.per_job.size(), 2u);
  for (const ior::Result& r : obs.per_job) {
    EXPECT_EQ(r.err, lustre::Errno::ok);
    EXPECT_TRUE(r.verified);
  }
}

/// Global allocations made by one untraced run of `s`.
std::uint64_t allocations(const Scenario& s) {
  const std::uint64_t before = g_allocations.load();
  const Observation obs = run_scenario(s, kSeed);
  const std::uint64_t after = g_allocations.load();
  expect_verified(obs);
  return after - before;
}

/// Bulk RPCs of one run of `s`: the client trace category records exactly
/// a begin and an end per RPC, and a one-event buffer counts them all as
/// recorded + dropped.
std::uint64_t bulk_rpcs(Scenario s) {
  s.trace.mode = trace::TraceMode::full;
  s.trace.categories = trace::cat_bit(trace::Cat::client);
  s.trace.capacity = 1;
  const Observation obs = run_scenario(s, kSeed);
  expect_verified(obs);
  return (obs.trace_summary.recorded_events +
          obs.trace_summary.dropped_events) / 2;
}

TEST(AllocBudget, AtMostOneAllocationPerMarginalBulkRpc) {
  const Scenario few = small_multi(2);
  const Scenario many = small_multi(6);
  const std::uint64_t rpcs_few = bulk_rpcs(few);
  const std::uint64_t rpcs_many = bulk_rpcs(many);
  ASSERT_GT(rpcs_many, rpcs_few);

  const std::uint64_t allocs_few = allocations(few);
  const std::uint64_t allocs_many = allocations(many);
  ASSERT_GT(allocs_few, 0u) << "the counting operator new is not linked in";
  // Deterministic: the same run allocates exactly the same again.
  EXPECT_EQ(allocations(few), allocs_few);

  const double per_rpc =
      static_cast<double>(static_cast<std::int64_t>(allocs_many - allocs_few)) /
      static_cast<double>(rpcs_many - rpcs_few);
  RecordProperty("marginal_rpcs", std::to_string(rpcs_many - rpcs_few));
  RecordProperty("marginal_allocations_per_rpc", std::to_string(per_rpc));
  EXPECT_LE(per_rpc, 1.0) << (allocs_many - allocs_few)
                          << " extra allocations for "
                          << (rpcs_many - rpcs_few) << " extra bulk RPCs";
}


/// Coroutine frames created while one Client issues `writes` one-RPC
/// writes back to back on a bare FileSystem (no MPI-IO above it).
std::uint64_t frames_for_writes(std::uint64_t writes) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), kSeed);
  lustre::Client client(fs, "c");
  const sim::FrameArena& arena = eng.frame_arena();
  const std::uint64_t before =
      arena.fresh_allocations() + arena.reused_allocations();
  eng.spawn([](lustre::Client& c, std::uint64_t n) -> sim::Task {
    lustre::StripeSettings settings;
    settings.stripe_count = 1;
    settings.stripe_size = 1_MiB;
    const auto file = co_await c.create("/f", settings);
    EXPECT_TRUE(file.ok());
    for (std::uint64_t i = 0; i < n; ++i) {
      EXPECT_EQ(co_await c.write(file.value, i * 1_MiB, 1_MiB),
                lustre::Errno::ok);
    }
  }(client, writes));
  eng.run();
  EXPECT_EQ(client.bytes_written(), writes * 1_MiB);
  return arena.fresh_allocations() + arena.reused_allocations() - before;
}

TEST(FrameBudget, AtMostTwoFramesPerMarginalBulkRpc) {
  // One RPC is Client::io plus its rpc task; links, the OSS scheduler, the
  // disk and the pass-through wrappers add no frame of their own.
  const std::uint64_t few = frames_for_writes(10);
  const std::uint64_t many = frames_for_writes(110);
  ASSERT_GT(many, few);
  const double per_rpc = static_cast<double>(many - few) / 100.0;
  RecordProperty("marginal_frames_per_rpc", std::to_string(per_rpc));
  EXPECT_LE(per_rpc, 2.0) << (many - few) << " extra frames for 100 extra "
                          << "bulk RPCs";
}

}  // namespace
}  // namespace pfsc::harness
