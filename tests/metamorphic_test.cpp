// Metamorphic and fuzz tests: properties that must hold across equivalent
// execution paths and random workloads.
//
//  * Transport equivalence: the same logical writes produce the same final
//    file coverage whether issued collectively (two-phase, write-behind),
//    collectively without aggregation, or independently.
//  * Determinism: identical seeds produce bit-identical results; different
//    seeds produce different OST placements.
//  * PLFS fuzz: random overlapping writes from several ranks read back
//    exactly according to a last-writer-wins reference model.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "harness/scenario.hpp"
#include "plfs/plfs.hpp"

namespace pfsc {
namespace {

using lustre::Errno;

// ---------------------------------------------------------------------------
// Transport equivalence.
// ---------------------------------------------------------------------------

// gtest names each case after a byte dump of its parameter, so the padding
// between the flags and the window is an explicit, zeroed member: left
// implicit, it held whatever was on the stack and the names changed per run.
struct PathVariant {
  bool collective;
  bool cb;
  std::uint8_t pad[6];
  Bytes dirty_window;
};
static_assert(sizeof(PathVariant) == 16, "PathVariant must have no padding");

class TransportEquivalence : public ::testing::TestWithParam<PathVariant> {};

TEST_P(TransportEquivalence, SameFinalCoverage) {
  const auto variant = GetParam();
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 42);
  mpi::Runtime rt(fs, 8, 4);
  mpiio::Hints h;
  h.driver = mpiio::Driver::ad_lustre;
  h.striping_factor = 4;
  h.striping_unit = 1_MiB;
  h.romio_cb_write = variant.cb;
  h.dirty_window = variant.dirty_window;
  mpiio::File file(rt.world(), fs, "/f", h);
  rt.run_to_completion([&](int rank) -> sim::Task {
    EXPECT_EQ(co_await file.open(rank, rt.client(rank)), Errno::ok);
    for (int seg = 0; seg < 3; ++seg) {
      // Strided with holes: 512 KiB of data every 1 MiB per rank slot.
      const Bytes off =
          (static_cast<Bytes>(seg) * 8 + static_cast<Bytes>(rank)) * 1_MiB;
      const Errno e = variant.collective
                          ? co_await file.write_at_all(rank, off, 512_KiB)
                          : co_await file.write_at(rank, off, 512_KiB);
      EXPECT_EQ(e, Errno::ok);
    }
    EXPECT_EQ(co_await file.close(rank), Errno::ok);
  });
  const lustre::Inode& node = fs.inode(file.context().ino);
  // Every variant must agree on exactly which bytes exist.
  EXPECT_EQ(node.written.total_bytes(), 24u * 512_KiB);
  for (int slot = 0; slot < 24; ++slot) {
    const Bytes off = static_cast<Bytes>(slot) * 1_MiB;
    EXPECT_TRUE(node.written.covers(off, 512_KiB)) << "slot " << slot;
    EXPECT_FALSE(node.written.covers(off + 512_KiB, 1)) << "slot " << slot;
  }
  EXPECT_EQ(node.size, 23u * 1_MiB + 512_KiB);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, TransportEquivalence,
    ::testing::Values(PathVariant{true, true, {}, 256_MiB},   // two-phase + async
                      PathVariant{true, true, {}, 0},         // two-phase sync
                      PathVariant{true, false, {}, 256_MiB},  // collective, no cb
                      PathVariant{false, true, {}, 256_MiB}   // independent
                      ));

// ---------------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------------

TEST(Determinism, SameSeedSameResult) {
  harness::Scenario spec;
  spec.platform = hw::tiny_test_platform();
  spec.nprocs = 8;
  spec.procs_per_node = 4;
  spec.ior.block_size = 1_MiB;
  spec.ior.transfer_size = 256_KiB;
  spec.ior.segment_count = 4;
  spec.ior.hints.driver = mpiio::Driver::ad_lustre;
  spec.ior.hints.striping_factor = 4;
  spec.ior.hints.striping_unit = 1_MiB;
  const auto a = harness::run_scenario(spec, 12345).ior;
  const auto b = harness::run_scenario(spec, 12345).ior;
  EXPECT_DOUBLE_EQ(a.write_mbps, b.write_mbps);
  EXPECT_DOUBLE_EQ(a.write_time, b.write_time);
}

TEST(Determinism, DifferentSeedsDifferentPlacement) {
  auto osts_for_seed = [](std::uint64_t seed) {
    sim::Engine eng;
    lustre::FileSystem fs(eng, hw::cab_lscratchc(), seed);
    std::vector<lustre::OstIndex> osts;
    eng.spawn([](lustre::FileSystem& fs, std::vector<lustre::OstIndex>& osts)
                  -> sim::Task {
      auto r = co_await fs.create("/f", lustre::StripeSettings{16, 1_MiB, -1});
      PFSC_ASSERT(r.ok());
      osts = fs.inode(r.value).layout.osts;
    }(fs, osts));
    eng.run();
    return osts;
  };
  EXPECT_EQ(osts_for_seed(1), osts_for_seed(1));
  EXPECT_NE(osts_for_seed(1), osts_for_seed(2));
}

TEST(Determinism, EngineEventCountIsStable) {
  auto events = [] {
    sim::Engine eng;
    lustre::FileSystem fs(eng, hw::tiny_test_platform(), 7);
    mpi::Runtime rt(fs, 4, 4);
    ior::ProbeConfig cfg;
    cfg.num_writers = 4;
    cfg.bytes_per_writer = 4_MiB;
    (void)ior::run_probe(rt, cfg);
    return eng.executed_events();
  };
  EXPECT_EQ(events(), events());
}

// ---------------------------------------------------------------------------
// PLFS fuzz against a reference model.
// ---------------------------------------------------------------------------

class PlfsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlfsFuzz, RandomOverlappingWritesResolveLastWriterWins) {
  Rng rng(GetParam());
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), GetParam());
  lustre::Client client(fs, "fuzz");
  plfs::Plfs plfs(fs);

  constexpr Bytes kSpan = 64;  // logical blocks of 64 KiB
  constexpr Bytes kBlock = 64_KiB;
  // Reference: block -> (rank, sequence) of the last write.
  std::map<Bytes, int> reference;

  // Three ranks write random extents in a random global order; simulated
  // time orders them exactly as issued (sequential here), so the reference
  // is simply "later write wins".
  eng.spawn([](lustre::Client& client, plfs::Plfs& plfs, Rng& rng,
               std::map<Bytes, int>& reference) -> sim::Task {
    std::vector<plfs::WriteHandle> handles;
    for (int rank = 0; rank < 3; ++rank) {
      auto h = co_await plfs.open_write(client, "/fuzz", rank);
      PFSC_ASSERT(h.ok());
      handles.push_back(std::move(h.value));
    }
    for (int op = 0; op < 60; ++op) {
      const int rank = static_cast<int>(rng.uniform(3));
      const Bytes start = rng.uniform(kSpan - 1);
      const Bytes len = 1 + rng.uniform(std::min<Bytes>(kSpan - start, 8) - 1 + 1);
      PFSC_ASSERT(co_await plfs.write(client, handles[static_cast<std::size_t>(rank)],
                                      start * kBlock, len * kBlock) ==
                  lustre::Errno::ok);
      for (Bytes b = start; b < start + len; ++b) reference[b] = op;
    }
    for (auto& h : handles) {
      PFSC_ASSERT(co_await plfs.close_write(client, h) == lustre::Errno::ok);
    }
  }(client, plfs, rng, reference));
  eng.run();

  // Read back and compare structure: every written block resolves, every
  // unwritten block is a hole.
  plfs::ReadHandle reader;
  eng.spawn([](lustre::Client& client, plfs::Plfs& plfs,
               plfs::ReadHandle& reader) -> sim::Task {
    auto r = co_await plfs.open_read(client, "/fuzz");
    PFSC_ASSERT(r.ok());
    reader = std::move(r.value);
  }(client, plfs, reader));
  eng.run();

  std::vector<plfs::ReadHandle::Mapping> runs;
  for (Bytes b = 0; b < kSpan; ++b) {
    const bool written = reference.contains(b);
    EXPECT_EQ(reader.resolve(b * kBlock, kBlock, runs), written)
        << "block " << b;
  }
  // Logical size = one past the highest written block.
  if (!reference.empty()) {
    const Bytes highest = reference.rbegin()->first;
    EXPECT_EQ(reader.logical_size(), (highest + 1) * kBlock);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlfsFuzz,
                         ::testing::Values(101ull, 202ull, 303ull, 404ull,
                                           505ull, 606ull));

}  // namespace
}  // namespace pfsc
