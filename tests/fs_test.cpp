#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "lustre/fs.hpp"
#include "lustre/lfs.hpp"

namespace pfsc::lustre {
namespace {

struct FsFixture : ::testing::Test {
  sim::Engine eng;
  hw::PlatformParams params = hw::tiny_test_platform();
  FileSystem fs{eng, hw::tiny_test_platform(), 42};

  /// Run a single metadata coroutine to completion and return its result.
  template <typename T>
  T run(sim::Co<T> op) {
    T out{};
    eng.spawn([](sim::Co<T> op, T& out) -> sim::Task {
      out = co_await std::move(op);
    }(std::move(op), out));
    eng.run();
    return out;
  }
};

TEST_F(FsFixture, SplitPath) {
  using V = std::vector<std::string_view>;
  EXPECT_EQ(split_path("/a/b/c"), (V{"a", "b", "c"}));
  EXPECT_EQ(split_path("a/b"), (V{"a", "b"}));
  EXPECT_EQ(split_path("//a//b/"), (V{"a", "b"}));
  EXPECT_TRUE(split_path("/").empty());
  EXPECT_TRUE(split_path("").empty());
}

TEST_F(FsFixture, CreateAppliesDefaults) {
  auto r = run(fs.create("/f", StripeSettings{}));
  ASSERT_TRUE(r.ok());
  const Inode& node = fs.inode(r.value);
  EXPECT_EQ(node.layout.stripe_count(), params.default_stripe_count);
  EXPECT_EQ(node.layout.stripe_size, params.default_stripe_size);
  EXPECT_FALSE(node.is_dir);
  EXPECT_EQ(node.size, 0u);
}

TEST_F(FsFixture, CreateHonoursExplicitSettings) {
  auto r = run(fs.create("/f", StripeSettings{4, 2_MiB, -1}));
  ASSERT_TRUE(r.ok());
  const Inode& node = fs.inode(r.value);
  EXPECT_EQ(node.layout.stripe_count(), 4u);
  EXPECT_EQ(node.layout.stripe_size, 2_MiB);
  // Distinct OSTs.
  std::set<OstIndex> distinct(node.layout.osts.begin(), node.layout.osts.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST_F(FsFixture, CreateClampsToMaxStripes) {
  auto r = run(fs.create("/f", StripeSettings{1000, 1_MiB, -1}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(fs.inode(r.value).layout.stripe_count(), params.max_stripe_count);
}

TEST_F(FsFixture, StripeOffsetPinsOsts) {
  auto r = run(fs.create("/f", StripeSettings{3, 1_MiB, 5}));
  ASSERT_TRUE(r.ok());
  const auto& osts = fs.inode(r.value).layout.osts;
  ASSERT_EQ(osts.size(), 3u);
  EXPECT_EQ(osts[0], 5u);
  EXPECT_EQ(osts[1], 6u);
  EXPECT_EQ(osts[2], 7u);
}

TEST_F(FsFixture, StripeOffsetWrapsAround) {
  auto r = run(fs.create("/f", StripeSettings{2, 1_MiB, 7}));
  ASSERT_TRUE(r.ok());
  const auto& osts = fs.inode(r.value).layout.osts;
  EXPECT_EQ(osts[0], 7u);
  EXPECT_EQ(osts[1], 0u);
}

TEST_F(FsFixture, DuplicateCreateFails) {
  ASSERT_TRUE(run(fs.create("/f", StripeSettings{})).ok());
  auto r = run(fs.create("/f", StripeSettings{}));
  EXPECT_EQ(r.err, Errno::eexist);
}

TEST_F(FsFixture, CreateInMissingDirectoryFails) {
  auto r = run(fs.create("/no/such/f", StripeSettings{}));
  EXPECT_EQ(r.err, Errno::enoent);
}

TEST_F(FsFixture, MkdirAndNesting) {
  ASSERT_TRUE(run(fs.mkdir("/a")).ok());
  ASSERT_TRUE(run(fs.mkdir("/a/b")).ok());
  ASSERT_TRUE(run(fs.create("/a/b/f", StripeSettings{})).ok());
  EXPECT_TRUE(fs.exists("/a/b/f"));
  EXPECT_FALSE(fs.exists("/a/c"));
  auto dup = run(fs.mkdir("/a"));
  EXPECT_EQ(dup.err, Errno::eexist);
}

TEST_F(FsFixture, OpenDirectoryFails) {
  ASSERT_TRUE(run(fs.mkdir("/d")).ok());
  auto r = run(fs.open("/d"));
  EXPECT_EQ(r.err, Errno::eisdir);
}

TEST_F(FsFixture, OpenMissingFails) {
  auto r = run(fs.open("/nope"));
  EXPECT_EQ(r.err, Errno::enoent);
}

TEST_F(FsFixture, ReaddirListsEntries) {
  ASSERT_TRUE(run(fs.mkdir("/d")).ok());
  ASSERT_TRUE(run(fs.create("/d/x", StripeSettings{})).ok());
  ASSERT_TRUE(run(fs.create("/d/y", StripeSettings{})).ok());
  auto r = run(fs.readdir("/d"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, (std::vector<std::string>{"x", "y"}));
}

TEST_F(FsFixture, UnlinkReleasesObjects) {
  auto r = run(fs.create("/f", StripeSettings{4, 1_MiB, -1}));
  ASSERT_TRUE(r.ok());
  auto usage_before = fs.objects_per_ost();
  EXPECT_EQ(std::accumulate(usage_before.begin(), usage_before.end(), 0ull), 4ull);
  EXPECT_EQ(run(fs.unlink("/f")), Errno::ok);
  auto usage_after = fs.objects_per_ost();
  EXPECT_EQ(std::accumulate(usage_after.begin(), usage_after.end(), 0ull), 0ull);
  EXPECT_FALSE(fs.exists("/f"));
}

TEST_F(FsFixture, UnlinkNonEmptyDirectoryFails) {
  ASSERT_TRUE(run(fs.mkdir("/d")).ok());
  ASSERT_TRUE(run(fs.create("/d/f", StripeSettings{})).ok());
  EXPECT_EQ(run(fs.unlink("/d")), Errno::einval);
  EXPECT_EQ(run(fs.unlink("/d/f")), Errno::ok);
  EXPECT_EQ(run(fs.unlink("/d")), Errno::ok);
}

TEST_F(FsFixture, DirDefaultStripingInherited) {
  ASSERT_TRUE(run(fs.mkdir("/d")).ok());
  EXPECT_EQ(run(fs.set_dir_stripe("/d", StripeSettings{4, 4_MiB, -1})), Errno::ok);
  // New subdirectories inherit the default (Lustre semantics).
  ASSERT_TRUE(run(fs.mkdir("/d/sub")).ok());
  auto r = run(fs.create("/d/sub/f", StripeSettings{}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(fs.inode(r.value).layout.stripe_count(), 4u);
  EXPECT_EQ(fs.inode(r.value).layout.stripe_size, 4_MiB);
  // Explicit settings override the directory default.
  auto r2 = run(fs.create("/d/sub/g", StripeSettings{1, 1_MiB, -1}));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(fs.inode(r2.value).layout.stripe_count(), 1u);
}

TEST_F(FsFixture, FailedOstExcludedFromAllocation) {
  fs.fail_ost(0);
  fs.fail_ost(1);
  EXPECT_EQ(fs.healthy_ost_count(), params.ost_count - 2);
  for (int i = 0; i < 20; ++i) {
    auto r = run(fs.create("/f" + std::to_string(i), StripeSettings{3, 1_MiB, -1}));
    ASSERT_TRUE(r.ok());
    for (OstIndex ost : fs.inode(r.value).layout.osts) {
      EXPECT_NE(ost, 0u);
      EXPECT_NE(ost, 1u);
    }
  }
}

TEST_F(FsFixture, EnospcWhenTooFewHealthyOsts) {
  for (OstIndex i = 0; i < params.ost_count - 1; ++i) fs.fail_ost(i);
  auto r = run(fs.create("/f", StripeSettings{2, 1_MiB, -1}));
  EXPECT_EQ(r.err, Errno::enospc);
  fs.restore_ost(0);
  auto r2 = run(fs.create("/f", StripeSettings{2, 1_MiB, -1}));
  EXPECT_TRUE(r2.ok());
}

TEST_F(FsFixture, OccupancyAndCollisionHistogram) {
  auto a = run(fs.create("/a", StripeSettings{2, 1_MiB, 0}));  // OST 0,1
  auto b = run(fs.create("/b", StripeSettings{2, 1_MiB, 1}));  // OST 1,2
  ASSERT_TRUE(a.ok() && b.ok());
  const std::vector<InodeId> files{a.value, b.value};
  const auto occ = fs.ost_occupancy(files);
  EXPECT_EQ(occ[0], 1u);
  EXPECT_EQ(occ[1], 2u);
  EXPECT_EQ(occ[2], 1u);
  const auto hist = fs.collision_histogram(files);
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0], params.ost_count - 3);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 1u);
}

TEST_F(FsFixture, FilesUnderRecurses) {
  ASSERT_TRUE(run(fs.mkdir("/d")).ok());
  ASSERT_TRUE(run(fs.mkdir("/d/s")).ok());
  ASSERT_TRUE(run(fs.create("/d/f1", StripeSettings{})).ok());
  ASSERT_TRUE(run(fs.create("/d/s/f2", StripeSettings{})).ok());
  EXPECT_EQ(fs.files_under("/d").size(), 2u);
  EXPECT_EQ(fs.files_under("/d/s").size(), 1u);
  EXPECT_TRUE(fs.files_under("/missing").empty());
}

TEST_F(FsFixture, RandomAllocationBalancesOverManyFiles) {
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(run(fs.create("/f" + std::to_string(i),
                              StripeSettings{2, 1_MiB, -1}))
                    .ok());
  }
  const auto usage = fs.objects_per_ost();
  // 800 objects over 8 OSTs: expect each to land near 100.
  for (auto u : usage) {
    EXPECT_GT(u, 60u);
    EXPECT_LT(u, 140u);
  }
}

TEST_F(FsFixture, RoundRobinPolicyIsPerfectlyEven) {
  sim::Engine eng2;
  hw::PlatformParams platform = hw::tiny_test_platform();
  platform.ost_placement = PlacementKind::round_robin;
  FileSystem rr(eng2, platform, 1);
  auto run2 = [&](auto op) {
    Result<InodeId> out{};
    eng2.spawn([](decltype(op) o, Result<InodeId>& res) -> sim::Task {
      res = co_await std::move(o);
    }(std::move(op), out));
    eng2.run();
    return out;
  };
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(run2(rr.create("/f" + std::to_string(i),
                               StripeSettings{2, 1_MiB, -1}))
                    .ok());
  }
  for (auto u : rr.objects_per_ost()) EXPECT_EQ(u, 4u);
}

TEST_F(FsFixture, MetadataOpsCostSimulatedTime) {
  EXPECT_DOUBLE_EQ(eng.now(), 0.0);
  ASSERT_TRUE(run(fs.create("/f", StripeSettings{})).ok());
  EXPECT_GT(eng.now(), 0.0);
}

TEST_F(FsFixture, LfsGetstripeReportsLayout) {
  ASSERT_TRUE(run(fs.create("/f", StripeSettings{3, 2_MiB, 0})).ok());
  auto info = lfs_getstripe(fs, "/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value.stripe_count, 3u);
  EXPECT_EQ(info.value.stripe_size, 2_MiB);
  EXPECT_EQ(info.value.osts.size(), 3u);
  EXPECT_EQ(lfs_getstripe(fs, "/missing").err, Errno::enoent);
}

TEST_F(FsFixture, LfsGetstripeDirectoryDefaults) {
  ASSERT_TRUE(run(fs.mkdir("/d")).ok());
  auto before = lfs_getstripe(fs, "/d");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value.stripe_count, params.default_stripe_count);
  EXPECT_EQ(run(lfs_setstripe(fs, "/d", StripeSettings{4, 4_MiB, -1})), Errno::ok);
  auto after = lfs_getstripe(fs, "/d");
  EXPECT_EQ(after.value.stripe_count, 4u);
  EXPECT_EQ(after.value.stripe_size, 4_MiB);
}

TEST_F(FsFixture, LfsDfReportsUsage) {
  ASSERT_TRUE(run(fs.create("/f", StripeSettings{2, 1_MiB, 0})).ok());
  fs.fail_ost(3);
  const auto df = lfs_df(fs);
  ASSERT_EQ(df.size(), params.ost_count);
  EXPECT_EQ(df[0].objects, 1u);
  EXPECT_EQ(df[1].objects, 1u);
  EXPECT_TRUE(df[3].failed);
  EXPECT_FALSE(df[0].failed);
}

}  // namespace
}  // namespace pfsc::lustre
