#include <gtest/gtest.h>

#include "lustre/layout.hpp"
#include "support/error.hpp"

namespace pfsc::lustre {
namespace {

StripeLayout make_layout(std::uint32_t count, Bytes stripe_size) {
  StripeLayout l;
  l.stripe_size = stripe_size;
  for (std::uint32_t i = 0; i < count; ++i) {
    l.osts.push_back(i * 10);       // arbitrary distinct OSTs
    l.objects.push_back(1000 + i);  // arbitrary object ids
  }
  return l;
}

TEST(Layout, LocateFirstStripe) {
  const auto l = make_layout(4, 1_MiB);
  const auto seg = locate(l, 0);
  EXPECT_EQ(seg.layout_index, 0u);
  EXPECT_EQ(seg.object_offset, 0u);
  EXPECT_EQ(seg.length, 1_MiB);
}

TEST(Layout, LocateRoundRobinAcrossStripes) {
  const auto l = make_layout(4, 1_MiB);
  for (std::uint32_t k = 0; k < 12; ++k) {
    const auto seg = locate(l, static_cast<Bytes>(k) * 1_MiB);
    EXPECT_EQ(seg.layout_index, k % 4);
    EXPECT_EQ(seg.object_offset, (k / 4) * 1_MiB);
  }
}

TEST(Layout, LocateMidStripe) {
  const auto l = make_layout(2, 1_MiB);
  const auto seg = locate(l, 1_MiB + 512_KiB);
  EXPECT_EQ(seg.layout_index, 1u);
  EXPECT_EQ(seg.object_offset, 512_KiB);
  EXPECT_EQ(seg.length, 512_KiB);  // runs to the stripe boundary
}

TEST(Layout, LocateRejectsUnresolvedLayout) {
  StripeLayout empty;
  EXPECT_THROW(locate(empty, 0), UsageError);
}

TEST(Layout, SegmentsCoverExtentExactly) {
  const auto l = make_layout(3, 1_MiB);
  const Bytes off = 512_KiB;
  const Bytes len = 5 * 1_MiB;
  std::vector<LayoutSegment> segs;
  segments(l, off, len, segs);
  Bytes total = 0;
  Bytes expect_file_off = off;
  for (const auto& s : segs) {
    EXPECT_EQ(s.file_offset, expect_file_off);
    expect_file_off += s.length;
    total += s.length;
  }
  EXPECT_EQ(total, len);
}

TEST(Layout, SegmentsMatchLocatePointwise) {
  const auto l = make_layout(5, 256_KiB);
  std::vector<LayoutSegment> segs;
  segments(l, 100'000, 3'000'000, segs);
  for (const auto& s : segs) {
    const auto head = locate(l, s.file_offset);
    EXPECT_EQ(head.layout_index, s.layout_index);
    EXPECT_EQ(head.object_offset, s.object_offset);
    // Last byte of the segment maps into the same object run.
    const auto tail = locate(l, s.file_offset + s.length - 1);
    EXPECT_EQ(tail.layout_index, s.layout_index);
    EXPECT_EQ(tail.object_offset, s.object_offset + s.length - 1);
  }
}

TEST(Layout, SingleStripeCountMergesIntoOneSegment) {
  const auto l = make_layout(1, 1_MiB);
  std::vector<LayoutSegment> segs;
  segments(l, 0, 10 * 1_MiB, segs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].length, 10 * 1_MiB);
  EXPECT_EQ(segs[0].object_offset, 0u);
}

TEST(Layout, ZeroLengthYieldsNoSegments) {
  const auto l = make_layout(2, 1_MiB);
  std::vector<LayoutSegment> segs;
  segments(l, 4_MiB, 0, segs);
  EXPECT_TRUE(segs.empty());
}

TEST(Layout, SegmentsReplaceTheCallersContents) {
  // A caller reuses one vector across extents: each call starts afresh.
  const auto l = make_layout(4, 1_MiB);
  std::vector<LayoutSegment> segs;
  segments(l, 0, 3 * 1_MiB, segs);
  ASSERT_EQ(segs.size(), 3u);
  segments(l, 1_MiB, 1_MiB, segs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].layout_index, 1u);
  EXPECT_EQ(segs[0].file_offset, 1_MiB);
  segments(l, 0, 0, segs);
  EXPECT_TRUE(segs.empty());
}

TEST(Layout, LargeStripesSmallWrite) {
  const auto l = make_layout(160, 128_MiB);
  std::vector<LayoutSegment> segs;
  segments(l, 200_MiB, 1_MiB, segs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].layout_index, 1u);          // second stripe
  EXPECT_EQ(segs[0].object_offset, 72_MiB);     // 200 - 128
}

// Property sweep: round-tripping byte positions through the layout maps
// every byte to exactly one (object, offset) and back.
class LayoutProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, Bytes>> {};

TEST_P(LayoutProperty, ByteMappingIsBijective) {
  const auto [count, stripe] = GetParam();
  const auto l = make_layout(count, stripe);
  // Sample byte positions across 8 stripes-worth of file.
  const Bytes span = stripe * count * 2;
  for (Bytes off = 0; off < span; off += stripe / 3 + 1) {
    const auto seg = locate(l, off);
    // Invert: file offset = stripe_index * stripe + within, where
    // stripe_index = (object_offset / stripe) * count + layout_index.
    const Bytes within = seg.object_offset % stripe;
    const Bytes obj_stripe = seg.object_offset / stripe;
    const Bytes back =
        (obj_stripe * count + seg.layout_index) * stripe + within;
    EXPECT_EQ(back, off);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u, 160u),
                       ::testing::Values(Bytes{64_KiB}, Bytes{1_MiB},
                                         Bytes{128_MiB})));

}  // namespace
}  // namespace pfsc::lustre
